package repl_test

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/internal/record"
	"rql/internal/repl"
	"rql/internal/retro"
	"rql/internal/storage"
	"rql/internal/wire"
)

// TestReplicaRetroStateByteIdentical holds a replica's Retro state to
// the primary's byte for byte: after a bootstrap over sealed segments
// and a live stream that runs across a primary seal and carries commits
// that free pages and span several delta frames, the replica's Maplog
// entries, snapshot LSNs and every Pagelog page equal the primary's.
// The replica derives its captures from shipped post-images alone, so
// any difference in what its commit hook archives shows here.
func TestReplicaRetroStateByteIdentical(t *testing.T) {
	pdb, _, addr := startPrimaryOpts(t, rql.Options{
		Compaction: rql.CompactionOptions{
			Enabled:      true,
			SegmentPages: 4,
			MinTailPages: -1,
			Interval:     time.Hour, // only explicit seals
		},
	})
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	present := map[int]bool{}
	history(t, pc, rng, present, 20)
	if sealed, err := pdb.SealPagelog(); err != nil || sealed == 0 {
		t.Fatalf("seal before bootstrap: %d segments, %v", sealed, err)
	}

	rdb, r := startReplica(t, addr, "ident", nil)
	history(t, pc, rng, present, 6)
	if sealed, err := pdb.SealPagelog(); err != nil || sealed == 0 {
		t.Fatalf("seal during the stream: %d segments, %v", sealed, err)
	}
	history(t, pc, rng, present, 2)

	// A table of ~two rows per page, large enough that writing it, then
	// rewriting every page of it (which captures each), then dropping it
	// (which frees each) are commits of more than one delta frame.
	mustExec(t, pc, `CREATE TABLE big (k INTEGER, pad TEXT)`)
	pad := record.Text(strings.Repeat("p", 1800))
	pages := func() uint64 { return pdb.StorageStats().PagesWritten }
	before := pages()
	mustExec(t, pc, `BEGIN`)
	for i := 0; i < 2*repl.DeltaPagesPerFrame+200; i++ {
		if err := pc.Exec(`INSERT INTO big VALUES (?, ?)`, nil, record.Int(int64(i)), pad); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.DeclareSnapshot("big"); err != nil {
		t.Fatal(err)
	}
	if n := pages() - before; n <= repl.DeltaPagesPerFrame {
		t.Fatalf("the big commit wrote %d pages, not more than one frame's %d", n, repl.DeltaPagesPerFrame)
	}
	mustExec(t, pc, `UPDATE big SET k = k + 1`)
	if _, err := pc.DeclareSnapshot("rewrite"); err != nil {
		t.Fatal(err)
	}
	freed := pdb.Engine().MainStore().NumFree()
	mustExec(t, pc, `DROP TABLE big`)
	if pdb.Engine().MainStore().NumFree()-freed <= repl.DeltaPagesPerFrame {
		t.Fatalf("dropping big freed %d pages", pdb.Engine().MainStore().NumFree()-freed)
	}
	last := history(t, pc, rng, present, 3)
	waitHorizon(t, r, last)

	export := func(db *rql.DB) retro.BootstrapState {
		bs, err := db.Engine().Retro().ExportBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	pb, rb := export(pdb), export(rdb)
	if pb.LastSnap != rb.LastSnap || pb.PagelogPages != rb.PagelogPages {
		t.Fatalf("replica at snapshot %d with %d Pagelog pages, primary at %d with %d",
			rb.LastSnap, rb.PagelogPages, pb.LastSnap, pb.PagelogPages)
	}
	if fmt.Sprint(pb.SnapLSNs) != fmt.Sprint(rb.SnapLSNs) {
		t.Fatalf("snapshot LSNs differ:\nprimary: %v\nreplica: %v", pb.SnapLSNs, rb.SnapLSNs)
	}
	if len(pb.Entries) != len(rb.Entries) {
		t.Fatalf("Maplog lengths differ: primary %d, replica %d", len(pb.Entries), len(rb.Entries))
	}
	for i := range pb.Entries {
		if pb.Entries[i] != rb.Entries[i] {
			t.Fatalf("Maplog entry %d differs: primary %+v, replica %+v", i, pb.Entries[i], rb.Entries[i])
		}
	}
	for off := int64(0); off < pb.PagelogPages; off += 256 {
		n := int(min(256, pb.PagelogPages-off))
		want, err := pdb.Engine().Retro().ExportPagelog(off, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rdb.Engine().Retro().ExportPagelog(off, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if *want[i] != *got[i] {
				t.Fatalf("Pagelog page %d differs", off+int64(i))
			}
		}
	}
	if ps, rs := pdb.Engine().MainStore(), rdb.Engine().MainStore(); ps.LSN() != rs.LSN() ||
		fmt.Sprint(ps.FreeList()) != fmt.Sprint(rs.FreeList()) {
		t.Fatalf("store LSN %d vs %d, free lists equal: %v", ps.LSN(), rs.LSN(),
			fmt.Sprint(ps.FreeList()) == fmt.Sprint(rs.FreeList()))
	}
	if st := rdb.StorageStats(); st.InvariantViolations != 0 || st.Groups == 0 {
		t.Errorf("replica store: %d groups, %d invariant violations", st.Groups, st.InvariantViolations)
	}
}

// fakePrimary serves one replication stream of hand-written delta
// frames: it answers the replica's HELLO and subscribe with a resume
// (no bootstrap), then writes frames and keeps the connection open.
func fakePrimary(t *testing.T, frames []wire.ReplDelta) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		lis.Close()
		<-done
	})
	go func() {
		defer close(done)
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
		if _, _, err := wire.ReadFrame(br); err != nil { // HELLO
			return
		}
		e := &wire.Enc{}
		e.Uvarint(wire.ProtocolVersion)
		e.String("fake")
		wire.WriteFrame(bw, wire.RespHello, e.B)
		bw.Flush()
		if _, _, err := wire.ReadFrame(br); err != nil { // ReqReplSub
			return
		}
		wire.WriteFrame(bw, wire.RespReplBoot, []byte{wire.BootResume})
		for _, rd := range frames {
			e := &wire.Enc{}
			wire.EncodeReplDelta(e, rd)
			wire.WriteFrame(bw, wire.RespReplDelta, e.B)
		}
		bw.Flush()
		for { // read acks until the replica hangs up
			if _, _, err := wire.ReadFrame(br); err != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// TestReplicaStopsOnPagelogDivergence feeds a replica two snapshot
// groups by hand. The first declares snapshot 1 and ends the Pagelog
// where the replica's does; the second rewrites the page, which the
// replica captures into one Pagelog page, but its final frame claims
// two. The replica must apply the first, then stop with
// retro.ErrReplDiverged, its horizon left at 1.
func TestReplicaStopsOnPagelogDivergence(t *testing.T) {
	rdb, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	store := rdb.Engine().MainStore()
	lsn, id := store.LSN(), uint32(store.NumPages()+1)
	img := func(b byte) []byte {
		p := make([]byte, storage.PageSize)
		p[0] = b
		return p
	}
	addr := fakePrimary(t, []wire.ReplDelta{
		{LSN: lsn + 1, Declare: true, SnapID: 1, PlEnd: 0, Pages: []wire.ReplPageImage{{ID: id, Data: img(1)}}},
		{LSN: lsn + 2, Declare: true, SnapID: 2, PlEnd: 2, Pages: []wire.ReplPageImage{{ID: id, Data: img(2)}}},
	})
	r, err := repl.NewReplica(rdb, repl.ReplicaConfig{Primary: addr, ID: "diverge"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.Start()
	done := make(chan error, 1)
	go func() { done <- r.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, retro.ErrReplDiverged) {
			t.Fatalf("replica stopped with %v, want ErrReplDiverged", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("replica did not stop on a Pagelog that ends off the primary's")
	}
	if h := r.Horizon(); h != 1 {
		t.Fatalf("horizon %d after the diverged group, want 1", h)
	}
	if got := rdb.PagelogPages(); got != 1 {
		t.Fatalf("replica Pagelog holds %d pages, want the one capture", got)
	}
}

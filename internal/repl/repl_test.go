package repl_test

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/internal/repl"
	"rql/internal/server"
	"rql/internal/wire"
)

// startPrimary opens a fresh in-memory database, attaches a replication
// primary, and serves it on a random local port.
func startPrimary(t *testing.T) (*rql.DB, *repl.Primary, string) {
	t.Helper()
	return startPrimaryOpts(t, rql.Options{})
}

// startPrimaryOpts is startPrimary with explicit database options
// (the sealed-segment tests need a compacting primary).
func startPrimaryOpts(t *testing.T, opts rql.Options) (*rql.DB, *repl.Primary, string) {
	t.Helper()
	db, err := rql.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	p := repl.NewPrimary(db, repl.PrimaryConfig{})
	t.Cleanup(p.Close)
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	srv.SetPrimary(p)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return db, p, lis.Addr().String()
}

// startReplica opens a fresh database (or reuses db) and tails the
// primary at addr with a fast reconnect schedule.
func startReplica(t *testing.T, addr, id string, db *rql.DB) (*rql.DB, *repl.Replica) {
	t.Helper()
	if db == nil {
		var err error
		db, err = rql.Open(rql.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
	}
	r, err := repl.NewReplica(db, repl.ReplicaConfig{
		Primary:      addr,
		ID:           id,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.Start()
	return db, r
}

func mustExec(t *testing.T, c *rql.Conn, sqlText string) {
	t.Helper()
	if err := c.Exec(sqlText, nil); err != nil {
		t.Fatalf("%s: %v", sqlText, err)
	}
}

// history drives snapshots randomized insert/update/delete bursts over
// table m, each committed, declared and registered in SnapIds by one
// DeclareSnapshot (including zero-write snapshots, whose deltas are
// empty).
func history(t *testing.T, c *rql.Conn, rng *rand.Rand, present map[int]bool, snapshots int) uint64 {
	t.Helper()
	var last uint64
	for s := 0; s < snapshots; s++ {
		mustExec(t, c, `BEGIN`)
		var writes int
		switch rng.Intn(4) {
		case 0:
			writes = 0
		case 1:
			writes = 12 + rng.Intn(8)
		default:
			writes = 1 + rng.Intn(4)
		}
		for n := 0; n < writes; n++ {
			k := rng.Intn(14)
			if present[k] && rng.Intn(3) == 0 {
				mustExec(t, c, fmt.Sprintf(`DELETE FROM m WHERE k = %d`, k))
				present[k] = false
			} else if !present[k] {
				mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`,
					k, k%3, rng.Intn(100)))
				present[k] = true
			} else {
				mustExec(t, c, fmt.Sprintf(`UPDATE m SET v = %d WHERE k = %d`, rng.Intn(100), k))
			}
		}
		id, err := c.DeclareSnapshot("h")
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	return last
}

func sortedRows(t *testing.T, c *rql.Conn, sqlText string) []string {
	t.Helper()
	rows, err := c.Query(sqlText)
	if err != nil {
		t.Fatalf("%s: %v", sqlText, err)
	}
	out := make([]string, 0, len(rows.Rows))
	for _, r := range rows.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	sort.Strings(out)
	return out
}

func waitHorizon(t *testing.T, r *repl.Replica, snap uint64) {
	t.Helper()
	if err := r.WaitForHorizon(snap, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaBootstrapTailAndRedirect covers the basic lifecycle: a
// replica bootstrapping into existing history, tailing live snapshots,
// serving the same data, and rejecting writes with a redirect.
func TestReplicaBootstrapTailAndRedirect(t *testing.T) {
	pdb, p, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	present := map[int]bool{}
	last := history(t, pc, rng, present, 8)

	rdb, r := startReplica(t, addr, "r1", nil)
	waitHorizon(t, r, last)
	rc := rdb.Conn()

	for _, q := range []string{
		`SELECT k, grp, v FROM m`,
		`SELECT snap_id, snap_ts, label FROM SnapIds`,
	} {
		want := sortedRows(t, pc, q)
		got := sortedRows(t, rc, q)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("after bootstrap, %s differs:\nprimary: %v\nreplica: %v", q, want, got)
		}
	}
	if st := r.Stats(); st.Bootstraps != 1 {
		t.Fatalf("replica bootstrapped %d times, want 1", st.Bootstraps)
	}

	// Live tail: more snapshots after the bootstrap.
	last = history(t, pc, rng, present, 4)
	waitHorizon(t, r, last)
	for snap := uint64(2); snap <= last; snap += 3 {
		q := fmt.Sprintf(`SELECT AS OF %d k, grp, v FROM m`, snap)
		want := sortedRows(t, pc, q)
		got := sortedRows(t, rc, q)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("AS OF %d differs:\nprimary: %v\nreplica: %v", snap, want, got)
		}
	}

	// Writes are rejected with a redirect naming the primary.
	err := rc.Exec(`INSERT INTO m VALUES (99, 'x', 1)`, nil)
	if err == nil {
		t.Fatal("replica accepted a write")
	}
	redir, ok := repl.IsRedirect(err)
	if !ok || redir != addr {
		t.Fatalf("write rejection %q: redirect=%q ok=%v, want addr %q", err, redir, ok, addr)
	}

	// The primary's registry shows the replica connected and caught up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Stats()
		if len(st.Replicas) == 1 && st.Replicas[0].Connected && st.Replicas[0].AckedSnap == last {
			if st.Replicas[0].ID != "r1" || st.Replicas[0].SentBytes == 0 {
				t.Fatalf("replica row %+v", st.Replicas[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never saw the ack: %+v", st.Replicas)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedRetrospectionIdentical is the property test: all four
// mechanisms, with delta pruning on and off, produce byte-identical
// result rows on primary and replica — and the per-iteration counter
// series (the paper's fig. 6–13 inputs) match exactly, because the
// replica rebuilt the same Pagelog/Maplog byte for byte.
func TestReplicatedRetrospectionIdentical(t *testing.T) {
	pdb, _, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	present := map[int]bool{}
	// Half the history before the replica exists (bootstrap path), half
	// streamed live (delta path); both must replay identically. The
	// primary then quiesces on a snapshot boundary: counter identity is
	// only defined there (trailing undeclared commits would give the
	// primary captures the replica has not been shipped).
	history(t, pc, rng, present, 12)
	rdb, r := startReplica(t, addr, "prop", nil)
	last := history(t, pc, rng, present, 13)
	waitHorizon(t, r, last)
	rc := rdb.Conn()

	qs := `SELECT snap_id FROM SnapIds`
	type mech struct {
		kind string
		sel  string
		run  func(c *rql.Conn, table string) (*rql.RunStats, error)
	}
	mechs := []mech{
		{"collate", `SELECT k, grp, sid FROM %s`,
			func(c *rql.Conn, table string) (*rql.RunStats, error) {
				return c.CollateData(qs, `SELECT k, grp, current_snapshot() AS sid FROM m`, table)
			}},
		{"aggvar", `SELECT * FROM %s`,
			func(c *rql.Conn, table string) (*rql.RunStats, error) {
				return c.AggregateDataInVariable(qs, `SELECT COUNT(*) FROM m`, table, "max")
			}},
		{"aggtable", `SELECT grp, c, sv FROM %s`,
			func(c *rql.Conn, table string) (*rql.RunStats, error) {
				return c.AggregateDataInTable(qs, `SELECT grp, COUNT(*) AS c, SUM(v) AS sv FROM m GROUP BY grp`, table, "(c,max):(sv,max)")
			}},
		{"intervals", `SELECT k, start_snapshot, end_snapshot FROM %s`,
			func(c *rql.Conn, table string) (*rql.RunStats, error) {
				return c.CollateDataIntoIntervals(qs, `SELECT k FROM m`, table)
			}},
	}

	for _, mc := range mechs {
		for _, pruneOn := range []bool{false, true} {
			label := fmt.Sprintf("%s_prune%v", mc.kind, pruneOn)
			table := "T_" + label
			pdb.SetDeltaPrune(pruneOn)
			rdb.SetDeltaPrune(pruneOn)
			pdb.ResetSnapshotCache()
			rdb.ResetSnapshotCache()

			prs, err := mc.run(pc, table)
			if err != nil {
				t.Fatalf("%s on primary: %v", label, err)
			}
			rrs, err := mc.run(rc, table)
			if err != nil {
				t.Fatalf("%s on replica: %v", label, err)
			}

			a := sortedRows(t, pc, fmt.Sprintf(mc.sel, table))
			b := sortedRows(t, rc, fmt.Sprintf(mc.sel, table))
			if strings.Join(a, ";") != strings.Join(b, ";") {
				t.Fatalf("%s: replica rows differ\nprimary: %v\nreplica: %v", label, a, b)
			}
			if len(prs.Iterations) != len(rrs.Iterations) {
				t.Fatalf("%s: iteration counts differ: %d vs %d",
					label, len(prs.Iterations), len(rrs.Iterations))
			}
			if got, want := rrs.Total().PagelogReads, prs.Total().PagelogReads; got != want {
				t.Errorf("%s: total pagelog reads differ: replica %d, primary %d", label, got, want)
			}
			for i := range prs.Iterations {
				pi, ri := prs.Iterations[i], rrs.Iterations[i]
				if pi.Snapshot != ri.Snapshot || pi.PagelogReads != ri.PagelogReads ||
					pi.CacheHits != ri.CacheHits || pi.DBReads != ri.DBReads ||
					pi.MapScanned != ri.MapScanned || pi.QqRows != ri.QqRows ||
					pi.Pruned != ri.Pruned {
					t.Errorf("%s: iteration %d counters diverge:\nprimary: snap=%d reads=%d hits=%d db=%d map=%d rows=%d pruned=%v\nreplica: snap=%d reads=%d hits=%d db=%d map=%d rows=%d pruned=%v",
						label, i,
						pi.Snapshot, pi.PagelogReads, pi.CacheHits, pi.DBReads, pi.MapScanned, pi.QqRows, pi.Pruned,
						ri.Snapshot, ri.PagelogReads, ri.CacheHits, ri.DBReads, ri.MapScanned, ri.QqRows, ri.Pruned)
				}
			}
		}
	}
	pdb.SetDeltaPrune(true)
	rdb.SetDeltaPrune(true)
}

// TestReplicaResumeWithoutRebootstrap severs the stream repeatedly
// while the primary keeps declaring snapshots. The replica must
// reconnect, resume from its applied horizon without a second
// bootstrap, never expose a torn snapshot (sampled horizons only ever
// move forward), and converge to the primary's final state.
func TestReplicaResumeWithoutRebootstrap(t *testing.T) {
	pdb, p, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	present := map[int]bool{}
	last := history(t, pc, rng, present, 5)

	rdb, r := startReplica(t, addr, "flaky", nil)
	waitHorizon(t, r, last)

	// Writer: 20 more snapshot groups, several statements each, while
	// the main goroutine severs the stream mid-flight.
	type result struct {
		last uint64
		err  error
	}
	res := make(chan result, 1)
	go func() {
		c := pdb.Conn()
		rng := rand.New(rand.NewSource(8))
		var last uint64
		for g := 0; g < 20; g++ {
			if err := c.Exec(`BEGIN`, nil); err != nil {
				res <- result{0, err}
				return
			}
			for n := 0; n < 6; n++ {
				k := rng.Intn(20)
				if err := c.Exec(fmt.Sprintf(
					`INSERT INTO m VALUES (%d, 'w%d', %d)`, k, g, rng.Intn(100)), nil); err != nil {
					res <- result{0, err}
					return
				}
			}
			id, err := c.DeclareSnapshot("w")
			if err != nil {
				res <- result{0, err}
				return
			}
			last = id
			time.Sleep(2 * time.Millisecond)
		}
		res <- result{last, nil}
	}()

	// Sever the stream a few times while the writer runs, watching that
	// the sampled horizon never regresses.
	prev := r.Horizon()
	for i := 0; i < 4; i++ {
		time.Sleep(8 * time.Millisecond)
		p.DisconnectAll()
		if h := r.Horizon(); h < prev {
			t.Fatalf("horizon went backwards: %d -> %d", prev, h)
		} else {
			prev = h
		}
	}
	wr := <-res
	if wr.err != nil {
		t.Fatal(wr.err)
	}
	waitHorizon(t, r, wr.last)

	st := r.Stats()
	if st.Bootstraps != 1 {
		t.Fatalf("replica re-bootstrapped: %d bootstraps, want 1 (reconnects=%d)", st.Bootstraps, st.Reconnects)
	}
	if st.Reconnects == 0 {
		t.Fatal("stream was severed but the replica recorded no reconnects")
	}
	rc := rdb.Conn()
	want := sortedRows(t, pc, `SELECT k, grp, v FROM m`)
	got := sortedRows(t, rc, `SELECT k, grp, v FROM m`)
	if strings.Join(want, ";") != strings.Join(got, ";") {
		t.Fatalf("after resume, rows differ:\nprimary: %v\nreplica: %v", want, got)
	}
}

// TestReplicaRestartResumes kills the replica process-style (Close,
// then a fresh Replica over the same database) and checks the restart
// resumes from the applied horizon instead of re-bootstrapping.
func TestReplicaRestartResumes(t *testing.T) {
	pdb, _, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	present := map[int]bool{}
	last := history(t, pc, rng, present, 6)

	rdb, r1 := startReplica(t, addr, "restart", nil)
	waitHorizon(t, r1, last)
	if st := r1.Stats(); st.Bootstraps != 1 {
		t.Fatalf("first instance bootstrapped %d times, want 1", st.Bootstraps)
	}
	r1.Close()

	// Progress on the primary while the replica is down.
	last = history(t, pc, rng, present, 6)

	_, r2 := startReplica(t, addr, "restart", rdb)
	waitHorizon(t, r2, last)
	if st := r2.Stats(); st.Bootstraps != 0 {
		t.Fatalf("restarted instance bootstrapped %d times, want 0 (resume)", st.Bootstraps)
	}
	rc := rdb.Conn()
	for _, q := range []string{
		`SELECT k, grp, v FROM m`,
		`SELECT snap_id, snap_ts, label FROM SnapIds`,
	} {
		want := sortedRows(t, pc, q)
		got := sortedRows(t, rc, q)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("after restart, %s differs:\nprimary: %v\nreplica: %v", q, want, got)
		}
	}
}

// TestRedirectRoundTrip pins that a redirect survives the wire: a
// remote client sees a RemoteError whose text still parses back to the
// primary's address.
func TestRedirectRoundTrip(t *testing.T) {
	err := repl.RedirectError("10.1.2.3:7427")
	remote := &wire.RemoteError{Msg: "server: " + err.Error()}
	addr, ok := repl.IsRedirect(remote)
	if !ok || addr != "10.1.2.3:7427" {
		t.Fatalf("IsRedirect(%q) = %q, %v", remote.Msg, addr, ok)
	}
	if _, ok := repl.IsRedirect(fmt.Errorf("some other error")); ok {
		t.Fatal("unrelated error classified as redirect")
	}
}

// TestReplicaBootstrapWithSealedSegments bootstraps a replica from a
// primary whose Pagelog is mostly sealed cold segments: the bootstrap
// ships the sealed prefix as verbatim segment blobs (one frame per
// segment) and only the unsealed tail as raw pages. Logical offsets
// are identical on both sides, so every AS OF answer matches, and the
// stream then resumes across further primary seals without a second
// bootstrap — sealing never invalidates a subscriber's position.
func TestReplicaBootstrapWithSealedSegments(t *testing.T) {
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
	rng := rand.New(rand.NewSource(42))
	present := map[int]bool{}
	last := history(t, pc, rng, present, 40)
	sealed, err := pdb.SealPagelog()
	if err != nil {
		t.Fatal(err)
	}
	if sealed == 0 {
		t.Fatal("history archived too little to seal; test is vacuous")
	}

	rdb, r := startReplica(t, addr, "cold", nil)
	waitHorizon(t, r, last)
	rc := rdb.Conn()

	// The replica holds real sealed segments, not a re-flattened copy.
	if rs := rdb.RetroStats(); rs.Segments == 0 {
		t.Errorf("replica installed no sealed segments: %+v", rs)
	}
	if pp, rp := pdb.PagelogPages(), rdb.PagelogPages(); pp != rp {
		t.Fatalf("pagelog lengths differ: primary %d, replica %d", pp, rp)
	}
	for snap := uint64(1); snap <= last; snap++ {
		q := fmt.Sprintf(`SELECT AS OF %d k, grp, v FROM m`, snap)
		want := sortedRows(t, pc, q)
		got := sortedRows(t, rc, q)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("AS OF %d differs:\nprimary: %v\nreplica: %v", snap, want, got)
		}
	}

	// Live tail across a new seal generation on the primary: offsets
	// are stable, so the subscriber's position survives sealing.
	last = history(t, pc, rng, present, 6)
	if _, err := pdb.SealPagelog(); err != nil {
		t.Fatal(err)
	}
	last = history(t, pc, rng, present, 6)
	waitHorizon(t, r, last)
	if st := r.Stats(); st.Bootstraps != 1 {
		t.Fatalf("sealing forced %d bootstraps, want 1", st.Bootstraps)
	}
	for snap := uint64(2); snap <= last; snap += 5 {
		q := fmt.Sprintf(`SELECT AS OF %d k, grp, v FROM m`, snap)
		want := sortedRows(t, pc, q)
		got := sortedRows(t, rc, q)
		if strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("AS OF %d after resume differs:\nprimary: %v\nreplica: %v", snap, want, got)
		}
	}
}

// waitView polls until the view exists on db with its refresh cursor at
// or past snap, failing fast on a wedged view.
func waitView(t *testing.T, db *rql.DB, name string, snap uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		for _, v := range db.Views() {
			if v.Name != name {
				continue
			}
			if v.LastError != "" {
				t.Fatalf("view %s: %s", name, v.LastError)
			}
			if v.LastSnap >= snap {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("view %s never reached snapshot %d: %+v", name, snap, db.Views())
}

// TestReplicatedRetroViews covers the view leg of the protocol: a view
// created before the replica connects ships in the bootstrap, one
// created after ships as a logical DDL event, both are maintained
// replica-side from shipped deltas to the same rows as the primary,
// drops propagate, and a replica restart over the same database resumes
// view maintenance from the views' cursors without re-bootstrapping.
func TestReplicatedRetroViews(t *testing.T) {
	pdb, _, addr := startPrimary(t)
	pc := pdb.Conn()
	mustExec(t, pc, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := pc.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, pc, `CREATE RETRO VIEW boot AS CollateData('SELECT k, grp, current_snapshot() AS sid FROM m')`)
	rng := rand.New(rand.NewSource(11))
	present := map[int]bool{}
	last := history(t, pc, rng, present, 8)

	rdb, r := startReplica(t, addr, "viewer", nil)
	rc := rdb.Conn()
	waitHorizon(t, r, last)
	// The pre-existing view arrived in the bootstrap and the replica
	// backfilled it locally from the shipped history.
	waitView(t, pdb, "boot", last)
	waitView(t, rdb, "boot", last)
	q := `SELECT k, grp, sid FROM boot`
	if want, got := sortedRows(t, pc, q), sortedRows(t, rc, q); strings.Join(want, ";") != strings.Join(got, ";") {
		t.Fatalf("bootstrapped view differs:\nprimary: %v\nreplica: %v", want, got)
	}

	// DDL while the stream is live ships as a logical event, in order
	// with the surrounding snapshot groups.
	mustExec(t, pc, `CREATE RETRO VIEW live AS AggregateDataInTable('SELECT grp, COUNT(*) AS c, AVG(v) AS av FROM m GROUP BY grp', '(c,max):(av,avg)')`)
	last = history(t, pc, rng, present, 8)
	waitHorizon(t, r, last)
	for _, name := range []string{"boot", "live"} {
		waitView(t, pdb, name, last)
		waitView(t, rdb, name, last)
	}
	for _, q := range []string{
		`SELECT k, grp, sid FROM boot`,
		`SELECT grp, c, round(av, 6) FROM live`,
	} {
		if want, got := sortedRows(t, pc, q), sortedRows(t, rc, q); strings.Join(want, ";") != strings.Join(got, ";") {
			t.Fatalf("%s differs:\nprimary: %v\nreplica: %v", q, want, got)
		}
	}

	// Drops propagate: the view and its result table disappear on the
	// replica too.
	mustExec(t, pc, `DROP RETRO VIEW live`)
	deadline := time.Now().Add(20 * time.Second)
	for {
		gone := true
		for _, v := range rdb.Views() {
			if v.Name == "live" {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped view still present on replica: %+v", rdb.Views())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := rc.Query(`SELECT * FROM live`); err == nil {
		t.Fatal("dropped view's result table still queryable on replica")
	}

	// Restart the replica over the same database: the stream resumes
	// from the applied horizon (no re-bootstrap) and view maintenance,
	// which the database kept running, resumes from each view's cursor —
	// no duplicates, no gaps.
	r.Close()
	last = history(t, pc, rng, present, 6)
	_, r2 := startReplica(t, addr, "viewer", rdb)
	waitHorizon(t, r2, last)
	if st := r2.Stats(); st.Bootstraps != 0 {
		t.Fatalf("restarted replica bootstrapped %d times, want 0 (resume)", st.Bootstraps)
	}
	waitView(t, pdb, "boot", last)
	waitView(t, rdb, "boot", last)
	if want, got := sortedRows(t, pc, q), sortedRows(t, rc, q); strings.Join(want, ";") != strings.Join(got, ";") {
		t.Fatalf("view after replica restart differs:\nprimary: %v\nreplica: %v", want, got)
	}
}

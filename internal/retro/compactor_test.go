package retro

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rql/internal/storage"
)

// sealAllOptions is the test geometry: tiny segments, no hot-tail
// reserve, and a background interval long enough that only explicit
// SealNow calls seal (deterministic tiering).
func sealAllOptions(segPages int) CompactionOptions {
	return CompactionOptions{SegmentPages: segPages, MinTailPages: -1, Interval: time.Hour}
}

// buildHistory archives pages by overwriting a small working set across
// many snapshots; returns the ids of every snapshot declared.
func buildSealHistory(t *testing.T, e *env, snapshots, pagesPerStep int) []SnapshotID {
	t.Helper()
	ids := make([]storage.PageID, pagesPerStep)
	var snaps []SnapshotID
	for s := 0; s < snapshots; s++ {
		vals := make([]byte, pagesPerStep)
		for i := range vals {
			vals[i] = byte(s + i)
		}
		snap, out := e.writePages(t, ids, vals, true)
		copy(ids, out)
		snaps = append(snaps, snap)
		// Overwrite after the declaration so the declared state is
		// archived (capture-on-first-modification).
		for i := range vals {
			vals[i] = byte(s + i + 100)
		}
		_, _ = e.writePages(t, ids, vals, false)
	}
	return snaps
}

func TestSegmentRoundtripAndDedup(t *testing.T) {
	// 40 slots drawn from 10 distinct page contents: dedup must store
	// each content once and the slot index must reproduce every slot.
	sb := newSegmentBuilder(0)
	var want []storage.PageData
	for i := 0; i < 40; i++ {
		var p storage.PageData
		for j := range p {
			p[j] = byte((i%10)*31 + j%7)
		}
		want = append(want, p)
		sb.add(&p)
	}
	blob, err := sb.encode()
	if err != nil {
		t.Fatal(err)
	}
	sg, err := parseSegmentMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	sg.file = blobFile(t, blob)
	if sg.slots != 40 {
		t.Fatalf("slots = %d, want 40", sg.slots)
	}
	if sg.nuniq != 10 {
		t.Fatalf("nuniq = %d, want 10 (dedup)", sg.nuniq)
	}
	if sg.diskBytes >= sg.logicalBytes() {
		t.Errorf("segment is not smaller than flat: %d disk vs %d logical", sg.diskBytes, sg.logicalBytes())
	}
	bc := newBlockCache()
	for i := range want {
		var got storage.PageData
		if _, _, err := sg.readPages(int64(i), 1, []*storage.PageData{&got}, bc); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("slot %d content mismatch", i)
		}
	}
}

func TestSegmentChecksumRejectsCorruption(t *testing.T) {
	sb := newSegmentBuilder(0)
	var p storage.PageData
	for j := range p {
		p[j] = byte(j)
	}
	sb.add(&p)
	blob, err := sb.encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseSegmentMeta(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	blob[len(blob)/2] ^= 0xff
	if _, err := parseSegmentMeta(blob); err == nil {
		t.Fatal("corrupted blob accepted")
	}
}

// TestSealedReadEquivalence is the core tiering property: sealing must
// not change a single byte any offset reads, on either backing.
func TestSealedReadEquivalence(t *testing.T) {
	for _, backing := range []string{"mem", "file"} {
		t.Run(backing, func(t *testing.T) {
			opts := Options{Compaction: sealAllOptions(8)}
			if backing == "file" {
				opts.PagelogPath = filepath.Join(t.TempDir(), "pagelog")
			}
			e := newEnv(t, opts)
			// 280 pages: the first seal's tail rotation copies a suffix
			// longer than its 256-page buffer.
			snaps := buildSealHistory(t, e, 70, 4)

			pl := e.sys.pl
			n := pl.size()
			if n < 16 {
				t.Fatalf("history too small to seal: %d pages", n)
			}
			before := make([]storage.PageData, n)
			for off := int64(0); off < n; off++ {
				if _, _, err := pl.read(off, &before[off]); err != nil {
					t.Fatalf("pre-seal read %d: %v", off, err)
				}
			}

			sealed, err := e.sys.SealNow()
			if err != nil {
				t.Fatal(err)
			}
			if sealed == 0 {
				t.Fatal("nothing sealed")
			}
			segs, sealedPages, tailPages := pl.tiers()
			if segs != sealed || sealedPages != int64(sealed*8) {
				t.Fatalf("tiers = (%d segs, %d pages), sealed %d segments", segs, sealedPages, sealed)
			}
			if sealedPages+tailPages != n {
				t.Fatalf("tiers do not cover the log: %d+%d != %d", sealedPages, tailPages, n)
			}

			for off := int64(0); off < n; off++ {
				var got storage.PageData
				if _, _, err := pl.read(off, &got); err != nil {
					t.Fatalf("post-seal read %d: %v", off, err)
				}
				if got != before[off] {
					t.Fatalf("offset %d changed after sealing", off)
				}
			}
			// Runs crossing segment/segment and segment/tail boundaries.
			for _, start := range []int64{0, 5, sealedPages - 3} {
				cnt := int(n - start)
				if cnt > 20 {
					cnt = 20
				}
				out, _, _, err := pl.readRun(start, cnt)
				if err != nil {
					t.Fatalf("readRun(%d,%d): %v", start, cnt, err)
				}
				for i, p := range out {
					if *p != before[start+int64(i)] {
						t.Fatalf("readRun slot %d+%d mismatch", start, i)
					}
				}
			}
			// Snapshot reads through the full stack, cold.
			e.sys.ResetCache()
			for i, snap := range snaps {
				r, err := e.sys.OpenSnapshot(snap)
				if err != nil {
					t.Fatalf("OpenSnapshot(%d): %v", snap, err)
				}
				r.Close()
				_ = i
			}
			logical, disk := pl.footprint()
			if logical != n*storage.PageSize {
				t.Fatalf("logical footprint = %d, want %d", logical, n*storage.PageSize)
			}
			if disk >= logical {
				t.Errorf("sealed footprint not smaller than flat: %d disk vs %d logical", disk, logical)
			}
		})
	}
}

// TestSnapshotValuesSurviveSealing checks real snapshot semantics (not
// just raw offsets) across sealing with a cold cache.
func TestSnapshotValuesSurviveSealing(t *testing.T) {
	e := newEnv(t, Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction:  sealAllOptions(8),
	})
	snap1, ids := e.writePages(t, []storage.PageID{0, 0}, []byte{1, 2}, true)
	a, b := ids[0], ids[1]
	e.writePages(t, []storage.PageID{a, b}, []byte{3, 4}, false)
	snap2, _ := e.writePages(t, []storage.PageID{a}, []byte{5}, true)
	e.writePages(t, []storage.PageID{a}, []byte{6}, false)
	buildSealHistory(t, e, 8, 3) // push the early captures deep enough to seal

	if _, err := e.sys.SealNow(); err != nil {
		t.Fatal(err)
	}
	e.sys.ResetCache()
	if got := readSnapPage(t, e.sys, snap1, a); got != 1 {
		t.Errorf("snap1 page a = %d, want 1", got)
	}
	if got := readSnapPage(t, e.sys, snap1, b); got != 2 {
		t.Errorf("snap1 page b = %d, want 2", got)
	}
	if got := readSnapPage(t, e.sys, snap2, a); got != 5 {
		t.Errorf("snap2 page a = %d, want 5", got)
	}
	st := e.sys.Stats()
	if st.SegmentSeals == 0 || st.SealedPages == 0 {
		t.Errorf("seal counters empty: %+v", st)
	}
}

// TestSealCrashSafety simulates a kill between the blob's .tmp write
// and its rename — the rename and the cleanup after it fail — on both
// backings: the seal fails, the synced .tmp stays behind, nothing is
// installed, reads are unaffected, and a reopen of the same name sweeps
// the .tmp and the sealed segments away and reads the archive it seals
// anew under those names.
func TestSealCrashSafety(t *testing.T) {
	eachBacking(t, func(t *testing.T, dir *faultFS) {
		opts := Options{Compaction: sealAllOptions(8)}
		store := storage.NewStore()
		sys, err := newSystem(store, opts, dir, "pagelog")
		if err != nil {
			t.Fatal(err)
		}
		e := &env{store: store, sys: sys}
		buildSealHistory(t, e, 12, 4)

		boom := errors.New("simulated crash")
		dir.failNext("Rename", ".seg-", boom)
		dir.failNext("Remove", ".tmp", boom)
		if _, err := sys.SealNow(); !errors.Is(err, boom) {
			t.Fatalf("SealNow error = %v, want injected crash", err)
		}
		if names, _ := dir.List("pagelog.seg-"); len(names) != 1 || !strings.HasSuffix(names[0], ".tmp") {
			t.Fatalf("segment files after simulated crash = %v, want one partial .tmp", names)
		}
		pl := sys.pl
		if segs, _, _ := pl.tiers(); segs != 0 {
			t.Fatalf("%d segments installed despite crash", segs)
		}
		var p storage.PageData
		if _, _, err := pl.read(0, &p); err != nil {
			t.Fatalf("read after failed seal: %v", err)
		}
		// A later seal succeeds and coexists with the leftover .tmp.
		if n, err := sys.SealNow(); err != nil || n == 0 {
			t.Fatalf("SealNow after crash = (%d, %v)", n, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen the same name: the archive starts empty and every stray
		// file of the previous incarnation — the .tmp, the sealed
		// segments and the rotated tail — is discarded.
		store2 := storage.NewStore()
		sys2, err := newSystem(store2, opts, dir, "pagelog")
		if err != nil {
			t.Fatal(err)
		}
		defer sys2.Close()
		if strays, _ := dir.List("pagelog."); len(strays) != 0 {
			t.Fatalf("reopen left stray files: %v", strays)
		}
		// The new archive seals under the swept names, and every declared
		// page reads back from the segment and the tail alike.
		e2 := &env{store: store2, sys: sys2}
		snaps := buildSealHistory(t, e2, 12, 4)
		if n, err := sys2.SealNow(); err != nil || n == 0 {
			t.Fatalf("SealNow after reopen = (%d, %v)", n, err)
		}
		if names, _ := dir.List("pagelog.seg-000000000000"); len(names) != 1 {
			t.Fatalf("segment files after reopen = %v, want the first segment's swept name", names)
		}
		for s, snap := range snaps {
			for i := 0; i < 4; i++ {
				if got := readSnapPage(t, sys2, snap, storage.PageID(i+1)); got != byte(s+i) {
					t.Fatalf("snapshot %d page %d after reopen = %d, want %d", snap, i+1, got, byte(s+i))
				}
			}
		}
	})
}

// TestSealPublishOrder pins a seal's file operations: the segment's
// .tmp is written and synced, renamed into place, and the rename made
// durable by a directory sync before the segment is opened and the tail
// rotated. A failed rename or directory sync fails the seal, installs
// nothing, leaves no segment file, and every offset reads as before.
func TestSealPublishOrder(t *testing.T) {
	eachBacking(t, func(t *testing.T, dir *faultFS) {
		e := newEnvIn(t, Options{Compaction: sealAllOptions(8)}, dir)
		buildSealHistory(t, e, 4, 3)
		pl := e.sys.pl
		n := pl.size()
		if n <= 8 {
			t.Fatalf("history of %d pages leaves no tail suffix to rotate", n)
		}
		before := make([]storage.PageData, n)
		for off := range before {
			if _, _, err := pl.read(int64(off), &before[off]); err != nil {
				t.Fatal(err)
			}
		}

		boom := errors.New("publish step failed")
		for _, step := range []string{"Rename", "SyncDir"} {
			dir.failNext(step, "", boom)
			if _, err := e.sys.sealOnce(); !errors.Is(err, boom) {
				t.Fatalf("seal with a failed %s: %v, want the failure", step, err)
			}
			if segs, _, _ := pl.tiers(); segs != 0 {
				t.Fatalf("failed %s installed %d segments", step, segs)
			}
			if names, _ := dir.List("pagelog.seg-"); len(names) != 0 {
				t.Fatalf("failed %s left segment files %v", step, names)
			}
			for off := range before {
				var got storage.PageData
				if _, _, err := pl.read(int64(off), &got); err != nil || got != before[off] {
					t.Fatalf("offset %d after a failed %s: err %v, equal %v", off, step, err, got == before[off])
				}
			}
		}

		dir.mutations()
		if sealed, err := e.sys.sealOnce(); err != nil || !sealed {
			t.Fatalf("seal = (%v, %v)", sealed, err)
		}
		const seg = "pagelog.seg-000000000000"
		want := []string{
			"Create " + seg + ".tmp",
			"WriteAt " + seg + ".tmp",
			"Sync " + seg + ".tmp",
			"Close " + seg + ".tmp",
			"Rename " + seg + ".tmp " + seg,
			"SyncDir",
			"Open " + seg,
			"Create pagelog.tail-000000000008",
			"WriteAt pagelog.tail-000000000008",
			"Close pagelog",
			"Remove pagelog",
		}
		if got := dir.mutations(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("seal operations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// TestSegmentReadFaultReachesGet fails a read of a sealed segment's
// file: the error reaches SnapshotReader.Get, nothing enters the block
// cache (a block is cached only after a good inflate), and the retry
// returns the original bytes.
func TestSegmentReadFaultReachesGet(t *testing.T) {
	eachBacking(t, func(t *testing.T, dir *faultFS) {
		e := newEnvIn(t, Options{Compaction: sealAllOptions(8)}, dir)
		snap, ids := e.writePages(t, []storage.PageID{0}, []byte{7}, true)
		e.writePages(t, ids, []byte{8}, false) // archives the 7 at offset 0
		buildSealHistory(t, e, 4, 3)
		if n, err := e.sys.SealNow(); err != nil || n == 0 {
			t.Fatalf("SealNow = (%d, %v)", n, err)
		}
		e.sys.ResetCache()

		boom := errors.New("segment read fault")
		dir.failNext("ReadAt", ".seg-", boom)
		r, err := e.sys.OpenSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Get(ids[0]); !errors.Is(err, boom) {
			t.Fatalf("Get over a failed segment read: %v, want the fault", err)
		}
		bc := e.sys.pl.bcache
		bc.mu.Lock()
		cached := len(bc.m)
		bc.mu.Unlock()
		if cached != 0 {
			t.Fatalf("%d blocks cached after a failed read, want 0", cached)
		}
		if p, err := r.Get(ids[0]); err != nil || p[0] != 7 {
			t.Fatalf("retry = (%v, %v), want 7", p, err)
		}
	})
}

// TestPagelogCloseFailsExport: ExportPagelog after Close — the
// replication bootstrap feeder racing a Close — returns ErrClosed on
// both backings instead of reading the released tail.
func TestPagelogCloseFailsExport(t *testing.T) {
	for _, path := range []string{"", filepath.Join(t.TempDir(), "pagelog")} {
		e := newEnv(t, Options{PagelogPath: path})
		_, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
		e.writePages(t, ids, []byte{2}, false)
		if pages, err := e.sys.ExportPagelog(0, 1); err != nil || pages[0][0] != 1 {
			t.Fatalf("path %q: export before Close = (%v, %v)", path, pages, err)
		}
		if err := e.sys.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.sys.ExportPagelog(0, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("path %q: export after Close: %v, want ErrClosed", path, err)
		}
	}
}

// TestPagelogCloseDiscardsStaged pins the teardown path: close during a
// staged group must drop the staged pages and leave staging mode, so
// the closed pagelog pins no page versions.
func TestPagelogCloseDiscardsStaged(t *testing.T) {
	pl, err := newPagelog(newMemFS(), "pagelog")
	if err != nil {
		t.Fatal(err)
	}
	pl.beginStage()
	var p storage.PageData
	if _, err := pl.append(&p); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.append(&p); err != nil {
		t.Fatal(err)
	}
	if pl.size() != 2 {
		t.Fatalf("size with staged pages = %d, want 2", pl.size())
	}
	if err := pl.close(); err != nil {
		t.Fatal(err)
	}
	if pl.staged != nil || pl.staging {
		t.Fatalf("close left staging state: staged=%v staging=%v", pl.staged, pl.staging)
	}
	if pl.size() != 0 {
		t.Fatalf("size after close = %d, want 0 (staged discarded)", pl.size())
	}
}

// TestCompactorSmoke races the background compactor (1ms interval,
// tiny segments) against a writer and snapshot readers, which check
// every page they read against the value its snapshot declared. Run
// under -race this is the tiering torture test `make check` wires in
// as compact-smoke.
func TestCompactorSmoke(t *testing.T) {
	e := newEnv(t, Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction: CompactionOptions{
			Enabled:      true,
			SegmentPages: 8,
			MinTailPages: -1,
			Interval:     time.Millisecond,
		},
	})
	var (
		mu    sync.Mutex
		snaps []SnapshotID
		page  storage.PageID          // the page every snapshot sets
		want  = map[SnapshotID]byte{} // page's value as of each snapshot
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: keeps declaring snapshots and overwriting pages.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := make([]storage.PageID, 4)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vals := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
			snap, out := e.writePages(t, ids, vals, true)
			copy(ids, out)
			mu.Lock()
			snaps = append(snaps, snap)
			page, want[snap] = ids[0], vals[0]
			mu.Unlock()
			_, _ = e.writePages(t, ids, []byte{byte(i + 9), byte(i + 8), byte(i + 7), byte(i + 6)}, false)
		}
	}()

	// Readers: open random snapshots and read through them.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				var snap SnapshotID
				if len(snaps) > 0 {
					snap = snaps[rng.Intn(len(snaps))]
				}
				id, v := page, want[snap]
				mu.Unlock()
				if snap == 0 {
					continue
				}
				r, err := e.sys.OpenSnapshot(snap)
				if err != nil {
					t.Errorf("OpenSnapshot(%d): %v", snap, err)
					return
				}
				p, err := r.Get(id)
				r.Close()
				if err != nil {
					t.Errorf("snapshot %d page %d: %v", snap, id, err)
					return
				}
				if p[0] != v {
					t.Errorf("snapshot %d page %d = %d, want %d", snap, id, p[0], v)
					return
				}
			}
		}(int64(w + 1))
	}

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := e.sys.Stats()
	if st.SegmentSeals == 0 {
		t.Error("background compactor never sealed a segment")
	}
	// The newest snapshots must still read correctly from a cold cache.
	mu.Lock()
	tail := append([]SnapshotID(nil), snaps[len(snaps)-2:]...)
	mu.Unlock()
	e.sys.ResetCache()
	for _, snap := range tail {
		r, err := e.sys.OpenSnapshot(snap)
		if err != nil {
			t.Fatalf("OpenSnapshot(%d) after smoke: %v", snap, err)
		}
		r.Close()
	}
}

// A lost group flush fails the system, and Close must still tear it
// down: stop the background compactor and close the Pagelog's files.
// Afterwards commits and opens report the failure, not a closed system.
func TestFailedSystemCloseTearsDown(t *testing.T) {
	dir := &faultFS{vfs: osFS{t.TempDir()}}
	e := newEnvIn(t, Options{
		Compaction: CompactionOptions{Enabled: true, SegmentPages: 8, MinTailPages: -1, Interval: time.Hour},
	}, dir)
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)

	// The next group write fails.
	dir.failNext("WriteAt", "", errors.New("device lost"))
	pl := e.sys.pl
	e.writePages(t, ids, []byte{2}, false) // captures snapshot's page: the flush fails

	wantFailed := func(op string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "system failed") {
			t.Errorf("%s on a failed system: %v, want the sticky failure", op, err)
		}
	}
	_, err := e.sys.OpenSnapshot(snap)
	wantFailed("OpenSnapshot", err)
	_, err = e.sys.OpenSnapshotSet([]SnapshotID{snap})
	wantFailed("OpenSnapshotSet", err)
	_, err = e.sys.Committing(nil, true, nil, 0)
	wantFailed("Committing", err)

	if err := e.sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-e.sys.compactDone:
	case <-time.After(200 * time.Millisecond):
		t.Error("background compactor still running after Close")
	}
	pl.mu.RLock()
	closed, tail := pl.closed, pl.tail
	pl.mu.RUnlock()
	if !closed || tail != nil {
		t.Errorf("Pagelog not torn down by Close: closed=%v tail=%v", closed, tail)
	}
	if _, err := e.sys.OpenSnapshot(snap); !errors.Is(err, ErrClosed) {
		t.Errorf("OpenSnapshot after Close: %v, want ErrClosed", err)
	}
}

// BenchmarkPagelogReadRun pins readRun's allocation behaviour: the
// slab layout costs 2 allocations per run (pages + pointer slice)
// instead of n+2, whatever the run length.
func BenchmarkPagelogReadRun(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pl, err := newPagelog(newMemFS(), "pagelog")
			if err != nil {
				b.Fatal(err)
			}
			var p storage.PageData
			for i := 0; i < 2*n; i++ {
				p[0] = byte(i)
				if _, err := pl.append(&p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := pl.readRun(int64(i%n), n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package retro

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
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
	sg.blob = blob
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
			snaps := buildSealHistory(t, e, 12, 4)

			pl := e.sys.pl.Load()
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
// and its rename: the seal fails, nothing is installed, reads are
// unaffected, and a reopen of the same path sweeps the partial file.
func TestSealCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pagelog")
	store := storage.NewStore()
	sys, err := New(store, Options{PagelogPath: path, Compaction: sealAllOptions(8)})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{store: store, sys: sys}
	buildSealHistory(t, e, 12, 4)

	boom := errors.New("simulated crash")
	pl := sys.pl.Load()
	pl.mu.Lock()
	pl.injectSealErr = boom
	pl.mu.Unlock()

	if _, err := sys.SealNow(); !errors.Is(err, boom) {
		t.Fatalf("SealNow error = %v, want injected crash", err)
	}
	tmps, _ := filepath.Glob(path + ".seg-*.tmp")
	if len(tmps) != 1 {
		t.Fatalf("%d partial .tmp files after simulated crash, want 1", len(tmps))
	}
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

	// Reopen the same path: the archive starts empty and every stray
	// file of the previous generation — the .tmp and the sealed
	// segments — is discarded.
	store2 := storage.NewStore()
	sys2, err := New(store2, Options{PagelogPath: path, Compaction: sealAllOptions(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	strays, _ := filepath.Glob(path + ".seg-*")
	tails, _ := filepath.Glob(path + ".tail-*")
	if len(strays)+len(tails) != 0 {
		t.Fatalf("reopen left stray files: %v %v", strays, tails)
	}
	e2 := &env{store: store2, sys: sys2}
	snaps := buildSealHistory(t, e2, 4, 2)
	if got := readSnapPage(t, sys2, snaps[0], 1); got != 0 {
		// Page ids restart in the fresh store; just prove reads work.
		_ = got
	}
}

func TestRetentionDropsWholeSegments(t *testing.T) {
	e := newEnv(t, Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction:  sealAllOptions(8),
	})
	snaps := buildSealHistory(t, e, 16, 4)
	if _, err := e.sys.SealNow(); err != nil {
		t.Fatal(err)
	}
	segsBefore, _, _ := e.sys.pl.Load().tiers()
	if segsBefore < 3 {
		t.Fatalf("only %d segments; geometry too coarse for the test", segsBefore)
	}

	// Nothing is droppable while every snapshot is retained.
	if n := e.sys.DropExpiredSegments(); n != 0 {
		t.Fatalf("dropped %d segments with full retention", n)
	}

	keep := snaps[len(snaps)-2]
	if err := e.sys.TruncateBefore(keep); err != nil {
		t.Fatal(err)
	}
	dropped := e.sys.DropExpiredSegments()
	if dropped == 0 {
		t.Fatal("retention retired most of history but no segment dropped")
	}
	st := e.sys.Stats()
	if st.RetentionDrops != uint64(dropped) || st.RetentionDroppedPages != uint64(dropped*8) {
		t.Errorf("drop counters = %d/%d, want %d/%d",
			st.RetentionDrops, st.RetentionDroppedPages, dropped, dropped*8)
	}
	segFiles, _ := filepath.Glob(e.sys.pl.Load().base + ".seg-*")
	segsAfter, _, _ := e.sys.pl.Load().tiers()
	if len(segFiles) != segsAfter {
		t.Errorf("%d segment files on disk, %d segments live", len(segFiles), segsAfter)
	}

	// A dropped offset reads as ErrBadOffset; retained snapshots read.
	var p storage.PageData
	if _, _, err := e.sys.pl.Load().read(0, &p); !errors.Is(err, ErrBadOffset) {
		t.Errorf("dropped offset read err = %v, want ErrBadOffset", err)
	}
	e.sys.ResetCache()
	r, err := e.sys.OpenSnapshot(keep)
	if err != nil {
		t.Fatalf("OpenSnapshot(retained): %v", err)
	}
	r.Close()
	if _, err := e.sys.OpenSnapshot(snaps[0]); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("truncated snapshot open err = %v, want ErrNoSnapshot", err)
	}
}

// TestRetentionDropBlockedByOpenReaders mirrors Compact's guard: a
// segment cannot vanish while any reader might still chase offsets.
func TestRetentionDropBlockedByOpenReaders(t *testing.T) {
	e := newEnv(t, Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction:  sealAllOptions(8),
	})
	snaps := buildSealHistory(t, e, 16, 4)
	if _, err := e.sys.SealNow(); err != nil {
		t.Fatal(err)
	}
	r, err := e.sys.OpenSnapshot(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.sys.TruncateBefore(snaps[len(snaps)-2]); err != nil {
		t.Fatal(err)
	}
	if n := e.sys.DropExpiredSegments(); n != 0 {
		t.Fatalf("dropped %d segments with an open reader", n)
	}
	r.Close()
	if n := e.sys.DropExpiredSegments(); n == 0 {
		t.Fatal("nothing dropped after the reader closed")
	}
}

// TestPagelogCloseDiscardsStaged pins the teardown path: close during a
// staged group must drop the staged pages and leave staging mode, so
// the closed pagelog pins no page versions.
func TestPagelogCloseDiscardsStaged(t *testing.T) {
	pl, err := newPagelog("")
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

// TestCompactOverTiers: the offset-remapping Compact must work when the
// surviving pages live in sealed segments, and produce a fresh flat
// generation with no leftover segment files.
func TestCompactOverTiers(t *testing.T) {
	e := newEnv(t, Options{
		PagelogPath: filepath.Join(t.TempDir(), "pagelog"),
		Compaction:  sealAllOptions(8),
	})
	snaps := buildSealHistory(t, e, 16, 4)
	if _, err := e.sys.SealNow(); err != nil {
		t.Fatal(err)
	}
	keep := snaps[len(snaps)-3]
	if err := e.sys.TruncateBefore(keep); err != nil {
		t.Fatal(err)
	}
	if _, err := e.sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if segs, _, _ := e.sys.pl.Load().tiers(); segs != 0 {
		t.Fatalf("compacted generation still has %d segments", segs)
	}
	e.sys.ResetCache()
	r, err := e.sys.OpenSnapshot(keep)
	if err != nil {
		t.Fatalf("OpenSnapshot after Compact: %v", err)
	}
	r.Close()
	// The new generation seals again without tripping on old files.
	buildSealHistory(t, e, 8, 4)
	if n, err := e.sys.SealNow(); err != nil || n == 0 {
		t.Fatalf("SealNow on compacted generation = (%d, %v)", n, err)
	}
}

// TestCompactorSmoke races the background compactor (1ms interval,
// tiny segments) against writers, snapshot readers, and retention.
// Run under -race this is the tiering torture test `make check` wires
// in as compact-smoke.
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
			mu.Unlock()
			_, _ = e.writePages(t, ids, []byte{byte(i + 9), byte(i + 8), byte(i + 7), byte(i + 6)}, false)
		}
	}()

	// Readers: open random retained snapshots and read through them.
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
				mu.Unlock()
				if snap == 0 {
					continue
				}
				r, err := e.sys.OpenSnapshot(snap)
				if err != nil {
					continue // possibly truncated meanwhile
				}
				r.Close()
			}
		}(int64(w + 1))
	}

	// Retention: periodically truncates to the recent half.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			mu.Lock()
			var keep SnapshotID
			if len(snaps) > 4 {
				keep = snaps[len(snaps)-3]
			}
			mu.Unlock()
			if keep != 0 {
				_ = e.sys.TruncateBefore(keep)
			}
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := e.sys.Stats()
	if st.SegmentSeals == 0 {
		t.Error("background compactor never sealed a segment")
	}
	// The newest retained snapshots must still read correctly.
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

// BenchmarkPagelogReadRun pins readRun's allocation behaviour: the
// slab layout costs 2 allocations per run (pages + pointer slice)
// instead of n+2, whatever the run length.
func BenchmarkPagelogReadRun(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pl, err := newPagelog("")
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

package retro

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"rql/internal/storage"
)

// naiveSPT is the reference first-mapping-wins scan over the raw
// (level 0) Maplog from snapshot s to the tail.
func naiveSPT(ml *maplog, s SnapshotID) map[storage.PageID]int64 {
	want := make(map[storage.PageID]int64)
	for _, e := range ml.entries {
		if e.snap >= s {
			if _, ok := want[e.page]; !ok {
				want[e.page] = e.off
			}
		}
	}
	return want
}

// checkSPT asserts an SPT resolves exactly the pages of want (and no
// page of the universe outside it).
func checkSPT(t *testing.T, label string, s SnapshotID, spt *SPT, want map[storage.PageID]int64, universe int) {
	t.Helper()
	if spt.Snap != s {
		t.Fatalf("%s snap %d: SPT.Snap = %d", label, s, spt.Snap)
	}
	if spt.Len() != len(want) {
		t.Fatalf("%s snap %d: SPT size %d, want %d", label, s, spt.Len(), len(want))
	}
	for p := storage.PageID(1); p <= storage.PageID(universe); p++ {
		got, ok := spt.Lookup(p)
		wantOff, wantOk := want[p]
		if ok != wantOk || (ok && got != wantOff) {
			t.Fatalf("%s snap %d page %d: got %d,%v want %d,%v", label, s, p, got, ok, wantOff, wantOk)
		}
	}
}

// naiveDelta is the reference delta: distinct pages with a raw Maplog
// tag in [lo, hi) — the pages whose content differs between snapshot
// lo and snapshot hi.
func naiveDelta(ml *maplog, lo, hi SnapshotID) map[storage.PageID]struct{} {
	want := make(map[storage.PageID]struct{})
	for _, e := range ml.entries {
		if e.snap >= lo && e.snap < hi {
			want[e.page] = struct{}{}
		}
	}
	return want
}

// checkDelta asserts deltas[i] matches the naive delta between set
// members i-1 and i (nil for the first member).
func checkDelta(t *testing.T, ml *maplog, ids []SnapshotID, deltas []map[storage.PageID]struct{}, i int) {
	t.Helper()
	if i == 0 {
		if deltas[0] != nil {
			t.Fatalf("deltas[0] = %v, want nil", deltas[0])
		}
		return
	}
	want := naiveDelta(ml, ids[i-1], ids[i])
	if len(deltas[i]) != len(want) {
		t.Fatalf("delta[%d] (snap %d vs %d): %d pages, want %d", i, ids[i-1], ids[i], len(deltas[i]), len(want))
	}
	for p := range want {
		if _, ok := deltas[i][p]; !ok {
			t.Fatalf("delta[%d] missing page %d", i, p)
		}
	}
}

// randomMaplog builds a Maplog with random captures across count
// declared snapshots over a page universe of size universe.
func randomMaplog(factor int, seed int64, count, universe, maxPerSnap int) *maplog {
	ml := newMaplog(factor)
	r := rand.New(rand.NewSource(seed))
	var off int64
	for s := 1; s <= count; s++ {
		ml.declare()
		for n := r.Intn(maxPerSnap + 1); n > 0; n-- {
			ml.append(SnapshotID(s), storage.PageID(r.Intn(universe)+1), off)
			off++
		}
	}
	return ml
}

// The tentpole property: for every snapshot of randomized capture
// workloads, the Skippy buildSPT, the naive level-0 scan, and the new
// batch builder agree exactly.
func TestBatchSPTEquivalence(t *testing.T) {
	const universe = 12
	for _, factor := range []int{2, 3, 4} {
		ml := randomMaplog(factor, int64(factor)*101, 60, universe, 6)
		r := rand.New(rand.NewSource(int64(factor)))
		last := ml.lastSnap()

		all := make([]SnapshotID, last)
		for i := range all {
			all[i] = SnapshotID(i + 1)
		}
		sets := [][]SnapshotID{{1}, {last}, {1, last}, all}
		for k := 0; k < 10; k++ {
			var ids []SnapshotID
			for s := SnapshotID(1); s <= last; s++ {
				if r.Intn(3) == 0 {
					ids = append(ids, s)
				}
			}
			if len(ids) == 0 {
				ids = append(ids, SnapshotID(r.Intn(int(last))+1))
			}
			sets = append(sets, ids)
		}

		for _, ids := range sets {
			spts, deltas, err := ml.buildSPTBatch(ids, ml.len0())
			if err != nil {
				t.Fatalf("factor %d: buildSPTBatch(%v): %v", factor, ids, err)
			}
			for i, s := range ids {
				want := naiveSPT(ml, s)
				checkSPT(t, "batch", s, spts[i], want, universe)
				single, err := ml.buildSPT(s, ml.len0())
				if err != nil {
					t.Fatal(err)
				}
				checkSPT(t, "skippy", s, single, want, universe)
				checkDelta(t, ml, ids, deltas, i)
			}
		}
	}
}

func TestBatchSPTAroundRetentionFloor(t *testing.T) {
	const universe = 10
	ml := randomMaplog(4, 17, 50, universe, 5)
	keep := SnapshotID(23)
	ml.truncateBefore(keep)

	// Truncated members are rejected, naming the floor.
	if _, _, err := ml.buildSPTBatch([]SnapshotID{keep - 1, keep}, ml.len0()); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("batch across the floor: %v", err)
	}
	// At and above the floor, all three builders still agree.
	var ids []SnapshotID
	for s := keep; s <= ml.lastSnap(); s += 3 {
		ids = append(ids, s)
	}
	spts, deltas, err := ml.buildSPTBatch(ids, ml.len0())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ids {
		want := naiveSPT(ml, s)
		checkSPT(t, "batch", s, spts[i], want, universe)
		single, err := ml.buildSPT(s, ml.len0())
		if err != nil {
			t.Fatal(err)
		}
		checkSPT(t, "skippy", s, single, want, universe)
		checkDelta(t, ml, ids, deltas, i)
	}
}

func TestBatchSPTInputValidation(t *testing.T) {
	ml := randomMaplog(4, 3, 10, 5, 3)
	if _, _, err := ml.buildSPTBatch(nil, ml.len0()); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty set: %v", err)
	}
	if _, _, err := ml.buildSPTBatch([]SnapshotID{0}, ml.len0()); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("snapshot 0: %v", err)
	}
	if _, _, err := ml.buildSPTBatch([]SnapshotID{ml.lastSnap() + 1}, ml.len0()); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("future snapshot: %v", err)
	}
}

// The batch sweep must scan strictly fewer Maplog entries than the sum
// of the per-member builds it replaces (the shared ranges are walked
// once) — the ISSUE's acceptance criterion at the maplog level.
func TestBatchScanStrictlyLowerThanPerIteration(t *testing.T) {
	ml := randomMaplog(4, 29, 80, 16, 6)
	var ids []SnapshotID
	for s := SnapshotID(1); s <= ml.lastSnap(); s += 2 {
		ids = append(ids, s)
	}
	spts, _, err := ml.buildSPTBatch(ids, ml.len0())
	if err != nil {
		t.Fatal(err)
	}
	batch := 0
	for _, spt := range spts {
		batch += spt.Scanned
	}
	sum := 0
	for _, s := range ids {
		single, err := ml.buildSPT(s, ml.len0())
		if err != nil {
			t.Fatal(err)
		}
		sum += single.Scanned
	}
	if batch >= sum {
		t.Errorf("batch scanned %d entries, per-iteration sum %d — batch must be strictly lower", batch, sum)
	}
}

func TestSnapshotSetEndToEnd(t *testing.T) {
	e := newEnv(t, Options{SkipFactor: 3})
	// Build a history where every snapshot sees a distinct value of page a.
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	a := ids[0]
	var snaps []SnapshotID
	snaps = append(snaps, s1)
	for i := 2; i <= 9; i++ {
		s, _ := e.writePages(t, []storage.PageID{a}, []byte{byte(i)}, true)
		snaps = append(snaps, s)
	}
	e.writePages(t, []storage.PageID{a}, []byte{100}, false)

	// Duplicates and reversed order are tolerated.
	req := []SnapshotID{snaps[6], snaps[0], snaps[3], snaps[0]}
	set, err := e.sys.OpenSnapshotSet(req)
	if err != nil {
		t.Fatal(err)
	}
	got := set.Snapshots()
	wantIDs := []SnapshotID{snaps[0], snaps[3], snaps[6]}
	if len(got) != len(wantIDs) {
		t.Fatalf("Snapshots() = %v, want %v", got, wantIDs)
	}
	for i := range wantIDs {
		if got[i] != wantIDs[i] {
			t.Fatalf("Snapshots() = %v, want %v", got, wantIDs)
		}
	}
	if !set.Contains(snaps[3]) || set.Contains(snaps[1]) {
		t.Error("Contains misreports membership")
	}

	// Each member reads its own as-of state through the set.
	for i, s := range wantIDs {
		r, err := set.Open(s)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		want := byte([]int{1, 4, 7}[i])
		if p[0] != want {
			t.Errorf("snap %d sees %d, want %d", s, p[0], want)
		}
		r.Close() // must not release the set's pinned read tx
	}
	// Non-members are rejected without falling back to a fresh build.
	if _, err := set.Open(snaps[1]); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Open(non-member): %v", err)
	}

	// The set counts as one open reader: Compact refuses while open.
	if _, err := e.sys.Compact(); !errors.Is(err, ErrReadersActive) {
		t.Errorf("Compact with open set: %v", err)
	}
	set.Close()
	set.Close() // idempotent
	if _, err := set.Open(wantIDs[0]); !errors.Is(err, ErrReaderClosed) {
		t.Errorf("Open after Close: %v", err)
	}
	if _, err := e.sys.Compact(); err != nil {
		t.Errorf("Compact after set close: %v", err)
	}

	st := e.sys.Stats()
	if st.SPTBatchBuilds != 1 || st.BatchSnapshots != 3 || st.BatchMapScanned == 0 {
		t.Errorf("batch stats: %+v", st)
	}
}

// Readers opened from a set keep OpenSnapshot's pin-then-scan
// semantics: a writer committing while the set is open must not change
// what the members see.
func TestSnapshotSetConsistentDespiteConcurrentWriter(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0, 0}, []byte{1, 2}, true)
	a, b := ids[0], ids[1]
	set, err := e.sys.OpenSnapshotSet([]SnapshotID{snap})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	e.writePages(t, []storage.PageID{a, b}, []byte{50, 60}, false)
	r, err := set.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := r.Get(a)
	pb, _ := r.Get(b)
	if pa[0] != 1 || pb[0] != 2 {
		t.Errorf("set reader saw %d,%d during concurrent update, want 1,2", pa[0], pb[0])
	}
}

// Parallel workers share one immutable SPT set and the sharded page
// cache; run with -race. Workers repeatedly open members, read pages,
// and close readers while the cache churns.
func TestSnapshotSetSharedAcrossWorkersRace(t *testing.T) {
	e := newEnv(t, Options{CachePages: 4096})
	_, ids := e.writePages(t, []storage.PageID{0, 0, 0, 0}, []byte{1, 2, 3, 4}, true)
	var snaps []SnapshotID
	for i := 0; i < 16; i++ {
		s, _ := e.writePages(t, ids, []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}, true)
		snaps = append(snaps, s)
	}
	e.writePages(t, ids, []byte{90, 91, 92, 93}, false)

	set, err := e.sys.OpenSnapshotSet(snaps)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				s := snaps[(w+round)%len(snaps)]
				r, err := set.Open(s)
				if err != nil {
					errCh <- err
					return
				}
				for _, id := range ids {
					if _, err := r.Get(id); err != nil {
						errCh <- err
						return
					}
				}
				r.Close()
				if round%10 == 9 {
					e.sys.ResetCache()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// Cached pages are handed out as shared pointers; the read-only
// contract (documented on SnapshotReader.Get) is what keeps every
// reader of a shared pre-state correct. This regression test pins the
// aliasing behaviour: same offset ⇒ same pointer, and the content must
// survive repeated reads from different readers.
func TestCachedPageAliasingReadOnly(t *testing.T) {
	e := newEnv(t, Options{})
	// One captured pre-state shared by two snapshots.
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{7}, true)
	a := ids[0]
	s2, _ := e.writePages(t, []storage.PageID{0}, []byte{50}, true) // unrelated page
	e.writePages(t, []storage.PageID{a}, []byte{8}, false)

	e.sys.ResetCache()
	r1, err := e.sys.OpenSnapshot(s1)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := e.sys.OpenSnapshot(s2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	p1, err := r1.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same pre-state from two readers returned distinct copies %p %p — cache sharing broken", p1, p2)
	}
	if p1[0] != 7 {
		t.Fatalf("shared pre-state = %d, want 7", p1[0])
	}
	// A third read must still see the original content: nothing in the
	// read path may have mutated the shared page.
	p3, _ := r1.Get(a)
	if p3[0] != 7 {
		t.Fatalf("shared pre-state mutated to %d", p3[0])
	}
}

func TestPagelogReadRun(t *testing.T) {
	for _, backed := range []bool{false, true} {
		opts := Options{}
		if backed {
			opts.PagelogPath = filepath.Join(t.TempDir(), "pagelog")
		}
		e := newEnv(t, opts)
		// Capture four consecutive pre-states.
		_, ids := e.writePages(t, []storage.PageID{0, 0, 0, 0}, []byte{1, 2, 3, 4}, true)
		e.writePages(t, ids, []byte{11, 12, 13, 14}, false)

		pages, physBytes, _, err := e.sys.pl.Load().readRun(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if physBytes != 4*storage.PageSize {
			t.Errorf("backed=%v flat run physBytes = %d, want %d", backed, physBytes, 4*storage.PageSize)
		}
		for i, p := range pages {
			if p[0] != byte(i+1) {
				t.Errorf("backed=%v run[%d] = %d, want %d", backed, i, p[0], i+1)
			}
		}
		if _, _, _, err := e.sys.pl.Load().readRun(2, 3); !errors.Is(err, ErrBadOffset) {
			t.Errorf("out-of-range run: %v", err)
		}
		if _, _, _, err := e.sys.pl.Load().readRun(0, 0); !errors.Is(err, ErrBadOffset) {
			t.Errorf("empty run: %v", err)
		}
		boom := errors.New("disk gone")
		e.sys.InjectPagelogReadError(boom)
		if _, _, _, err := e.sys.pl.Load().readRun(0, 2); !errors.Is(err, boom) {
			t.Errorf("injected error not surfaced: %v", err)
		}
	}
}

func TestPageCacheSharding(t *testing.T) {
	// Large capacity spreads across multiple shards…
	big := newPageCache(16384)
	if len(big.shards) != maxShards {
		t.Errorf("16384-page cache uses %d shards, want %d", len(big.shards), maxShards)
	}
	// …while small capacities stay single-sharded (strict LRU, as
	// TestCacheEviction requires) and disabled caches stay disabled.
	small := newPageCache(16)
	if len(small.shards) != 1 {
		t.Errorf("16-page cache uses %d shards, want 1", len(small.shards))
	}
	mk := func(b byte) *storage.PageData {
		p := new(storage.PageData)
		p[0] = b
		return p
	}
	// Fill across shards; every offset reads back from its shard.
	for off := int64(0); off < 1000; off++ {
		big.put(off, mk(byte(off)))
	}
	if big.len() != 1000 {
		t.Errorf("len = %d, want 1000", big.len())
	}
	for off := int64(0); off < 1000; off++ {
		if p := big.get(off); p == nil || p[0] != byte(off) {
			t.Fatalf("get(%d) = %v", off, p)
		}
	}
	if big.get(1000) != nil {
		t.Error("get returns a page for an absent offset")
	}
	big.reset()
	if big.len() != 0 {
		t.Error("reset failed")
	}

	// Concurrent churn across shards (run with -race).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				off := int64((w*500 + i) % 600)
				big.put(off, mk(byte(off)))
				big.get(off)
			}
		}(w)
	}
	wg.Wait()
}

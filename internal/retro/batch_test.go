package retro

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"rql/internal/obs"
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

// checkSPT asserts an SPT resolves exactly the pages of want: every
// page id of the universe, resolved or absent, looks up as the naive
// model says.
func checkSPT(t *testing.T, label string, s SnapshotID, spt *SPT, want map[storage.PageID]int64, universe int) {
	t.Helper()
	if spt.Snap != s {
		t.Fatalf("%s snap %d: SPT.Snap = %d", label, s, spt.Snap)
	}
	for p := storage.PageID(0); p <= storage.PageID(universe)+1; p++ {
		got, ok := spt.Lookup(p)
		wantOff, wantOk := want[p]
		if ok != wantOk || (ok && got != wantOff) {
			t.Fatalf("%s snap %d page %d: got %d,%v want %d,%v", label, s, p, got, ok, wantOff, wantOk)
		}
	}
}

// openSPT builds SPT(s) over the whole Maplog the way an open does.
func openSPT(ml *maplog, s SnapshotID) *SPT {
	var h hashed
	return ml.buildSPT(s, ml.tail(&h), &h)
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

// randomSystem is a snapshot system whose Maplog is randomMaplog's:
// the SPT builds read only the Maplog, so opens over it resolve pages
// exactly as over a recorded history (its pages are never read).
func randomSystem(t testing.TB, factor int, seed int64, count, universe, maxPerSnap int) *System {
	e := newEnv(t, Options{SkipFactor: factor})
	e.sys.ml = randomMaplog(factor, seed, count, universe, maxPerSnap)
	return e.sys
}

// For every member of random snapshot sets over randomized capture
// workloads, the set open, a single open and the naive level-0 scan
// agree exactly — while the opens share their segment tables, and the
// latest snapshot's segment is still open.
func TestBatchSPTEquivalence(t *testing.T) {
	const universe = 12
	for _, factor := range []int{2, 3, 4} {
		sys := randomSystem(t, factor, int64(factor)*101, 60, universe, 6)
		ml := sys.ml
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

		for k, ids := range sets {
			if k%3 == 2 {
				sys.ResetCache()
			}
			set, err := sys.OpenSnapshotSet(ids)
			if err != nil {
				t.Fatalf("factor %d: OpenSnapshotSet(%v): %v", factor, ids, err)
			}
			for _, s := range ids {
				want := naiveSPT(ml, s)
				checkSPT(t, "set", s, set.spts[s], want, universe)
				single, err := sys.OpenSnapshot(s)
				if err != nil {
					t.Fatal(err)
				}
				checkSPT(t, "single", s, single.spt, want, universe)
				single.Close()
			}
			set.Close()
		}
	}
}

func TestBatchSPTInputValidation(t *testing.T) {
	sys := randomSystem(t, 4, 3, 10, 5, 3)
	if _, err := sys.OpenSnapshotSet(nil); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := sys.OpenSnapshotSet([]SnapshotID{0}); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("snapshot 0: %v", err)
	}
	if _, err := sys.OpenSnapshotSet([]SnapshotID{1, sys.LastSnapshot() + 1}); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("future snapshot: %v", err)
	}
	if st := sys.Stats(); st.SPTTablesBuilt != 0 || st.SPTBatchBuilds != 0 {
		t.Errorf("rejected opens built tables or counted sets: %+v", st)
	}
}

// An open of a set, then single opens of its members, hash no segment
// twice: the set's open hashes its members' covers, and each repeat
// open hashes only the open tail. A reset makes the next open pay its
// Skippy hashing again.
func TestSetAndSingleOpensShareSegmentTables(t *testing.T) {
	sys := randomSystem(t, 4, 29, 80, 16, 6)
	ml := sys.ml
	openTail := ml.len0() - ml.segStart[ml.lastSnap()]
	if openTail == 0 {
		t.Fatal("history has no open tail to account")
	}
	var ids []SnapshotID
	for s := SnapshotID(1); s <= ml.lastSnap(); s += 2 {
		ids = append(ids, s)
	}
	set, err := sys.OpenSnapshotSet(ids)
	if err != nil {
		t.Fatal(err)
	}
	set.Close()
	built := sys.Stats().SPTTablesBuilt
	if set.Scanned <= openTail || built == 0 {
		t.Fatalf("set open hashed %d entries in %d tables, open tail is %d", set.Scanned, built, openTail)
	}
	for _, s := range ids {
		r, err := sys.OpenSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if r.Counters.MapScanned != openTail {
			t.Errorf("repeat open of %d hashed %d entries, want the open tail's %d", s, r.Counters.MapScanned, openTail)
		}
	}
	if got := sys.Stats().SPTTablesBuilt; got != built {
		t.Errorf("single opens hashed %d more tables", got-built)
	}
	// After a reset, the first open of S hashes its whole cover, exactly
	// as a set open of S alone on a fresh system would.
	sys.ResetCache()
	first, err := sys.OpenSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	fresh := randomSystem(t, 4, 29, 80, 16, 6)
	alone, err := fresh.OpenSnapshotSet([]SnapshotID{1})
	if err != nil {
		t.Fatal(err)
	}
	alone.Close()
	if first.Counters.MapScanned != alone.Scanned || alone.Scanned <= openTail {
		t.Errorf("first open of 1 after a reset hashed %d entries, a fresh set open %d", first.Counters.MapScanned, alone.Scanned)
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

	set.Close()
	set.Close() // idempotent
	if _, err := set.Open(wantIDs[0]); !errors.Is(err, ErrReaderClosed) {
		t.Errorf("Open after Close: %v", err)
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
	eachBacking(t, func(t *testing.T, dir *faultFS) {
		e := newEnvIn(t, Options{}, dir)
		// Capture four consecutive pre-states.
		_, ids := e.writePages(t, []storage.PageID{0, 0, 0, 0}, []byte{1, 2, 3, 4}, true)
		e.writePages(t, ids, []byte{11, 12, 13, 14}, false)

		pages, physBytes, _, err := e.sys.pl.readRun(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if physBytes != 4*storage.PageSize {
			t.Errorf("flat run physBytes = %d, want %d", physBytes, 4*storage.PageSize)
		}
		for i, p := range pages {
			if p[0] != byte(i+1) {
				t.Errorf("run[%d] = %d, want %d", i, p[0], i+1)
			}
		}
		if _, _, _, err := e.sys.pl.readRun(2, 3); !errors.Is(err, ErrBadOffset) {
			t.Errorf("out-of-range run: %v", err)
		}
		if _, _, _, err := e.sys.pl.readRun(0, 0); !errors.Is(err, ErrBadOffset) {
			t.Errorf("empty run: %v", err)
		}
		boom := errors.New("disk gone")
		dir.failNext("ReadAt", "", boom)
		if _, _, _, err := e.sys.pl.readRun(0, 2); !errors.Is(err, boom) {
			t.Errorf("injected error not surfaced: %v", err)
		}
	})
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

// The shared segment tables are bounded without eviction: each Maplog
// entry is hashed into at most one level-0 table and one table per
// Skippy level, so after every snapshot of a random history has been
// opened — singly and as one set — the retro_spt_table_entries gauge
// is at most (levels + 1) × Maplog entries, and it equals what the
// slots hold. ResetCache drops them all: the gauge reads 0, and opening
// everything again rebuilds the same tables.
func TestSPTTableEntriesGauge(t *testing.T) {
	for _, factor := range []int{2, 4} {
		sys := randomSystem(t, factor, int64(factor)*7, 90, 40, 8)
		ml := sys.ml
		openAll := func() {
			var all []SnapshotID
			for s := SnapshotID(1); s <= ml.lastSnap(); s++ {
				r, err := sys.OpenSnapshot(s)
				if err != nil {
					t.Fatal(err)
				}
				r.Close()
				all = append(all, s)
			}
			set, err := sys.OpenSnapshotSet(all)
			if err != nil {
				t.Fatal(err)
			}
			set.Close()
		}
		held := func() (n uint64) {
			for _, slot := range ml.tables0[1:] {
				if tb := slot.t.Load(); tb != nil {
					n += uint64(len(tb.loc))
				}
			}
			for _, level := range ml.levels {
				for _, seg := range level {
					if tb := seg.table.t.Load(); tb != nil {
						n += uint64(len(tb.loc))
					}
				}
			}
			return n
		}

		openAll()
		st := sys.Stats()
		bound := uint64((len(ml.levels) + 1) * ml.len0())
		if st.SPTTableEntries == 0 || st.SPTTableEntries != held() || st.SPTTableEntries > bound {
			t.Errorf("factor %d: gauge %d, slots hold %d, bound (%d levels + 1) × %d entries = %d",
				factor, st.SPTTableEntries, held(), len(ml.levels), ml.len0(), bound)
		}
		if m, ok := obs.Find(sys.Metrics(), "retro_spt_table_entries"); !ok || m.Value != st.SPTTableEntries {
			t.Errorf("factor %d: metric list reports %+v, want the gauge %d", factor, m, st.SPTTableEntries)
		}
		sys.ResetCache()
		if got := sys.Stats().SPTTableEntries; got != 0 || held() != 0 {
			t.Errorf("factor %d: after ResetCache the gauge reads %d and the slots hold %d, want 0", factor, got, held())
		}
		openAll()
		if again := sys.Stats(); again.SPTTableEntries != st.SPTTableEntries || again.SPTTablesBuilt != 2*st.SPTTablesBuilt {
			t.Errorf("factor %d: reopening after a reset built %d tables holding %d entries, first time %d holding %d",
				factor, again.SPTTablesBuilt-st.SPTTablesBuilt, again.SPTTableEntries, st.SPTTablesBuilt, st.SPTTableEntries)
		}
	}
}

// BenchmarkOpenSnapshot times a warm standalone open — the shared
// segment tables already built, so an open stacks them and hashes only
// the open tail — of an old and of a recent snapshot of a 120-snapshot
// history with ~25 captures per snapshot. allocs/op is the open's
// garbage: the SPT, its table stack, the tail's table and the pin.
func BenchmarkOpenSnapshot(b *testing.B) {
	sys := randomSystem(b, 4, 1, 120, 2000, 50)
	for _, tc := range []struct {
		name string
		snap SnapshotID
	}{{"old", 1}, {"recent", sys.LastSnapshot() - 3}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := sys.OpenSnapshot(tc.snap)
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}

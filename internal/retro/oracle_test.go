package retro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rql/internal/storage"
)

// The delta oracle against its specification, over random Maplogs with
// quiet snapshots: for random pairs (a, b) and page sets R,
//   - ok is false exactly when a is 0, b <= a, or b is not declared;
//   - otherwise unchanged holds exactly when R misses naiveDelta(a, b),
//     having tested every entry tagged [a, b) when it does;
//   - and unchanged implies the as-of-a and as-of-b page tables resolve
//     every page of R alike.
func TestUnchangedMatchesNaiveDelta(t *testing.T) {
	const universe = 12
	for _, factor := range []int{2, 3, 4} {
		// Up to 3 captures per snapshot: about one snapshot in four is quiet.
		ml := randomMaplog(factor, int64(factor)*31, 70, universe, 3)
		last := ml.lastSnap()
		r := rand.New(rand.NewSource(int64(factor)))
		for k := 0; k < 3000; k++ {
			a := SnapshotID(r.Intn(int(last) + 2))
			b := SnapshotID(r.Intn(int(last) + 2))
			if k%2 == 0 && a < last { // bias toward short, valid gaps
				b = a + 1 + SnapshotID(r.Intn(3))
			}
			readSet := make(map[storage.PageID]struct{})
			for n := r.Intn(5); n > 0; n-- {
				readSet[storage.PageID(r.Intn(universe)+1)] = struct{}{}
			}

			ok, unchanged, examined := ml.unchanged(a, b, readSet)
			wantOK := a >= 1 && b > a && b <= last
			if ok != wantOK {
				t.Fatalf("factor %d: unchanged(%d, %d): ok = %v, want %v (last %d)", factor, a, b, ok, wantOK, last)
			}
			if !ok {
				if unchanged || examined != 0 {
					t.Fatalf("factor %d: unchanged(%d, %d) not ok but answered %v after %d entries", factor, a, b, unchanged, examined)
				}
				continue
			}
			delta := naiveDelta(ml, a, b)
			disjoint := true
			for p := range readSet {
				if _, hit := delta[p]; hit {
					disjoint = false
				}
			}
			if unchanged != disjoint {
				t.Fatalf("factor %d: unchanged(%d, %d, %v) = %v, naive delta %v", factor, a, b, readSet, unchanged, delta)
			}
			if entries := ml.segStart[b] - ml.segStart[a]; examined > entries || (unchanged && examined != entries) {
				t.Fatalf("factor %d: unchanged(%d, %d) examined %d of %d entries", factor, a, b, examined, entries)
			}
			if !unchanged {
				continue
			}
			sa, sb := naiveSPT(ml, a), naiveSPT(ml, b)
			for p := range readSet {
				offA, inA := sa[p]
				offB, inB := sb[p]
				if inA != inB || offA != offB {
					t.Fatalf("factor %d: unchanged(%d, %d) but page %d resolves to %d,%v vs %d,%v", factor, a, b, p, offA, inA, offB, inB)
				}
			}
		}
	}
}

// One oracle check allocates nothing, hit or miss.
func TestUnchangedAllocatesNothing(t *testing.T) {
	e := newEnv(t, Options{})
	_, ids := e.writePages(t, []storage.PageID{0, 0, 0}, []byte{1, 2, 3}, true)
	for i := 0; i < 8; i++ {
		e.writePages(t, ids[:1+i%3], []byte{byte(i), byte(i), byte(i)}, true)
	}
	last := e.sys.LastSnapshot()
	miss := map[storage.PageID]struct{}{ids[2] + 100: {}}
	hit := map[storage.PageID]struct{}{ids[2]: {}}
	for _, tc := range []struct {
		name      string
		readSet   map[storage.PageID]struct{}
		unchanged bool
	}{{"miss", miss, true}, {"hit", hit, false}} {
		ok, unchanged, _ := e.sys.Unchanged(1, last, tc.readSet)
		if !ok || unchanged != tc.unchanged {
			t.Fatalf("%s: Unchanged(1, %d) = %v, %v, want true, %v", tc.name, last, ok, unchanged, tc.unchanged)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.sys.Unchanged(1, last, tc.readSet) }); allocs != 0 {
			t.Errorf("%s: one check allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// SPT builds and oracle checks share the Maplog lock as readers, and
// exclude the writer; the segment tables opens publish are shared with
// no lock at all: run with -race. Reader goroutines open single
// snapshots and sets over overlapping members, read them and ask the
// oracle, while the test goroutine commits across Skippy level
// boundaries (each commit taking the Maplog lock exclusively, every
// other one leaving an open tail) and a further goroutine keeps
// dropping the tables with ResetCache. Every open must resolve every
// page id as the naive first-mapping-wins scan over its own pinned
// Maplog prefix does.
func TestConcurrentBuildsAndChecks(t *testing.T) {
	e := newEnv(t, Options{SkipFactor: 4})
	_, ids := e.writePages(t, []storage.PageID{0, 0, 0}, []byte{1, 1, 1}, true)
	a, b, c := ids[0], ids[1], ids[2] // a changes at every snapshot, b never again, c between snapshots
	const snapshots, workers = 40, 4  // past the level-1 (4) and level-2 (16) boundaries
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// prefix returns the Maplog's entries and segment starts so far:
	// appends never write below a slice's length, so the prefix stays
	// valid after the lock is released.
	prefix := func() ([]mapEntry, []int) {
		e.sys.mu.RLock()
		defer e.sys.mu.RUnlock()
		ml := e.sys.ml
		return ml.entries[:len(ml.entries):len(ml.entries)], ml.segStart[:len(ml.segStart):len(ml.segStart)]
	}
	// checkSPT holds spt to the naive scan from s over the prefix the
	// open pinned, which lies between before and after (entries are
	// only appended): a page the shorter prefix resolves must resolve
	// alike, a page the longer one does not must stay unresolved, and a
	// page in between may only resolve to the longer prefix's offset.
	checkSPT := func(s SnapshotID, spt *SPT, before, after []mapEntry, segStart []int) error {
		lo, hi := naivePrefix(s, before, segStart), naivePrefix(s, after, segStart)
		for p := storage.PageID(0); p <= c+1; p++ {
			got, ok := spt.Lookup(p)
			wantLo, inLo := lo[p]
			wantHi, inHi := hi[p]
			switch {
			case inLo && (!ok || got != wantLo),
				!inHi && ok,
				inHi && ok && got != wantHi:
				return fmt.Errorf("snapshot %d page %d: got %d,%v; naive %d,%v at the open, %d,%v after", s, p, got, ok, wantLo, inLo, wantHi, inHi)
			}
		}
		return nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stopped() {
				last := e.sys.LastSnapshot()
				if last < 2 {
					continue
				}
				if ok, unchanged, _ := e.sys.Unchanged(last-1, last, map[storage.PageID]struct{}{a: {}}); !ok || unchanged {
					t.Errorf("Unchanged(%d, %d, {a}) = %v, %v, want true, false", last-1, last, ok, unchanged)
					return
				}
				if ok, unchanged, _ := e.sys.Unchanged(1, last, map[storage.PageID]struct{}{b: {}}); !ok || !unchanged {
					t.Errorf("Unchanged(1, %d, {b}) = %v, %v, want true, true", last, ok, unchanged)
					return
				}
				// Overlapping members: every set holds last/2 and last.
				members := []SnapshotID{last / 2, last, SnapshotID(rng.Intn(int(last)) + 1), SnapshotID(rng.Intn(int(last)) + 1)}
				before, _ := prefix()
				set, err := e.sys.OpenSnapshotSet(members)
				if err != nil {
					t.Error(err)
					return
				}
				after, segStart := prefix()
				for _, s := range set.Snapshots() {
					r, err := set.Open(s)
					if err == nil {
						if err = checkSPT(s, r.spt, before, after, segStart); err == nil {
							var p *storage.PageData
							if p, err = r.Get(a); err == nil && p[0] != byte(s) {
								err = fmt.Errorf("snapshot %d: page a = %d", s, p[0])
							}
						}
						r.Close()
					}
					if err != nil {
						t.Error(err)
					}
				}
				set.Close()
				s := members[2]
				before, _ = prefix()
				r, err := e.sys.OpenSnapshot(s)
				if err != nil {
					t.Error(err)
					continue
				}
				after, segStart = prefix()
				if err := checkSPT(s, r.spt, before, after, segStart); err != nil {
					t.Error(err)
				}
				r.Close()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			e.sys.ResetCache()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for s := 2; s <= snapshots; s++ {
		e.writePages(t, []storage.PageID{c}, []byte{byte(s)}, false)
		e.writePages(t, []storage.PageID{a}, []byte{byte(s)}, true)
	}
	close(stop)
	wg.Wait()
}

// naivePrefix is the reference first-mapping-wins scan from snapshot s
// over a Maplog prefix.
func naivePrefix(s SnapshotID, entries []mapEntry, segStart []int) map[storage.PageID]int64 {
	want := make(map[storage.PageID]int64)
	for _, e := range entries[min(segStart[s], len(entries)):] {
		if _, ok := want[e.page]; !ok {
			want[e.page] = e.off
		}
	}
	return want
}

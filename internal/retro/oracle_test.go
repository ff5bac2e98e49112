package retro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

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
// exclude the writer: run with -race. Reader goroutines build sets and
// single SPTs, read them and ask the oracle while the test goroutine
// commits snapshots, each commit taking the Maplog lock exclusively.
func TestConcurrentBuildsAndChecks(t *testing.T) {
	e := newEnv(t, Options{})
	_, ids := e.writePages(t, []storage.PageID{0, 0}, []byte{1, 1}, true)
	a, b := ids[0], ids[1] // a changes at every snapshot, b never again
	const snapshots, workers = 40, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
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
				set, err := e.sys.OpenSnapshotSet([]SnapshotID{1, last / 2, last})
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range set.Snapshots() {
					r, err := set.Open(s)
					if err == nil {
						var p *storage.PageData
						if p, err = r.Get(a); err == nil && p[0] != byte(s) {
							err = fmt.Errorf("snapshot %d: page a = %d", s, p[0])
						}
						r.Close()
					}
					if err != nil {
						t.Error(err)
					}
				}
				set.Close()
				if r, err := e.sys.OpenSnapshot(last); err != nil {
					t.Error(err)
				} else {
					r.Close()
				}
			}
		}()
	}
	for s := 2; s <= snapshots; s++ {
		e.writePages(t, []storage.PageID{a}, []byte{byte(s)}, true)
	}
	close(stop)
	wg.Wait()
}

package retro

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rql/internal/storage"
)

// archivePages commits one snapshot over n fresh pages (page i holds
// byte i+1) and then overwrites all of them, so every pre-state is
// archived: n cold pages at n distinct Pagelog offsets.
func archivePages(t *testing.T, e *env, n int) (SnapshotID, []storage.PageID) {
	t.Helper()
	vals := make([]byte, n)
	for i := range vals {
		vals[i] = byte(i + 1)
	}
	snap, ids := e.writePages(t, make([]storage.PageID, n), vals, true)
	e.writePages(t, ids, make([]byte, n), false)
	return snap, ids
}

// waitInService returns once n demand reads are registered in the miss
// table. With the Pagelog's lock held by the caller, that is n reads
// parked just before their Pagelog read.
func waitInService(sys *System, n int) {
	for {
		sys.missMu.Lock()
		k := len(sys.missing)
		sys.missMu.Unlock()
		if k == n {
			return
		}
		runtime.Gosched()
	}
}

// One way into the cache, one billing rule: however many lanes demand a
// cold page at once, the lane that fills it bills the page's one
// PagelogRead and everyone else — joiners of the in-service miss and
// later readers alike — bills a CacheHit. So over a cache that holds
// the whole set, the summed PagelogReads are exactly the distinct
// Pagelog offsets touched, and each is one device read.
func TestDemandReadBillsEachPageOnce(t *testing.T) {
	const (
		pages = 12
		snaps = 12
		lanes = 8
	)
	e := newEnv(t, Options{CachePages: 4096})
	vals := make([]byte, pages)
	_, ids := e.writePages(t, make([]storage.PageID, pages), vals, false)
	// Snapshot i precedes a write to every third page, so consecutive
	// members share most of their pre-states; the closing overwrite
	// archives every page, leaving nothing to the current database.
	var members []SnapshotID
	for i := 0; i < snaps; i++ {
		var touch []storage.PageID
		for p, id := range ids {
			if (p+i)%3 == 0 {
				touch = append(touch, id)
			}
		}
		s, _ := e.writePages(t, touch, make([]byte, len(touch)), true)
		members = append(members, s)
	}
	e.writePages(t, ids, vals, false)

	set, err := e.sys.OpenSnapshotSet(members)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	offsets := make(map[int64]bool)
	for _, s := range members {
		for _, id := range ids {
			if off, ok := set.spts[s].Lookup(id); ok {
				offsets[off] = true
			}
		}
	}

	var (
		mu                 sync.Mutex
		pagelogReads, hits int
		wg                 sync.WaitGroup
	)
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range members {
				r, err := set.Open(members[(i+w)%len(members)])
				if err != nil {
					t.Error(err)
					return
				}
				for _, id := range ids {
					if _, err := r.Get(id); err != nil {
						t.Errorf("Get(%d): %v", id, err)
					}
				}
				r.Close()
				mu.Lock()
				pagelogReads += r.Counters.PagelogReads
				hits += r.Counters.CacheHits
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(offsets) == 0 || pagelogReads != len(offsets) || hits != lanes*snaps*pages-len(offsets) {
		t.Errorf("readers billed %d PagelogReads and %d CacheHits over %d distinct offsets, want %d and %d",
			pagelogReads, hits, len(offsets), len(offsets), lanes*snaps*pages-len(offsets))
	}
	if st := e.sys.Stats(); int(st.PagelogReads) != pagelogReads || int(st.DeviceReads) != pagelogReads {
		t.Errorf("system billed %d reads over %d device reads, readers %d",
			st.PagelogReads, st.DeviceReads, pagelogReads)
	}
}

// Misses of one cold page that arrive while its read is in service join
// that read instead of issuing another. The test holds the Pagelog's
// lock so the first miss cannot finish until every lane has asked for
// the page; on release the page has been read once — one device read,
// one billed PagelogRead, and a CacheHit for every other lane.
func TestDemandReadJoinersShareOneRead(t *testing.T) {
	const lanes = 8
	e := newEnv(t, Options{})
	snap, ids := archivePages(t, e, 1)
	set, err := e.sys.OpenSnapshotSet([]SnapshotID{snap})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	readers := make([]*SnapshotReader, lanes)
	for i := range readers {
		if readers[i], err = set.Open(snap); err != nil {
			t.Fatal(err)
		}
	}

	pl := e.sys.pl
	pl.mu.Lock()
	var started, done sync.WaitGroup
	for _, r := range readers {
		started.Add(1)
		done.Add(1)
		go func(r *SnapshotReader) {
			defer done.Done()
			started.Done()
			if p, err := r.Get(ids[0]); err != nil || p[0] != 1 {
				t.Errorf("Get: %v, %v", p, err)
			}
		}(r)
	}
	started.Wait()
	// Release only once a lane holds the page's read in service, so the
	// lanes still arriving find it in the miss table.
	waitInService(e.sys, 1)
	pl.mu.Unlock()
	done.Wait()

	var pagelogReads, hits int
	for _, r := range readers {
		pagelogReads += r.Counters.PagelogReads
		hits += r.Counters.CacheHits
		r.Close()
	}
	if st := e.sys.Stats(); st.DeviceReads != 1 || pagelogReads != 1 || hits != lanes-1 {
		t.Errorf("%d lanes on one cold page: %d device reads, %d PagelogReads, %d CacheHits; want 1, 1, %d",
			lanes, st.DeviceReads, pagelogReads, hits, lanes-1)
	}
}

// One failed device read fails exactly one Pagelog read, however many
// lanes miss at once, on both backings: concurrent reads hold only the
// Pagelog's read lock, and no lane inherits another's error. The test
// parks every lane's miss on the Pagelog's lock and releases them
// together, so the reads that race for the fault are truly concurrent.
func TestInjectedReadErrorFailsOneConcurrentRead(t *testing.T) {
	eachBacking(t, testInjectedReadErrorFailsOneConcurrentRead)
}

func testInjectedReadErrorFailsOneConcurrentRead(t *testing.T, dir *faultFS) {
	const lanes = 8
	e := newEnvIn(t, Options{}, dir)
	snap, ids := archivePages(t, e, lanes)
	set, err := e.sys.OpenSnapshotSet([]SnapshotID{snap})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	boom := errors.New("injected read error")
	dir.failNext("ReadAt", "", boom)
	pl := e.sys.pl
	pl.mu.Lock()
	var failed atomic.Int32
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id storage.PageID) {
			defer wg.Done()
			r, err := set.Open(snap)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			if _, err := r.Get(id); errors.Is(err, boom) {
				failed.Add(1)
			} else if err != nil {
				t.Errorf("Get(%d): %v", id, err)
			}
		}(id)
	}
	waitInService(e.sys, lanes)
	pl.mu.Unlock()
	wg.Wait()
	if n := failed.Load(); n != 1 {
		t.Errorf("%d of %d concurrent cold reads failed with the injected error, want exactly 1", n, lanes)
	}
}

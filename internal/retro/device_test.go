package retro

import (
	"sync"
	"testing"
	"time"

	"rql/internal/storage"
)

// archiveScattered commits one snapshot over 2n fresh pages and then
// overwrites all of them, so every pre-state is archived. Pages are
// archived in order, giving contiguous Pagelog offsets; callers that
// need fragmented device commands (one per page instead of one
// coalesced run) fetch every other page.
func archiveScattered(t *testing.T, e *env, n int) (SnapshotID, []storage.PageID) {
	t.Helper()
	ids := make([]storage.PageID, 2*n)
	vals := make([]byte, 2*n)
	for i := range vals {
		vals[i] = byte(i + 1)
	}
	snap, out := e.writePages(t, ids, vals, true)
	for i := range vals {
		vals[i] = byte(i + 101)
	}
	e.writePages(t, out, vals, false)
	every := make([]storage.PageID, 0, n)
	for i := 0; i < 2*n; i += 2 {
		every = append(every, out[i])
	}
	return snap, every
}

// At queue depth K, K concurrent demand reads overlap their service
// latency: total wall time is a small multiple of one latency, not K
// of them, and the device counters record the overlap.
func TestDeviceDepthOverlapsReads(t *testing.T) {
	const lat = 25 * time.Millisecond
	e := newEnv(t, Options{SleepOnRead: true, SimulatedReadLatency: lat, DeviceQueueDepth: 8})
	snap, pages := archiveScattered(t, e, 8)

	start := time.Now()
	var wg sync.WaitGroup
	for _, id := range pages {
		wg.Add(1)
		go func(id storage.PageID) {
			defer wg.Done()
			r, err := e.sys.OpenSnapshot(snap)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			if _, err := r.Get(id); err != nil {
				t.Errorf("Get(%d): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	wall := time.Since(start)

	// Serial service would cost 8 x 25ms = 200ms; at depth 8 the reads
	// overlap into roughly one latency. 150ms leaves room for scheduler
	// noise while still proving the overlap.
	if wall >= 150*time.Millisecond {
		t.Errorf("8 concurrent reads at depth 8 took %v, want well under the 200ms serial cost", wall)
	}
	st := e.sys.Stats()
	if st.DeviceReads < 8 {
		t.Errorf("DeviceReads = %d, want >= 8", st.DeviceReads)
	}
	if st.OverlappedReads == 0 {
		t.Error("OverlappedReads = 0, want overlap at depth 8")
	}
	if st.DeviceQueueDepth != 8 {
		t.Errorf("DeviceQueueDepth = %d, want 8", st.DeviceQueueDepth)
	}
}

// Depth 1 is the strictly serial device of paper-replication mode:
// concurrent reads queue behind each other and never overlap.
func TestDeviceDepthOneSerializes(t *testing.T) {
	const lat = 10 * time.Millisecond
	e := newEnv(t, Options{SleepOnRead: true, SimulatedReadLatency: lat, DeviceQueueDepth: 1})
	snap, pages := archiveScattered(t, e, 4)

	start := time.Now()
	var wg sync.WaitGroup
	for _, id := range pages {
		wg.Add(1)
		go func(id storage.PageID) {
			defer wg.Done()
			r, err := e.sys.OpenSnapshot(snap)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			if _, err := r.Get(id); err != nil {
				t.Errorf("Get(%d): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	wall := time.Since(start)

	if wall < 4*lat {
		t.Errorf("4 concurrent reads at depth 1 took %v, want >= %v (serial)", wall, 4*lat)
	}
	if st := e.sys.Stats(); st.OverlappedReads != 0 {
		t.Errorf("OverlappedReads = %d at depth 1, want 0", st.OverlappedReads)
	}
}

// The device's queue is FIFO: at depth 1, commands complete in arrival
// order.
func TestDeviceFIFOFairness(t *testing.T) {
	const lat = 20 * time.Millisecond
	e := newEnv(t, Options{SleepOnRead: true, SimulatedReadLatency: lat, DeviceQueueDepth: 1})
	archiveScattered(t, e, 3) // offsets 0..5 now exist

	const n = 6
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	// Hold the one slot while the commands arrive, a few milliseconds
	// apart so each is queued before the next is issued.
	e.sys.dev.slots <- struct{}{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := e.sys.dev.read(int64(i), nil); err != nil {
				t.Errorf("command %d: %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i)
		time.Sleep(5 * time.Millisecond)
	}
	<-e.sys.dev.slots
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want FIFO 0..%d", order, n-1)
		}
	}
}

// Busy time accumulates real service time: n commands at latency L
// must record at least n x L of device busy time, and each demand read
// is exactly one command.
func TestDeviceBusyAccounting(t *testing.T) {
	const lat = 5 * time.Millisecond
	e := newEnv(t, Options{SleepOnRead: true, SimulatedReadLatency: lat, DeviceQueueDepth: 2})
	snap, pages := archiveScattered(t, e, 4)

	r, err := e.sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range pages {
		if _, err := r.Get(id); err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
	}
	st := e.sys.Stats()
	if st.DeviceReads != 4 {
		t.Errorf("DeviceReads = %d, want 4", st.DeviceReads)
	}
	if got, want := time.Duration(st.DeviceBusyNS), 4*lat; got < want {
		t.Errorf("DeviceBusyNS = %v, want >= %v", got, want)
	}
	if st.OverlappedReads != 0 {
		t.Errorf("OverlappedReads = %d for sequential demand reads, want 0", st.OverlappedReads)
	}
	// The logical accounting is device-independent: four demand misses.
	if r.Counters.PagelogReads != 4 {
		t.Errorf("PagelogReads = %d, want 4", r.Counters.PagelogReads)
	}
}

// One way into the cache, one billing rule: however many lanes demand a
// cold page at once, the lane that fills it bills the page's one
// PagelogRead and everyone else — joiners of the in-service miss and
// later readers alike — bills a CacheHit. So over a cache that holds
// the whole set, the summed PagelogReads are exactly the distinct
// Pagelog offsets touched, at any queue depth.
func TestDemandReadBillsEachPageOnce(t *testing.T) {
	const (
		pages = 12
		snaps = 12
		lanes = 8
	)
	type sums struct{ pagelogReads, cacheHits, dbReads, distinct int }
	run := func(depth int) sums {
		e := newEnv(t, Options{CachePages: 4096, DeviceQueueDepth: depth,
			SleepOnRead: true, SimulatedReadLatency: 100 * time.Microsecond})
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
			mu    sync.Mutex
			total = sums{distinct: len(offsets)}
			wg    sync.WaitGroup
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
					total.pagelogReads += r.Counters.PagelogReads
					total.cacheHits += r.Counters.CacheHits
					total.dbReads += r.Counters.DBReads
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if st := e.sys.Stats(); int(st.PagelogReads) != total.pagelogReads || int(st.DeviceReads) != total.pagelogReads {
			t.Errorf("depth %d: system billed %d reads over %d device commands, readers %d",
				depth, st.PagelogReads, st.DeviceReads, total.pagelogReads)
		}
		return total
	}
	var first sums
	for i, depth := range []int{1, 8} {
		got := run(depth)
		want := sums{pagelogReads: got.distinct, cacheHits: lanes*snaps*pages - got.distinct, distinct: got.distinct}
		if got != want || got.distinct == 0 {
			t.Errorf("depth %d: %+v, want %+v", depth, got, want)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("depth %d billed %+v, depth 1 billed %+v", depth, got, first)
		}
	}
}

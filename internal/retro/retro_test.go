package retro

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"rql/internal/storage"
)

// env couples a store with a snapshot system for tests.
type env struct {
	store *storage.Store
	sys   *System
}

func newEnv(t testing.TB, opts Options) *env {
	t.Helper()
	s := storage.NewStore()
	sys, err := New(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return &env{store: s, sys: sys}
}

// writePages commits one transaction setting pages[i] = vals[i],
// declaring a snapshot when declare is set. Pages are allocated on
// first use (id 0 in ids requests allocation and the new id is written
// back).
func (e *env) writePages(t *testing.T, ids []storage.PageID, vals []byte, declare bool) (SnapshotID, []storage.PageID) {
	t.Helper()
	tx, err := e.store.Begin()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]storage.PageID, len(ids))
	for i, id := range ids {
		if id == 0 {
			id, err = tx.Allocate()
			if err != nil {
				t.Fatal(err)
			}
		}
		out[i] = id
		p, err := tx.GetMut(id)
		if err != nil {
			t.Fatal(err)
		}
		for k := range p {
			p[k] = vals[i]
		}
	}
	if declare {
		snap, err := tx.CommitWithSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		return SnapshotID(snap), out
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return 0, out
}

func readSnapPage(t *testing.T, sys *System, snap SnapshotID, id storage.PageID) byte {
	t.Helper()
	r, err := sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatalf("OpenSnapshot(%d): %v", snap, err)
	}
	defer r.Close()
	p, err := r.Get(id)
	if err != nil {
		t.Fatalf("snapshot %d page %d: %v", snap, id, err)
	}
	return p[0]
}

func TestSnapshotBasics(t *testing.T) {
	e := newEnv(t, Options{})
	// Snapshot 1: page A = 1 (snapshot includes the declaring tx).
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	a := ids[0]
	if s1 != 1 {
		t.Fatalf("first snapshot id = %d", s1)
	}
	// Modify A twice; declare snapshot 2 at the second modification.
	e.writePages(t, []storage.PageID{a}, []byte{2}, false)
	s2, _ := e.writePages(t, []storage.PageID{a}, []byte{3}, true)
	// Modify A again so snapshot 2 is also archived.
	e.writePages(t, []storage.PageID{a}, []byte{4}, false)

	if got := readSnapPage(t, e.sys, s1, a); got != 1 {
		t.Errorf("snapshot 1 sees %d, want 1", got)
	}
	if got := readSnapPage(t, e.sys, s2, a); got != 3 {
		t.Errorf("snapshot 2 sees %d, want 3", got)
	}
}

func TestSnapshotSharesUnmodifiedPagesWithCurrentDB(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0, 0}, []byte{10, 20}, true)
	a, b := ids[0], ids[1]
	// Modify only page a afterwards.
	e.writePages(t, []storage.PageID{a}, []byte{11}, false)

	r, err := e.sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pa, _ := r.Get(a)
	pb, _ := r.Get(b)
	if pa[0] != 10 || pb[0] != 20 {
		t.Fatalf("snapshot reads %d,%d want 10,20", pa[0], pb[0])
	}
	if r.Counters.PagelogReads != 1 {
		t.Errorf("PagelogReads = %d, want 1 (only the modified page)", r.Counters.PagelogReads)
	}
	if r.Counters.DBReads != 1 {
		t.Errorf("DBReads = %d, want 1 (the shared page)", r.Counters.DBReads)
	}
}

func TestFirstModificationWinsSingleCapture(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	a := ids[0]
	// Three modifications after the declaration: only the first is captured.
	e.writePages(t, []storage.PageID{a}, []byte{2}, false)
	e.writePages(t, []storage.PageID{a}, []byte{3}, false)
	e.writePages(t, []storage.PageID{a}, []byte{4}, false)
	if n := e.sys.PagelogPages(); n != 1 {
		t.Errorf("Pagelog holds %d pages, want 1", n)
	}
	if got := readSnapPage(t, e.sys, snap, a); got != 1 {
		t.Errorf("snapshot sees %d, want 1", got)
	}
}

func TestPreStateSharedByConsecutiveSnapshots(t *testing.T) {
	e := newEnv(t, Options{})
	// Declare snapshots 1 and 2 with no modification of page a between
	// them: the single captured pre-state serves both.
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	a := ids[0]
	s2, _ := e.writePages(t, []storage.PageID{0}, []byte{99}, true) // unrelated page
	e.writePages(t, []storage.PageID{a}, []byte{2}, false)

	if got := readSnapPage(t, e.sys, s1, a); got != 1 {
		t.Errorf("snapshot 1 sees %d", got)
	}
	if got := readSnapPage(t, e.sys, s2, a); got != 1 {
		t.Errorf("snapshot 2 sees %d", got)
	}
	// Both reads resolve to the same Pagelog offset: second is a cache hit.
	e.sys.ResetCache()
	r1, _ := e.sys.OpenSnapshot(s1)
	r1.Get(a)
	if r1.Counters.PagelogReads != 1 {
		t.Errorf("cold read: PagelogReads=%d", r1.Counters.PagelogReads)
	}
	r1.Close()
	r2, _ := e.sys.OpenSnapshot(s2)
	r2.Get(a)
	if r2.Counters.CacheHits != 1 || r2.Counters.PagelogReads != 0 {
		t.Errorf("shared pre-state not served from cache: %+v", r2.Counters)
	}
	r2.Close()
}

func TestOpenSnapshotErrors(t *testing.T) {
	e := newEnv(t, Options{})
	if _, err := e.sys.OpenSnapshot(1); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("no snapshots yet: %v", err)
	}
	e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	if _, err := e.sys.OpenSnapshot(0); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("snapshot 0: %v", err)
	}
	if _, err := e.sys.OpenSnapshot(2); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("future snapshot: %v", err)
	}
}

func TestSnapshotLSN(t *testing.T) {
	e := newEnv(t, Options{})
	s1, _ := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	lsn1, err := e.sys.SnapshotLSN(s1)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 != e.store.LSN() {
		t.Errorf("snapshot LSN %d, store LSN %d", lsn1, e.store.LSN())
	}
	if _, err := e.sys.SnapshotLSN(99); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("bad id: %v", err)
	}
}

func TestSnapshotUnaffectedByLaterFreeAndReuse(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{7}, true)
	a := ids[0]

	// Free page a, then reuse it with different content.
	tx, _ := e.store.Begin()
	tx.Free(a)
	tx.Commit()
	_, ids2 := e.writePages(t, []storage.PageID{0}, []byte{8}, false)
	if ids2[0] != a {
		t.Fatalf("expected reuse of %d", a)
	}

	if got := readSnapPage(t, e.sys, snap, a); got != 7 {
		t.Errorf("snapshot sees %d after free+reuse, want 7", got)
	}
}

func TestSnapshotConsistentDespiteConcurrentWriter(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0, 0}, []byte{1, 2}, true)
	a, b := ids[0], ids[1]

	r, err := e.sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Writer modifies both pages while the snapshot reader is open.
	// The reader's SPT has no mapping for them (no captures yet), so it
	// reads "shared" pages — MVCC pinning must give the old state.
	e.writePages(t, []storage.PageID{a, b}, []byte{50, 60}, false)

	pa, _ := r.Get(a)
	pb, _ := r.Get(b)
	if pa[0] != 1 || pb[0] != 2 {
		t.Errorf("snapshot reader saw %d,%d during concurrent update, want 1,2", pa[0], pb[0])
	}
}

func TestPagelogFileBacked(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, Options{PagelogPath: filepath.Join(dir, "pagelog")})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{42}, true)
	e.writePages(t, []storage.PageID{ids[0]}, []byte{43}, false)
	e.sys.ResetCache()
	if got := readSnapPage(t, e.sys, snap, ids[0]); got != 42 {
		t.Errorf("file-backed pagelog read %d, want 42", got)
	}
}

func TestPagelogReadErrorSurfaces(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	e.writePages(t, []storage.PageID{ids[0]}, []byte{2}, false)
	e.sys.ResetCache()

	boom := errors.New("disk gone")
	e.sys.InjectPagelogReadError(boom)
	r, _ := e.sys.OpenSnapshot(snap)
	defer r.Close()
	if _, err := r.Get(ids[0]); !errors.Is(err, boom) {
		t.Errorf("injected error not surfaced: %v", err)
	}
	// Retry succeeds (error was transient) and content is intact.
	p, err := r.Get(ids[0])
	if err != nil || p[0] != 1 {
		t.Errorf("retry: %v %v", p, err)
	}
}

func TestReaderClosed(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	r, _ := e.sys.OpenSnapshot(snap)
	r.Close()
	r.Close() // idempotent
	if _, err := r.Get(ids[0]); !errors.Is(err, ErrReaderClosed) {
		t.Errorf("read after close: %v", err)
	}
}

func TestReaderIsReadOnly(t *testing.T) {
	e := newEnv(t, Options{})
	snap, _ := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	r, _ := e.sys.OpenSnapshot(snap)
	defer r.Close()
	if _, err := r.GetMut(1); !errors.Is(err, storage.ErrReadOnly) {
		t.Error("GetMut should fail")
	}
	if _, err := r.Allocate(); !errors.Is(err, storage.ErrReadOnly) {
		t.Error("Allocate should fail")
	}
	if err := r.Free(1); !errors.Is(err, storage.ErrReadOnly) {
		t.Error("Free should fail")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newPageCache(2)
	mk := func(b byte) *storage.PageData {
		p := new(storage.PageData)
		p[0] = b
		return p
	}
	c.put(1, mk(1))
	c.put(2, mk(2))
	c.get(1) // touch 1 so 2 is LRU
	c.put(3, mk(3))
	if p := c.get(2); p != nil {
		t.Error("LRU entry not evicted")
	}
	p1 := c.get(1)
	p3 := c.get(3)
	if p1 == nil || p3 == nil {
		t.Error("hot entries evicted")
	}
	c.put(1, mk(9)) // overwrite in place
	if p := c.get(1); p[0] != 9 {
		t.Error("overwrite failed")
	}
	c.reset()
	if c.len() != 0 {
		t.Error("reset failed")
	}
	// Disabled cache accepts nothing.
	d := newPageCache(-1)
	d.put(1, mk(1))
	if p := d.get(1); p != nil {
		t.Error("disabled cache stored a page")
	}
}

// Randomized history: every declared snapshot must reproduce the exact
// page states recorded at declaration time, across random writes,
// frees, reallocations and snapshot declarations.
func TestSnapshotRandomizedHistoryCorrectness(t *testing.T) {
	e := newEnv(t, Options{SkipFactor: 3})
	r := rand.New(rand.NewSource(7))

	// Live pages and their current first byte.
	live := make(map[storage.PageID]byte)
	tx, _ := e.store.Begin()
	for i := 0; i < 12; i++ {
		id, _ := tx.Allocate()
		p, _ := tx.GetMut(id)
		p[0] = byte(i + 1)
		live[id] = byte(i + 1)
	}
	tx.Commit()

	type decl struct {
		snap  SnapshotID
		state map[storage.PageID]byte
	}
	var declared []decl

	randLive := func() storage.PageID {
		for id := range live {
			return id // map order is effectively random
		}
		return 0
	}

	for step := 0; step < 400; step++ {
		w, _ := e.store.Begin()
		touched := make(map[storage.PageID]bool)
		for n := r.Intn(4); n >= 0; n-- {
			switch r.Intn(6) {
			case 0: // free a live page (not one touched this tx, to keep bookkeeping simple)
				id := randLive()
				if id == 0 || touched[id] {
					continue
				}
				if err := w.Free(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			case 1: // allocate a new page
				id, _ := w.Allocate()
				p, _ := w.GetMut(id)
				b := byte(r.Intn(250) + 1)
				p[0] = b
				live[id] = b
				touched[id] = true
			default: // modify a live page
				id := randLive()
				if id == 0 {
					continue
				}
				p, err := w.GetMut(id)
				if err != nil {
					t.Fatal(err)
				}
				b := byte(r.Intn(250) + 1)
				p[0] = b
				live[id] = b
				touched[id] = true
			}
		}
		if r.Intn(3) == 0 {
			snap, err := w.CommitWithSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			state := make(map[storage.PageID]byte, len(live))
			for id, b := range live {
				state[id] = b
			}
			declared = append(declared, decl{snap: SnapshotID(snap), state: state})
		} else if err := w.Commit(); err != nil {
			t.Fatal(err)
		}

		// Periodically validate a few random snapshots, cold and warm.
		if step%25 == 24 && len(declared) > 0 {
			if r.Intn(2) == 0 {
				e.sys.ResetCache()
			}
			for v := 0; v < 3; v++ {
				d := declared[r.Intn(len(declared))]
				validateSnapshot(t, e.sys, d.snap, d.state)
			}
		}
	}

	// Final full validation of every declared snapshot, cold.
	e.sys.ResetCache()
	for _, d := range declared {
		validateSnapshot(t, e.sys, d.snap, d.state)
	}
}

func validateSnapshot(t *testing.T, sys *System, snap SnapshotID, state map[storage.PageID]byte) {
	t.Helper()
	rd, err := sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatalf("OpenSnapshot(%d): %v", snap, err)
	}
	defer rd.Close()
	for id, want := range state {
		p, err := rd.Get(id)
		if err != nil {
			t.Fatalf("snap %d page %d: %v", snap, id, err)
		}
		if p[0] != want {
			t.Fatalf("snap %d page %d: got %d want %d", snap, id, p[0], want)
		}
	}
}

func TestSkippyScanShorterThanRawForOldSnapshots(t *testing.T) {
	e := newEnv(t, Options{SkipFactor: 4})
	_, ids := e.writePages(t, []storage.PageID{0, 0, 0, 0}, []byte{1, 2, 3, 4}, true)

	// Long history: many snapshots, every one modifying all four pages.
	for i := 0; i < 64; i++ {
		e.writePages(t, ids, []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}, true)
	}
	raw := e.sys.MaplogEntries()
	r, err := e.sys.OpenSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Counters.MapScanned >= raw {
		t.Errorf("Skippy scan (%d) not shorter than raw maplog (%d)", r.Counters.MapScanned, raw)
	}
	// And correctness: the SPT resolves each page as the naive scan
	// does, and no other page.
	checkSPT(t, "skippy", 1, r.spt, naiveSPT(e.sys.ml, 1), int(ids[3]))
}

func TestSkippySPTMatchesNaiveScan(t *testing.T) {
	// Cross-check the stacked SPT against a naive first-wins scan for
	// every snapshot of a random history, with an open tail.
	ml := newMaplog(3)
	r := rand.New(rand.NewSource(11))
	var off int64
	for s := 1; s <= 40; s++ {
		ml.declare()
		for n := r.Intn(6); n > 0; n-- {
			ml.append(SnapshotID(s), storage.PageID(r.Intn(10)+1), off)
			off++
		}
	}
	for s := SnapshotID(1); s <= ml.lastSnap(); s++ {
		checkSPT(t, "skippy", s, openSPT(ml, s), naiveSPT(ml, s), 10)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	e := newEnv(t, Options{})
	if e.sys.LastSnapshot() != 0 {
		t.Error("LastSnapshot before any declaration")
	}
	s1, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	e.writePages(t, []storage.PageID{ids[0]}, []byte{2}, false)
	if e.sys.LastSnapshot() != s1 {
		t.Error("LastSnapshot mismatch")
	}
	e.sys.ResetCache()
	r, _ := e.sys.OpenSnapshot(s1)
	r.Get(ids[0])
	r.Get(ids[0]) // second read hits cache
	r.Close()
	st := e.sys.Stats()
	if st.Snapshots != 1 || st.PagelogWrites != 1 || st.PagelogReads != 1 || st.CacheHits != 1 || st.SPTBuilds != 1 {
		t.Errorf("stats: %+v", st)
	}
	if e.sys.CachedPages() != 1 {
		t.Errorf("CachedPages = %d", e.sys.CachedPages())
	}
	if c := (Counters{PagelogReads: 3}); c.ModeledIOTime(DefaultReadLatency) != 3*DefaultReadLatency {
		t.Error("ModeledIOTime")
	}
}

func TestClosedSystem(t *testing.T) {
	e := newEnv(t, Options{})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	e.writePages(t, ids, []byte{2}, false)
	r, err := e.sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	e.sys.Close()
	if _, err := r.Get(ids[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("cold Get after Close: %v", err)
	}
	if _, err := e.sys.OpenSnapshot(1); !errors.Is(err, ErrClosed) {
		t.Errorf("OpenSnapshot after Close: %v", err)
	}
	tx, _ := e.store.Begin()
	p, _ := tx.Allocate()
	_ = p
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("commit after Close: %v", err)
	}
}

func TestReaderAccessors(t *testing.T) {
	e := newEnv(t, Options{SimulatedReadLatency: 42})
	snap, ids := e.writePages(t, []storage.PageID{0}, []byte{1}, true)
	e.writePages(t, []storage.PageID{ids[0]}, []byte{2}, false)
	r, err := e.sys.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Snapshot() != snap {
		t.Errorf("Snapshot() = %d", r.Snapshot())
	}
	checkSPT(t, "reader", snap, r.spt, naiveSPT(e.sys.ml, snap), int(ids[0]))
	if e.sys.ReadLatency() != 42 {
		t.Errorf("ReadLatency() = %v", e.sys.ReadLatency())
	}
}

package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fill writes a recognizable pattern into a page.
func fill(p *PageData, b byte) {
	for i := range p {
		p[i] = b
	}
}

func mustBegin(t *testing.T, s *Store) *Tx {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return tx
}

func TestAllocateWriteCommitRead(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, err := tx.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tx.GetMut(id)
	if err != nil {
		t.Fatal(err)
	}
	fill(p, 7)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rt, err := s.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[PageSize-1] != 7 {
		t.Errorf("read back wrong content: %d %d", got[0], got[PageSize-1])
	}
}

func TestRollbackDiscardsChanges(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	p, _ := tx.GetMut(id)
	fill(p, 1)
	tx.Commit()

	tx2 := mustBegin(t, s)
	p2, _ := tx2.GetMut(id)
	fill(p2, 2)
	id2, _ := tx2.Allocate()
	tx2.Rollback()

	rt, _ := s.BeginRead()
	defer rt.Close()
	got, _ := rt.Get(id)
	if got[0] != 1 {
		t.Errorf("rollback leaked content: %d", got[0])
	}
	if _, err := rt.Get(id2); !errors.Is(err, ErrPageFree) {
		t.Errorf("rolled-back allocation should read as free, got %v", err)
	}
	// The rolled-back page returns to the free list and is reused.
	tx3 := mustBegin(t, s)
	id3, _ := tx3.Allocate()
	if id3 != id2 {
		t.Errorf("expected free-list reuse of %d, got %d", id2, id3)
	}
	tx3.Rollback()
}

func TestTxSeesOwnWrites(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	p, _ := tx.GetMut(id)
	fill(p, 9)
	got, err := tx.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("tx does not see own write: %d", got[0])
	}
	tx.Commit()
}

func TestMVCCReaderIsolation(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	p, _ := tx.GetMut(id)
	fill(p, 1)
	tx.Commit()

	rt, _ := s.BeginRead()
	defer rt.Close()

	// Concurrent writer updates the page; the pinned reader must keep
	// seeing the old version.
	tx2 := mustBegin(t, s)
	p2, _ := tx2.GetMut(id)
	fill(p2, 2)
	tx2.Commit()

	got, err := rt.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("MVCC violation: pinned reader sees %d, want 1", got[0])
	}
	rt2, _ := s.BeginRead()
	defer rt2.Close()
	got2, _ := rt2.Get(id)
	if got2[0] != 2 {
		t.Errorf("new reader sees %d, want 2", got2[0])
	}
}

func TestMVCCFreeAndReuseKeepsOldVersionVisible(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	p, _ := tx.GetMut(id)
	fill(p, 1)
	tx.Commit()

	rt, _ := s.BeginRead()
	defer rt.Close()

	tx2 := mustBegin(t, s)
	if err := tx2.Free(id); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	// Reuse the freed page with new content.
	tx3 := mustBegin(t, s)
	id3, _ := tx3.Allocate()
	if id3 != id {
		t.Fatalf("expected reuse of %d, got %d", id, id3)
	}
	p3, _ := tx3.GetMut(id3)
	fill(p3, 5)
	tx3.Commit()

	// The pinned reader still sees the original content.
	got, err := rt.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Errorf("reader sees %d after free+reuse, want 1", got[0])
	}

	// A fresh reader sees the reused content.
	rt2, _ := s.BeginRead()
	defer rt2.Close()
	got2, _ := rt2.Get(id)
	if got2[0] != 5 {
		t.Errorf("fresh reader sees %d, want 5", got2[0])
	}
}

func TestFreedPageReadsAsFree(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	tx.Commit()

	tx2 := mustBegin(t, s)
	tx2.Free(id)
	if _, err := tx2.Get(id); !errors.Is(err, ErrPageFree) {
		t.Errorf("Get after Free in same tx: %v", err)
	}
	if _, err := tx2.GetMut(id); !errors.Is(err, ErrPageFree) {
		t.Errorf("GetMut after Free in same tx: %v", err)
	}
	tx2.Commit()

	rt, _ := s.BeginRead()
	defer rt.Close()
	if _, err := rt.Get(id); !errors.Is(err, ErrPageFree) {
		t.Errorf("Get of freed page: %v", err)
	}
}

func TestAllocateFreeWithinTx(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	if err := tx.Free(id); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if got := s.NumFree(); got != 1 {
		t.Errorf("NumFree = %d, want 1", got)
	}
	if s.Stats().PagesWritten != 0 {
		t.Error("alloc+free within tx should not produce dirty pages")
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	s := NewStore()
	rt, _ := s.BeginRead()
	defer rt.Close()
	if _, err := rt.GetMut(1); !errors.Is(err, ErrReadOnly) {
		t.Error("GetMut should be read-only")
	}
	if _, err := rt.Allocate(); !errors.Is(err, ErrReadOnly) {
		t.Error("Allocate should be read-only")
	}
	if err := rt.Free(1); !errors.Is(err, ErrReadOnly) {
		t.Error("Free should be read-only")
	}
}

func TestTxDoneErrors(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	tx.Commit()
	if _, err := tx.Get(id); !errors.Is(err, ErrTxDone) {
		t.Error("Get after Commit should fail")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Error("double Commit should fail")
	}
	tx.Rollback() // must be a no-op, not a panic

	rt, _ := s.BeginRead()
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.Get(id); !errors.Is(err, ErrTxDone) {
		t.Error("read after Close should fail")
	}
}

func TestBadPageID(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	defer tx.Rollback()
	if _, err := tx.Get(0); !errors.Is(err, ErrBadPage) {
		t.Errorf("Get(0): %v", err)
	}
	if _, err := tx.Get(99); !errors.Is(err, ErrBadPage) {
		t.Errorf("Get(99): %v", err)
	}
}

func TestClosedStore(t *testing.T) {
	s := NewStore()
	s.Close()
	if _, err := s.Begin(); !errors.Is(err, ErrStoreClosed) {
		t.Error("Begin on closed store should fail")
	}
	if _, err := s.BeginRead(); !errors.Is(err, ErrStoreClosed) {
		t.Error("BeginRead on closed store should fail")
	}
}

// hookRecorder captures commit-hook invocations.
type hookRecorder struct {
	calls    int
	declares int
	lastPre  map[PageID]bool // pages with non-nil pre-state
	nextSnap uint64
	fail     error
	groups   int    // BeginGroup calls
	durable  uint64 // GroupDurable calls
}

func (h *hookRecorder) BeginGroup()            { h.groups++ }
func (h *hookRecorder) EndGroup()              {}
func (h *hookRecorder) GroupDurable(int)       { h.durable++ }
func (h *hookRecorder) FlushDecisions() uint64 { return h.durable }

func (h *hookRecorder) Committing(dirty []DirtyPage, declare bool, _ any, newLSN uint64) (uint64, error) {
	if h.fail != nil {
		return 0, h.fail
	}
	h.calls++
	h.lastPre = make(map[PageID]bool)
	for _, d := range dirty {
		h.lastPre[d.ID] = d.Pre != nil
	}
	if declare {
		h.declares++
		h.nextSnap++
		return h.nextSnap, nil
	}
	return 0, nil
}

func TestCommitHookSeesPreStates(t *testing.T) {
	s := NewStore()
	h := &hookRecorder{}
	s.SetCommitHook(h)

	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	p, _ := tx.GetMut(id)
	fill(p, 1)
	snap, err := tx.CommitWithSnapshot(nil)
	if err != nil || snap != 1 {
		t.Fatalf("CommitWithSnapshot: %d, %v", snap, err)
	}
	if h.lastPre[id] {
		t.Error("new page should have nil pre-state")
	}

	tx2 := mustBegin(t, s)
	p2, _ := tx2.GetMut(id)
	fill(p2, 2)
	tx2.Commit()
	if !h.lastPre[id] {
		t.Error("modified page should carry its pre-state")
	}
	if h.calls != 2 || h.declares != 1 {
		t.Errorf("calls=%d declares=%d", h.calls, h.declares)
	}
}

func TestCommitHookFailureVetoesCommit(t *testing.T) {
	s := NewStore()
	h := &hookRecorder{}
	s.SetCommitHook(h)

	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	tx.Commit()

	h.fail = errors.New("pagelog write failed")
	tx2 := mustBegin(t, s)
	p, _ := tx2.GetMut(id)
	fill(p, 9)
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit should propagate hook failure")
	}
	h.fail = nil

	rt, _ := s.BeginRead()
	defer rt.Close()
	got, _ := rt.Get(id)
	if got[0] != 0 {
		t.Errorf("vetoed commit leaked content: %d", got[0])
	}
}

// Property-style test: a random interleaving of writers with pinned
// readers; every reader must see exactly the state at its pin point.
func TestMVCCRandomizedHistory(t *testing.T) {
	s := NewStore()
	const nPages = 20
	tx := mustBegin(t, s)
	ids := make([]PageID, nPages)
	for i := range ids {
		ids[i], _ = tx.Allocate()
	}
	tx.Commit()

	r := rand.New(rand.NewSource(42))
	type pinned struct {
		rt     *ReadTx
		shadow [nPages]byte
	}
	var cur [nPages]byte
	var pins []pinned

	for step := 0; step < 300; step++ {
		switch r.Intn(4) {
		case 0: // pin a reader
			rt, _ := s.BeginRead()
			pins = append(pins, pinned{rt: rt, shadow: cur})
		case 1: // unpin a random reader
			if len(pins) > 0 {
				k := r.Intn(len(pins))
				pins[k].rt.Close()
				pins = append(pins[:k], pins[k+1:]...)
			}
		default: // writer commits random modifications
			w := mustBegin(t, s)
			for n := r.Intn(5); n >= 0; n-- {
				k := r.Intn(nPages)
				p, err := w.GetMut(ids[k])
				if err != nil {
					t.Fatal(err)
				}
				b := byte(r.Intn(250) + 1)
				fill(p, b)
				cur[k] = b
			}
			if r.Intn(5) == 0 {
				// Occasionally roll back instead; cur must be restored.
				w.Rollback()
				// recompute cur from latest committed state
				rt, _ := s.BeginRead()
				for k := range ids {
					p, err := rt.Get(ids[k])
					if err != nil {
						t.Fatal(err)
					}
					cur[k] = p[0]
				}
				rt.Close()
			} else {
				w.Commit()
			}
		}
		// Validate all pinned readers.
		for _, pin := range pins {
			for k := range ids {
				p, err := pin.rt.Get(ids[k])
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if p[0] != pin.shadow[k] {
					t.Fatalf("step %d: reader@%d page %d sees %d want %d",
						step, pin.rt.LSN(), k, p[0], pin.shadow[k])
				}
			}
		}
	}
	for _, pin := range pins {
		pin.rt.Close()
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _ := tx.Allocate()
		p, _ := tx.GetMut(id)
		fill(p, 100)
		ids = append(ids, id)
	}
	tx.Commit()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// Writer goroutine: keeps all pages equal to one value per commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := byte(101); v < 150; v++ {
			w, err := s.Begin()
			if err != nil {
				errs <- err
				return
			}
			for _, id := range ids {
				p, err := w.GetMut(id)
				if err != nil {
					errs <- err
					w.Rollback()
					return
				}
				fill(p, v)
			}
			if err := w.Commit(); err != nil {
				errs <- err
				return
			}
		}
		close(stop)
	}()

	// Reader goroutines: within one ReadTx, all pages must be equal
	// (each commit writes all pages with one value).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt, err := s.BeginRead()
				if err != nil {
					errs <- err
					return
				}
				first, err := rt.Get(ids[0])
				if err != nil {
					errs <- err
					rt.Close()
					return
				}
				v := first[0]
				for _, id := range ids[1:] {
					p, err := rt.Get(id)
					if err != nil {
						errs <- err
						rt.Close()
						return
					}
					if p[0] != v {
						errs <- fmt.Errorf("torn read: %d vs %d", p[0], v)
						rt.Close()
						return
					}
				}
				rt.Close()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	tx.Commit()
	rt, _ := s.BeginRead()
	rt.Get(id)
	rt.Close()
	st := s.Stats()
	if st.Commits != 1 || st.PagesWritten != 1 || st.DBReads == 0 {
		t.Errorf("unexpected stats: %+v", st)
	}
}

// TestApplyReplicatedTakesTheCommitPath applies replicated groups to a
// store with a hook: each group is one hook group with one durability
// decision, the hook sees each page's pre-state read from the store,
// a freed page reaches the free list, and a declaring commit whose
// shipped snapshot id differs from the hook's fails the group with
// ErrReplMismatch.
func TestApplyReplicatedTakesTheCommitPath(t *testing.T) {
	s := NewStore()
	h := &hookRecorder{}
	s.SetCommitHook(h)
	page := func(b byte) *PageData {
		p := new(PageData)
		fill(p, b)
		return p
	}

	err := s.ApplyReplicated([]ReplCommit{
		{LSN: 1, Pages: []DirtyPage{{ID: 1, New: page(1)}, {ID: 2, New: page(2)}}},
		{LSN: 2, Pages: []DirtyPage{{ID: 1, New: page(3)}, {ID: 2}}, Declare: true, SnapID: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.lastPre[1] || !h.lastPre[2] {
		t.Errorf("second commit's pre-states: %v, want both pages present", h.lastPre)
	}
	if h.groups != 1 || h.durable != 1 || h.calls != 2 {
		t.Errorf("groups=%d durable=%d calls=%d, want 1, 1, 2", h.groups, h.durable, h.calls)
	}
	if free := s.FreeList(); len(free) != 1 || free[0] != 2 {
		t.Errorf("free list %v, want [2]", free)
	}
	st := s.Stats()
	if st.Groups != 1 || st.Commits != 2 || st.InvariantViolations != 0 {
		t.Errorf("groups=%d commits=%d violations=%d, want 1, 2, 0", st.Groups, st.Commits, st.InvariantViolations)
	}

	// The hook declares snapshot 2; the primary claims 3.
	err = s.ApplyReplicated([]ReplCommit{
		{LSN: 3, Pages: []DirtyPage{{ID: 1, New: page(4)}}, Declare: true, SnapID: 3},
	})
	if !errors.Is(err, ErrReplMismatch) {
		t.Fatalf("mismatched snapshot id: %v, want ErrReplMismatch", err)
	}
	if st := s.Stats(); st.InvariantViolations != 0 {
		t.Errorf("a failed replicated group tripped %d invariant checks", st.InvariantViolations)
	}
	// A commit that skips an LSN changes nothing.
	if err := s.ApplyReplicated([]ReplCommit{{LSN: 9}}); !errors.Is(err, ErrReplMismatch) {
		t.Fatalf("LSN gap: %v, want ErrReplMismatch", err)
	}
	if s.LSN() != 3 {
		t.Errorf("store LSN %d, want 3", s.LSN())
	}
}

package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rql/internal/obs"
)

// gateHook is a CommitHook whose GroupDurable blocks until the
// test releases it, letting tests hold the commit leader in its flush
// while more transactions pile onto the queue.
type gateHook struct {
	mu      sync.Mutex
	groups  int
	flushes []int // committed-transaction count per GroupDurable call
	gate    chan struct{}
	entered chan struct{} // signaled once per GroupDurable entry
}

func newGateHook() *gateHook {
	return &gateHook{
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
}

func (h *gateHook) Committing(pages []DirtyPage, declare bool, _ any, lsn uint64) (uint64, error) {
	return 0, nil
}
func (h *gateHook) BeginGroup() {
	h.mu.Lock()
	h.groups++
	h.mu.Unlock()
}
func (h *gateHook) EndGroup() {}
func (h *gateHook) GroupDurable(commits int) {
	h.mu.Lock()
	h.flushes = append(h.flushes, commits)
	h.mu.Unlock()
	h.entered <- struct{}{}
	<-h.gate
}

func (h *gateHook) FlushDecisions() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return uint64(len(h.flushes))
}

var _ CommitHook = (*gateHook)(nil)

func writePage(t *testing.T, tx *Tx, id PageID, b byte) {
	t.Helper()
	p, err := tx.GetMut(id)
	if err != nil {
		t.Fatalf("GetMut(%d): %v", id, err)
	}
	fill(p, b)
}

// TestGroupCommitConflict pins the first-committer-wins rule: two
// transactions staged against the same baseline both write one page;
// the first COMMIT wins, the second aborts with ErrWriteConflict and
// its effects are fully discarded.
func TestGroupCommitConflict(t *testing.T) {
	s := NewStore()
	tx := mustBegin(t, s)
	id, _ := tx.Allocate()
	writePage(t, tx, id, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx1 := mustBegin(t, s)
	tx2 := mustBegin(t, s)
	writePage(t, tx1, id, 2)
	writePage(t, tx2, id, 3)
	id2, _ := tx2.Allocate() // must return to the free list on abort
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := tx2.Commit()
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping commit = %v, want ErrWriteConflict", err)
	}

	rt, _ := s.BeginRead()
	defer rt.Close()
	got, err := rt.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("page content = %d, want the winner's 2", got[0])
	}
	if _, err := rt.Get(id2); !errors.Is(err, ErrPageFree) {
		t.Errorf("loser's allocation should read as free, got %v", err)
	}
	st := s.Stats()
	if st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}
	if st.Commits != 2 {
		t.Errorf("Commits = %d, want 2 (setup + winner)", st.Commits)
	}
	// The loser was drained alone: a batch that applied nothing is not a
	// group (no flush decision is taken for it), it is counted apart.
	var bucketed uint64
	for _, n := range st.GroupSizeBuckets {
		bucketed += n
	}
	if st.Groups != 2 || bucketed != 2 || st.ConflictBatches != 1 {
		t.Errorf("Groups = %d (histogram %d), ConflictBatches = %d; want 2 groups (setup + winner) and 1 all-conflict batch",
			st.Groups, bucketed, st.ConflictBatches)
	}
}

// TestGroupCommitDisjointWriters checks that transactions writing
// disjoint pages from the same baseline all commit.
func TestGroupCommitDisjointWriters(t *testing.T) {
	s := NewStore()
	setup := mustBegin(t, s)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := setup.Allocate()
		writePage(t, setup, id, 0)
		ids = append(ids, id)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	txs := make([]*Tx, len(ids))
	for i := range ids {
		txs[i] = mustBegin(t, s)
		writePage(t, txs[i], ids[i], byte(i+1))
	}
	for i, tx := range txs {
		if err := tx.Commit(); err != nil {
			t.Fatalf("disjoint commit %d: %v", i, err)
		}
	}
	rt, _ := s.BeginRead()
	defer rt.Close()
	for i, id := range ids {
		p, err := rt.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i+1) {
			t.Errorf("page %d content = %d, want %d", id, p[0], i+1)
		}
	}
}

// TestGroupCommitBatches holds the leader in its device flush while
// more writers enqueue, then checks they all commit as ONE group with
// one flush — the pipelining the group-commit design claims.
func TestGroupCommitBatches(t *testing.T) {
	const waiters = 5
	s := NewStore()
	hook := newGateHook()
	s.SetCommitHook(hook)

	setup := mustBegin(t, s)
	var ids []PageID
	for i := 0; i < waiters+1; i++ {
		id, _ := setup.Allocate()
		writePage(t, setup, id, 0)
		ids = append(ids, id)
	}
	done := make(chan error, waiters+1)
	go func() { done <- setup.Commit() }()
	<-hook.entered // leader is parked in the setup commit's flush

	// Enqueue the waiters while the leader is busy flushing.
	for i := 0; i < waiters; i++ {
		tx := mustBegin(t, s)
		writePage(t, tx, ids[i], byte(i+1))
		go func() { done <- tx.Commit() }()
	}
	for {
		s.qmu.Lock()
		n := len(s.queue)
		s.qmu.Unlock()
		if n == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}

	close(hook.gate) // release every flush from here on
	for i := 0; i < waiters+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-hook.entered // the batch's flush

	hook.mu.Lock()
	flushes := append([]int(nil), hook.flushes...)
	hook.mu.Unlock()
	if len(flushes) != 2 || flushes[0] != 1 || flushes[1] != waiters {
		t.Fatalf("flushes = %v, want [1 %d]: the parked waiters must form one group", flushes, waiters)
	}
	st := s.Stats()
	if st.Groups != 2 {
		t.Errorf("Groups = %d, want 2", st.Groups)
	}
	var bucketed uint64
	for _, c := range st.GroupSizeBuckets {
		bucketed += c
	}
	if bucketed != st.Groups {
		t.Errorf("group-size histogram accounts %d groups, want %d", bucketed, st.Groups)
	}
	if st.QueueWaitNS == 0 {
		t.Error("QueueWaitNS = 0, want > 0 for parked waiters")
	}
}

// TestBeginCtxCancelled checks the two things a context means to
// Begin: an already-cancelled context fails fast and pins nothing, and
// a live one never waits for another writer — an open transaction holds
// no lock a second Begin could park behind.
func TestBeginCtxCancelled(t *testing.T) {
	s := NewStore()
	holder := mustBegin(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	tx, err := s.BeginCtx(ctx)
	if err != nil {
		t.Fatalf("BeginCtx beside an open writer = %v, want a transaction", err)
	}
	tx.Rollback()

	dead, kill := context.WithCancel(context.Background())
	kill()
	if tx, err := s.BeginCtx(dead); !errors.Is(err, context.Canceled) || tx != nil {
		t.Fatalf("BeginCtx on a cancelled context = (%v, %v), want (nil, context.Canceled)", tx, err)
	}

	holder.Rollback()
	s.mu.RLock()
	pins := len(s.readers)
	s.mu.RUnlock()
	if pins != 0 {
		t.Errorf("%d base-LSN pins left after every transaction ended, want 0", pins)
	}
}

// TestGroupCommitCtxAbandon cancels a writer parked in the commit
// queue: the wait aborts with the context error, the leader skips the
// abandoned request, and the queue is not poisoned for later commits.
func TestGroupCommitCtxAbandon(t *testing.T) {
	s := NewStore()
	hook := newGateHook()
	s.SetCommitHook(hook)

	setup := mustBegin(t, s)
	id0, _ := setup.Allocate()
	writePage(t, setup, id0, 0)
	setupDone := make(chan error, 1)
	go func() { setupDone <- setup.Commit() }()
	<-hook.entered // leader parked in the setup flush

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := s.BeginCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := tx.Allocate()
	writePage(t, tx, idA, 9)
	waitErr := make(chan error, 1)
	go func() {
		err := tx.Commit()
		waitErr <- err
	}()
	for {
		s.qmu.Lock()
		n := len(s.queue)
		s.qmu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued commit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued commit never returned")
	}

	close(hook.gate)
	if err := <-setupDone; err != nil {
		t.Fatal(err)
	}

	// The abandoned transaction left nothing behind...
	rt, _ := s.BeginRead()
	if _, err := rt.Get(idA); !errors.Is(err, ErrPageFree) {
		t.Errorf("abandoned tx's allocation should read as free, got %v", err)
	}
	rt.Close()

	// ...and the queue keeps serving commits, reusing the reclaimed page.
	tx2 := mustBegin(t, s)
	id2, _ := tx2.Allocate()
	writePage(t, tx2, id2, 5)
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after abandoned request: %v", err)
	}
	if id2 != idA {
		t.Errorf("next allocation = %d, want the reclaimed %d", id2, idA)
	}
	if st := s.Stats(); st.Commits != 2 {
		t.Errorf("Commits = %d, want 2 (setup + post-abandon)", st.Commits)
	}
}

// TestQuiesce checks Quiesce excludes writers until released.
func TestQuiesce(t *testing.T) {
	s := NewStore()
	release, err := s.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() {
		tx, err := s.Begin()
		if err != nil {
			committed <- err
			return
		}
		id, _ := tx.Allocate()
		writePage(t, tx, id, 1)
		committed <- tx.Commit()
	}()
	select {
	case err := <-committed:
		t.Fatalf("commit finished under Quiesce: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit never finished after Quiesce release")
	}
}

// TestGroupCommitStaleBaseline: a transaction that began before an
// unrelated commit still commits (conflict detection is per-page, not
// per-LSN), while one overlapping the newer commit aborts.
func TestGroupCommitStaleBaseline(t *testing.T) {
	s := NewStore()
	setup := mustBegin(t, s)
	idA, _ := setup.Allocate()
	idB, _ := setup.Allocate()
	writePage(t, setup, idA, 0)
	writePage(t, setup, idB, 0)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	old := mustBegin(t, s) // baseline before the next commit
	writePage(t, old, idB, 7)

	mid := mustBegin(t, s)
	writePage(t, mid, idA, 3)
	if err := mid.Commit(); err != nil {
		t.Fatal(err)
	}

	// old's write set (idB) does not overlap mid's commit (idA).
	if err := old.Commit(); err != nil {
		t.Fatalf("non-overlapping stale commit = %v, want success", err)
	}

	stale := mustBegin(t, s)
	writePage(t, stale, idB, 8)
	fresh := mustBegin(t, s)
	writePage(t, fresh, idB, 9)
	if err := fresh.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := stale.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping stale commit = %v, want ErrWriteConflict", err)
	}
}

// TestGroupCommitInvariantViolations forces the accounting apart and
// sees the leader's end-of-batch check count it: healthy batches leave
// invariant_violations at zero; once a group exists that no flush
// decision was made for (the PR 12 bug: a group counted for a batch
// that never reached GroupDurable), the next batch's check fires.
func TestGroupCommitInvariantViolations(t *testing.T) {
	s := NewStore()
	hook := newGateHook()
	close(hook.gate) // never park a flush
	s.SetCommitHook(hook)
	commit := func() {
		t.Helper()
		tx := mustBegin(t, s)
		id, _ := tx.Allocate()
		writePage(t, tx, id, 1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	commit()
	commit()
	if st := s.Stats(); st.InvariantViolations != 0 || st.Groups != 2 {
		t.Fatalf("healthy commits: violations=%d groups=%d, want 0 and 2", st.InvariantViolations, st.Groups)
	}

	s.stats.Groups.Add(1)
	commit()
	if got := s.Stats().InvariantViolations; got != 1 {
		t.Fatalf("InvariantViolations = %d after a group without a flush decision, want 1", got)
	}
	if m, ok := obs.Find(s.Metrics(), "invariant_violations"); !ok || m.Value != 1 {
		t.Fatalf("exported invariant_violations = %+v (found %v), want 1", m, ok)
	}
}

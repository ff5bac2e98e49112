package storage

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"rql/internal/obs"
)

// Group commit. Writer transactions stage their write sets
// concurrently — Begin takes no lock for the transaction's lifetime,
// only an MVCC pin at its base LSN — and Commit enqueues the
// transaction onto a commit queue. A leader goroutine acquires the
// writer semaphore, drains the queue, and applies the whole batch as
// one group: first-committer-wins conflict detection per transaction,
// consecutive LSNs, the group's Pagelog captures flushed as one
// backing write, and one fsync-equivalent device round-trip before all
// waiters wake. While the leader applies one group the next group
// forms behind it (the classic group-commit pipeline), so commit
// throughput scales with concurrency even though the log itself stays
// strictly serial. A serial caller's commits are groups of one.

// ErrWriteConflict reports a transaction aborted by first-committer-
// wins conflict detection: a page in its write set was committed by
// another transaction after this one began. The transaction's effects
// are discarded; the caller may retry on a fresh snapshot.
var ErrWriteConflict = errors.New("storage: write conflict, transaction aborted (first committer wins)")

// GroupCommitHook extends CommitHook for batched commit groups. The
// store brackets each group's Committing calls with BeginGroup /
// EndGroup (both under the store mutex) so the hook can buffer its log
// appends and flush them as one backing write; GroupDurable then runs
// after the store mutex is released (still under the writer semaphore)
// and models the group's single fsync-equivalent device round-trip.
type GroupCommitHook interface {
	CommitHook
	// BeginGroup opens a commit group. Called before the group's first
	// Committing; the hook may take its own lock here and hold it until
	// EndGroup, so no reader observes the group's log effects before
	// they are flushed.
	BeginGroup()
	// EndGroup flushes the group's buffered appends as one backing
	// write and releases whatever BeginGroup acquired.
	EndGroup()
	// GroupDurable takes the flushed group's one durability decision —
	// a device flush or a skip — for the whole group of `commits`
	// transactions.
	GroupDurable(commits int)
	// FlushDecisions is the number of GroupDurable calls accounted so
	// far, as flushes issued plus flushes skipped.
	FlushDecisions() uint64
}

// commitReq states. A request starts pending; the leader claims it
// (and owns delivering its result), or a context-cancelled waiter
// abandons it (and owns rolling the transaction back). The CAS makes
// the two outcomes exclusive.
const (
	reqPending int32 = iota
	reqClaimed
	reqAbandoned
)

type commitResult struct {
	snapID uint64
	err    error
}

// commitReq is one transaction waiting on the commit queue.
type commitReq struct {
	tx       *Tx
	declare  bool
	reg      any               // the declaration's registration, opaque here
	done     chan commitResult // buffered (cap 1): the leader never blocks on a dead waiter
	state    atomic.Int32
	enqueued time.Time
}

// enqueueCommit adds req to the commit queue, spawning a leader if
// none is active. Exactly one leader runs at a time; it keeps draining
// until the queue is empty, so a request enqueued while a group is
// being applied joins the next group without spawning a goroutine.
func (s *Store) enqueueCommit(req *commitReq) {
	req.enqueued = time.Now()
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	spawn := !s.leaderActive
	if spawn {
		s.leaderActive = true
	}
	s.qmu.Unlock()
	if spawn {
		go s.commitLeader()
	}
}

// commitLeader is the group-commit leader loop: acquire the writer
// semaphore, then repeatedly drain the queue and apply each drained
// batch as one group until the queue is empty.
func (s *Store) commitLeader() {
	s.writerSem <- struct{}{}
	for {
		s.qmu.Lock()
		batch := s.queue
		s.queue = nil
		if len(batch) == 0 {
			s.leaderActive = false
			s.qmu.Unlock()
			break
		}
		s.qmu.Unlock()
		s.applyGroup(batch)
	}
	<-s.writerSem
}

// applyGroup applies a batch of commit requests as one group. The
// caller holds the writer semaphore. Abandoned requests (context-
// cancelled waiters) are skipped; every claimed request gets exactly
// one result on its done channel.
func (s *Store) applyGroup(batch []*commitReq) {
	now := time.Now()
	gsp := obs.StartSpan(nil, "commit.group")
	var claimed []*commitReq
	var results []commitResult

	s.mu.Lock()
	var gh GroupCommitHook
	if h, ok := s.hook.(GroupCommitHook); ok {
		gh = h
	}
	var failAll error
	if s.closed {
		failAll = ErrStoreClosed
	} else if s.readOnly != nil {
		failAll = s.readOnly
	}
	if failAll == nil && gh != nil {
		gh.BeginGroup()
	}
	committed, conflicts := 0, 0
	for _, req := range batch {
		if !req.state.CompareAndSwap(reqPending, reqClaimed) {
			continue // abandoned: the waiter rolled the transaction back
		}
		s.stats.QueueWaitNS.Add(uint64(now.Sub(req.enqueued)))
		var res commitResult
		if failAll != nil {
			s.endReadLocked(req.tx.base)
			s.reclaimLocked(req.tx)
			res.err = failAll
		} else {
			res.snapID, res.err = s.commitOneLocked(req.tx, req.declare, req.reg)
			switch res.err {
			case nil:
				committed++
			case ErrWriteConflict:
				conflicts++
			}
		}
		claimed = append(claimed, req)
		results = append(results, res)
	}
	if failAll == nil && gh != nil {
		gh.EndGroup()
	}
	// A group is a batch with at least one applied commit: that is the
	// unit GroupDurable decides a flush or a skip for, so Groups, the
	// size histogram and the flush decisions all count the same thing.
	// A batch whose members all lost first-committer-wins changed
	// nothing and is counted apart.
	switch {
	case committed > 0:
		s.stats.Groups.Add(1)
		s.stats.GroupSizeBuckets.Observe(uint64(len(claimed)))
	case conflicts > 0:
		s.stats.ConflictBatches.Add(1)
	}
	lsn := s.lsn
	s.mu.Unlock()

	if gh != nil && committed > 0 {
		gh.GroupDurable(committed)
	}
	s.checkGroupAccounting(gh)
	for i, req := range claimed {
		req.done <- results[i]
	}
	gsp.SetInt("size", int64(len(claimed))).
		SetInt("committed", int64(committed)).
		SetInt("conflicts", int64(conflicts)).
		SetInt("lsn", int64(lsn)).
		End()
}

// checkGroupAccounting evaluates the group-commit accounting invariants
// where they are well-defined: at the leader's end of batch, still
// under the writer semaphore, so no other group is mid-way through
// counting itself. Every group got exactly one flush decision from the
// hook, and every group applied at least one commit. A failed check
// counts in InvariantViolations. (A stats reset that lands between a
// concurrent batch's increments can trip it; resets are a quiesced
// experiment-harness operation.)
func (s *Store) checkGroupAccounting(gh GroupCommitHook) {
	groups := s.stats.Groups.Load()
	if s.stats.Commits.Load() < groups || (gh != nil && gh.FlushDecisions() != groups) {
		s.stats.InvariantViolations.Add(1)
	}
}

// commitOneLocked applies one transaction: first-committer-wins
// conflict check, dirty-set assembly, commit hook, version installs,
// free-list update. Callers hold s.mu. On any failure the
// transaction's page allocations return to the free list inline
// (calling unallocate here would deadlock on s.mu).
func (s *Store) commitOneLocked(tx *Tx, declare bool, reg any) (snapID uint64, err error) {
	sp := tx.span.Child("storage.commit")
	s.endReadLocked(tx.base) // staged reads are over: drop the base pin
	if s.conflictLocked(tx) {
		s.stats.Conflicts.Add(1)
		s.reclaimLocked(tx)
		sp.SetInt("conflict", 1)
		sp.End()
		return 0, ErrWriteConflict
	}

	// Assemble the dirty set in a deterministic order: content
	// changes, then frees.
	dirty := make([]DirtyPage, 0, len(tx.dirty)+len(tx.freed))
	for id, data := range tx.dirty {
		var pre *PageData
		if head := s.currentVersion(id); head != nil {
			pre = head.data
		}
		dirty = append(dirty, DirtyPage{ID: id, Pre: pre, New: data})
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].ID < dirty[j].ID })
	for _, id := range tx.freed {
		var pre *PageData
		if head := s.currentVersion(id); head != nil {
			pre = head.data
		}
		dirty = append(dirty, DirtyPage{ID: id, Pre: pre, New: nil})
	}

	if s.hook != nil {
		snapID, err = s.hook.Committing(dirty, declare, reg, s.lsn+1)
		if err != nil {
			s.reclaimLocked(tx)
			sp.End()
			return 0, err
		}
	}

	s.lsn++
	newLSN := s.lsn
	keep := s.minReaderLSN(newLSN)
	for _, d := range dirty {
		s.installVersion(d.ID, &pageVersion{lsn: newLSN, data: d.New}, keep)
	}
	s.free = append(s.free, tx.freed...)
	s.stats.Commits.Add(1)
	s.stats.PagesWritten.Add(uint64(len(dirty)))
	sp.SetInt("pages", int64(len(dirty))).SetInt("lsn", int64(newLSN))
	if declare {
		sp.SetInt("snapshot", int64(snapID))
	}
	sp.End()
	return snapID, nil
}

// conflictLocked reports whether any page in tx's write set was
// committed past tx's base LSN by another transaction — the
// first-committer-wins rule of snapshot isolation. Pages the
// transaction allocated itself are exempt: allocation hands out ids
// exclusively, so a newer version can only be the free that put the id
// on the free list this transaction reused it from. Callers hold s.mu.
func (s *Store) conflictLocked(tx *Tx) bool {
	if tx.base == s.lsn {
		return false // nothing committed since Begin
	}
	newer := func(id PageID) bool {
		if tx.allocated[id] {
			return false
		}
		v := s.currentVersion(id)
		return v != nil && v.lsn > tx.base
	}
	for id := range tx.dirty {
		if newer(id) {
			return true
		}
	}
	for _, id := range tx.freed {
		if newer(id) {
			return true
		}
	}
	return false
}

// reclaimLocked returns a failed transaction's page allocations to the
// free list. Callers hold s.mu. Idempotent: the allocation set is
// cleared so a later rollbackAllocations is a no-op.
func (s *Store) reclaimLocked(tx *Tx) {
	for id := range tx.allocated {
		s.free = append(s.free, id)
	}
	tx.allocated = nil
}

// Quiesce blocks the commit path — commit-group leaders and
// replication appliers both need the writer semaphore —
// until the returned release func is called. Replication bootstrap
// uses it to cut a consistent export: with the semaphore held no
// commit can land, so the store LSN, the retro logs and the primary's
// event log freeze together. Staging transactions keep running; their
// commits queue up behind the quiesce.
func (s *Store) Quiesce() (release func(), err error) {
	s.writerSem <- struct{}{}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		<-s.writerSem
		return nil, ErrStoreClosed
	}
	return func() { <-s.writerSem }, nil
}

package storage

import (
	"context"

	"rql/internal/obs"
)

// Tx is a writer transaction. Reads see the transaction's own writes
// first, then the newest committed state as of the transaction's base
// LSN. All mutations are buffered in a dirty set and become visible
// atomically at Commit.
//
// Tx is not safe for concurrent use by multiple goroutines, but many
// transactions stage concurrently, one per goroutine (see group.go).
type Tx struct {
	store     *Store
	dirty     map[PageID]*PageData
	freed     []PageID
	freedSet  map[PageID]bool
	allocated map[PageID]bool
	writes    uint64 // GetMut, Allocate and Free calls (Writes)
	base      uint64 // commit LSN at Begin, pinned in store.readers until the transaction ends
	done      bool
	ctx       context.Context // bounds the commit-queue wait
	span      *obs.Span       // parent for the commit span; nil when untraced
}

// SetTraceSpan parents this transaction's commit span under sp. A nil
// sp (the default) leaves the commit untraced.
func (tx *Tx) SetTraceSpan(sp *obs.Span) { tx.span = sp }

// Get returns a read-only view of the page as seen by this transaction.
func (tx *Tx) Get(id PageID) (*PageData, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if tx.freedSet[id] {
		return nil, ErrPageFree
	}
	if d, ok := tx.dirty[id]; ok {
		return d, nil
	}
	data, err := tx.store.readVersion(id, tx.base)
	if err != nil {
		return nil, err
	}
	if data == nil {
		if tx.allocated[id] {
			// Freshly allocated, never written: zero content.
			zero := new(PageData)
			tx.dirty[id] = zero
			return zero, nil
		}
		return nil, ErrPageFree
	}
	return data, nil
}

// GetMut returns a writable copy of the page, registering it dirty.
func (tx *Tx) GetMut(id PageID) (*PageData, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	tx.writes++
	if tx.freedSet[id] {
		return nil, ErrPageFree
	}
	if d, ok := tx.dirty[id]; ok {
		return d, nil
	}
	cur, err := tx.store.readVersion(id, tx.base)
	if err != nil {
		return nil, err
	}
	cp := new(PageData)
	if cur != nil {
		*cp = *cur
	} else if !tx.allocated[id] {
		return nil, ErrPageFree
	}
	tx.dirty[id] = cp
	return cp, nil
}

// Allocate reserves a fresh zeroed page for this transaction.
func (tx *Tx) Allocate() (PageID, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tx.writes++
	id := tx.store.allocate()
	if tx.allocated == nil {
		tx.allocated = make(map[PageID]bool)
	}
	tx.allocated[id] = true
	// The id may be a page this same transaction allocated and freed
	// earlier (Free returns such pages to the store immediately); it is
	// live again now.
	delete(tx.freedSet, id)
	tx.dirty[id] = new(PageData)
	return id, nil
}

// Free releases a page at commit time.
func (tx *Tx) Free(id PageID) error {
	if tx.done {
		return ErrTxDone
	}
	tx.writes++
	if tx.freedSet[id] {
		return ErrPageFree
	}
	delete(tx.dirty, id)
	if tx.freedSet == nil {
		tx.freedSet = make(map[PageID]bool)
	}
	if tx.allocated[id] {
		// Allocated and freed within this transaction: it never
		// existed for anyone else, return it to the free list directly.
		delete(tx.allocated, id)
		tx.freedSet[id] = true
		tx.store.unallocate([]PageID{id})
		return nil
	}
	tx.freedSet[id] = true
	tx.freed = append(tx.freed, id)
	return nil
}

// Writes counts the transaction's GetMut, Allocate and Free calls.
func (tx *Tx) Writes() uint64 { return tx.writes }

// Commit atomically publishes the transaction's changes.
func (tx *Tx) Commit() error {
	_, err := tx.finish(false, nil)
	return err
}

// CommitWithSnapshot publishes the changes and declares a snapshot that
// includes them, returning the snapshot id assigned by the commit hook
// (the Retro system). It corresponds to the paper's
// "COMMIT WITH SNAPSHOT" command. reg is the declaration's registration
// (nil for none): the store hands it to the commit hook unread.
func (tx *Tx) CommitWithSnapshot(reg any) (uint64, error) {
	return tx.finish(true, reg)
}

func (tx *Tx) finish(declare bool, reg any) (uint64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tx.done = true
	req := &commitReq{tx: tx, declare: declare, reg: reg, done: make(chan commitResult, 1)}
	tx.store.enqueueCommit(req)
	select {
	case res := <-req.done:
		return res.snapID, res.err
	case <-tx.ctx.Done():
		if req.state.CompareAndSwap(reqPending, reqAbandoned) {
			// The leader had not reached this request, so the commit
			// never happened; unpin and release allocations here.
			tx.store.endRead(tx.base)
			tx.rollbackAllocations()
			return 0, tx.ctx.Err()
		}
		// Claimed: the commit is being (or has been) applied. Report
		// the real outcome — returning ctx.Err() would disown a
		// commit that is already durable.
		res := <-req.done
		return res.snapID, res.err
	}
}

// Rollback discards the transaction's changes.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.store.endRead(tx.base)
	tx.rollbackAllocations()
}

func (tx *Tx) rollbackAllocations() {
	if len(tx.allocated) == 0 {
		return
	}
	ids := make([]PageID, 0, len(tx.allocated))
	for id := range tx.allocated {
		ids = append(ids, id)
	}
	tx.store.unallocate(ids)
}

// ReadTx is an MVCC read-only transaction pinned at a commit LSN. It
// observes the database exactly as of that LSN regardless of concurrent
// writers — this is what lets Retro snapshot queries read pages shared
// with the current database consistently (paper §4).
type ReadTx struct {
	store *Store
	lsn   uint64
	done  bool
}

// LSN returns the commit LSN the transaction is pinned at.
func (r *ReadTx) LSN() uint64 { return r.lsn }

// Get returns the page content visible at the pinned LSN.
func (r *ReadTx) Get(id PageID) (*PageData, error) {
	if r.done {
		return nil, ErrTxDone
	}
	data, err := r.store.readVersion(id, r.lsn)
	if err != nil {
		return nil, err
	}
	if data == nil {
		return nil, ErrPageFree
	}
	return data, nil
}

// GetMut always fails: the transaction is read-only.
func (r *ReadTx) GetMut(PageID) (*PageData, error) { return nil, ErrReadOnly }

// Allocate always fails: the transaction is read-only.
func (r *ReadTx) Allocate() (PageID, error) { return 0, ErrReadOnly }

// Free always fails: the transaction is read-only.
func (r *ReadTx) Free(PageID) error { return ErrReadOnly }

// Writes is always 0: the transaction is read-only.
func (r *ReadTx) Writes() uint64 { return 0 }

// Close unpins the transaction, allowing version chains to be pruned.
func (r *ReadTx) Close() {
	if r.done {
		return
	}
	r.done = true
	r.store.endRead(r.lsn)
}

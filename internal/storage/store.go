package storage

import (
	"context"
	"sync"

	"rql/internal/obs"
)

// pageVersion is one committed version of a page. Versions form a
// singly-linked chain from newest to oldest; readers walk the chain to
// the newest version with lsn <= their read LSN (MVCC). data == nil
// marks a "freed" version: the page does not exist at that LSN.
type pageVersion struct {
	lsn  uint64
	data *PageData
	prev *pageVersion
}

// Store is the in-memory transactional page store. Writer transactions
// stage concurrently against an MVCC pin; commits are serialized — a
// commit-queue leader applies them in batches, one group at a time (see
// group.go) — and any number of MVCC readers run concurrently.
type Store struct {
	// writerSem is the commit-point lock (capacity 1): whoever holds it
	// — the commit-queue leader, Quiesce, a replication applier — is
	// the only one advancing the store's LSN. Transactions never hold
	// it. A channel rather than a mutex because it is not
	// goroutine-owned: Quiesce's release func may run anywhere.
	writerSem chan struct{}

	// Commit queue. qmu guards queue and leaderActive; the leader
	// drains the queue holding writerSem.
	qmu          sync.Mutex
	queue        []*commitReq
	leaderActive bool

	mu       sync.RWMutex // guards everything below
	pages    []*pageVersion
	free     []PageID
	lsn      uint64
	readers  map[uint64]int // read LSN -> active reader count
	hook     CommitHook
	closed   bool
	readOnly error // non-nil: Begin fails with this error (replica mode)

	stats   Stats
	metrics *obs.Set // over stats
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{
		writerSem: make(chan struct{}, 1),
		readers:   make(map[uint64]int),
	}
	s.metrics = obs.NewSet(&s.stats)
	return s
}

// SetCommitHook installs the commit hook (the Retro snapshot system).
// It must be called before any transactions run.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// Close marks the store closed; subsequent Begin calls fail.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// LSN returns the current commit LSN.
func (s *Store) LSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lsn
}

// NumPages returns the number of page slots ever allocated (including
// currently free ones).
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// NumFree returns the number of pages on the free list.
func (s *Store) NumFree() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.free)
}

// Stats returns a typed point-in-time copy of the store's metrics.
func (s *Store) Stats() StatsSnapshot {
	var st StatsSnapshot
	s.metrics.Fill(&st)
	return st
}

// Metrics samples the store's metrics as the self-describing list.
func (s *Store) Metrics() []obs.Metric { return s.metrics.Snapshot() }

// ResetStats zeroes the store's counters. Page state is untouched: the
// store keeps serving reads and writes; only the accounting restarts.
func (s *Store) ResetStats() { s.metrics.Reset() }

// Begin starts a writer transaction. It never blocks on other writers:
// the transaction stages against an MVCC pin at the current LSN, and a
// write-write conflict with a transaction that committed first surfaces
// as ErrWriteConflict at commit. (The paper's BDB locks pages instead;
// the difference does not affect the studied behaviours.)
func (s *Store) Begin() (*Tx, error) { return s.BeginCtx(context.Background()) }

// BeginCtx is Begin under a context: it fails fast when ctx is already
// done, and ctx bounds the transaction's commit-queue wait (see
// Tx.finish).
func (s *Store) BeginCtx(ctx context.Context) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	if s.readOnly != nil {
		return nil, s.readOnly
	}
	// Pin the base LSN like a reader: concurrent commits must not
	// prune the versions this transaction's staged reads resolve to.
	s.readers[s.lsn]++
	return &Tx{
		store: s,
		dirty: make(map[PageID]*PageData),
		base:  s.lsn,
		ctx:   ctx,
	}, nil
}

func (s *Store) releaseWriter() { <-s.writerSem }

// BeginRead starts an MVCC read-only transaction pinned at the current
// commit LSN. It never blocks writers; the version chains retain any
// page versions it may need until it is closed.
func (s *Store) BeginRead() (*ReadTx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	s.readers[s.lsn]++
	return &ReadTx{store: s, lsn: s.lsn}, nil
}

// minReaderLSN returns the smallest pinned read LSN, or cur when no
// readers are active. Callers must hold s.mu.
func (s *Store) minReaderLSN(cur uint64) uint64 {
	min := cur
	for l := range s.readers {
		if l < min {
			min = l
		}
	}
	return min
}

// readVersion returns the content of page id visible at readLSN.
// It returns (nil, nil) when the page does not exist at that LSN
// (never allocated yet, or freed).
func (s *Store) readVersion(id PageID, readLSN uint64) (*PageData, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.pages) {
		return nil, ErrBadPage
	}
	for v := s.pages[id-1]; v != nil; v = v.prev {
		if v.lsn <= readLSN {
			s.stats.DBReads.Add(1)
			return v.data, nil
		}
	}
	return nil, nil
}

// currentVersion returns the newest committed version of a page, or
// nil when the page has never been written. Callers must hold s.mu.
func (s *Store) currentVersion(id PageID) *pageVersion {
	if id == 0 || int(id) > len(s.pages) {
		return nil
	}
	return s.pages[id-1]
}

// installVersion pushes v as the new head of the page's chain, pruning
// versions no reader with LSN >= keep can observe. Callers hold s.mu.
func (s *Store) installVersion(id PageID, v *pageVersion, keep uint64) {
	for int(id) > len(s.pages) {
		s.pages = append(s.pages, nil)
	}
	v.prev = s.pages[id-1]
	// Prune: retain the newest version with lsn <= keep and everything
	// newer; older versions are invisible to every active reader.
	for p := v; p != nil; p = p.prev {
		if p.lsn <= keep {
			p.prev = nil
			break
		}
	}
	s.pages[id-1] = v
}

// allocate hands out a page id for a writer transaction, reusing the
// free list when possible. Version chains make reuse safe: readers
// pinned before the free still resolve their own versions. Ids are
// handed out exclusively, so concurrently staging transactions never
// receive the same id (the basis of the conflict check's
// allocated-page exemption).
func (s *Store) allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.pages = append(s.pages, nil)
	return PageID(len(s.pages))
}

// unallocate returns pages reserved by a rolled-back transaction.
func (s *Store) unallocate(ids []PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = append(s.free, ids...)
}

func (s *Store) endRead(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endReadLocked(lsn)
}

// endReadLocked drops one reader pin at lsn. Callers hold s.mu.
func (s *Store) endReadLocked(lsn uint64) {
	if n := s.readers[lsn]; n > 1 {
		s.readers[lsn] = n - 1
	} else {
		delete(s.readers, lsn)
	}
}

// Package storage implements the transactional page store that plays the
// role of Berkeley DB in the paper's stack: fixed-size logical pages, a
// single-writer/multi-reader transaction model with page-level MVCC
// version chains (so read-only transactions — including Retro snapshot
// queries — never block or observe concurrent updates), a transactional
// free list, and a commit hook through which the Retro snapshot system
// captures pre-states for copy-on-write snapshotting.
//
// Following the paper's §5 assumption, the current database is
// memory-resident; durability of the current state is out of scope (the
// paper's Retro integrates with BDB recovery, which we do not model).
// Snapshot state durability is handled by the retro package's Pagelog.
package storage

import (
	"errors"
	"fmt"
)

// PageSize is the size of a logical database page in bytes.
const PageSize = 4096

// PageID identifies a logical page. IDs are 1-based; 0 means "no page".
type PageID uint32

// PageData is the content of one page.
type PageData [PageSize]byte

// Errors returned by the storage layer.
var (
	ErrReadOnly    = errors.New("storage: write on read-only transaction")
	ErrTxDone      = errors.New("storage: transaction already finished")
	ErrBadPage     = errors.New("storage: page id out of range")
	ErrPageFree    = errors.New("storage: page is free")
	ErrNoVersion   = errors.New("storage: no page version visible at read LSN")
	ErrStoreClosed = errors.New("storage: store is closed")
)

// Pager is the page access interface the B+tree (and anything else that
// stores data in pages) is written against. Writer transactions
// implement all of it; read-only views implement the read methods and
// fail the mutating ones with ErrReadOnly.
type Pager interface {
	// Get returns a read-only view of the page content. Callers must
	// not mutate the returned array; use GetMut for that.
	Get(id PageID) (*PageData, error)
	// GetMut returns a writable copy of the page registered in the
	// transaction's dirty set. Repeated calls return the same copy.
	GetMut(id PageID) (*PageData, error)
	// Allocate returns a fresh zeroed page owned by the transaction.
	Allocate() (PageID, error)
	// Free releases a page at commit time. The page must not be used
	// again within the transaction.
	Free(id PageID) error
	// Writes counts the GetMut, Allocate and Free calls made through
	// the pager: a page it returned earlier may have changed, or been
	// freed and reused, only if the count has moved since. A read-only
	// pager's count stays 0.
	Writes() uint64
}

// DirtyPage describes one page modified by a commit, as passed to the
// CommitHook. Pre is the page's current committed version, which the
// store reads at install (nil for a page with none, such as a newly
// allocated one); New is nil for freed pages.
type DirtyPage struct {
	ID  PageID
	Pre *PageData
	New *PageData
}

// CommitHook observes commits. The Retro snapshot system registers one
// to capture page pre-states (copy-on-write) and to assign snapshot
// identifiers. Every commit runs inside a group — a writer
// transaction's commit group and a replica's replicated group alike:
// BeginGroup, one Committing per commit, EndGroup, all under the store
// mutex, then GroupDurable after the mutex is released (still under the
// writer semaphore).
type CommitHook interface {
	// BeginGroup opens a commit group. The hook may take its own lock
	// here and hold it until EndGroup, so no reader observes the
	// group's log effects before they are flushed.
	BeginGroup()
	// Committing runs before one commit's new versions become visible;
	// newLSN is the commit LSN the commit will receive. declare is true
	// when the commit is WITH SNAPSHOT; the hook returns the declared
	// snapshot id (0 when declare is false). reg is CommitWithSnapshot's
	// registration argument, passed through unread (nil for a replicated
	// commit). A non-nil error vetoes the commit.
	Committing(dirty []DirtyPage, declare bool, reg any, newLSN uint64) (snapID uint64, err error)
	// EndGroup flushes the group's buffered appends as one backing
	// write and releases whatever BeginGroup acquired.
	EndGroup()
	// GroupDurable takes the flushed group's one durability decision —
	// a device flush or a skip — for the whole group of `commits`
	// commits.
	GroupDurable(commits int)
	// FlushDecisions is the number of GroupDurable calls accounted so
	// far, as flushes issued plus flushes skipped.
	FlushDecisions() uint64
}

func (id PageID) String() string { return fmt.Sprintf("page %d", uint32(id)) }

// Sum64 returns an FNV-1a hash of the page content. The retro package's
// segment sealer uses it to deduplicate identical pre-states (hash
// bucket, then full compare — the hash alone never decides equality).
func (p *PageData) Sum64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

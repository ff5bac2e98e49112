package storage

import (
	"errors"
	"fmt"
)

// Replication support. A replica store is a normal Store whose state is
// advanced only by ApplyReplicated / ApplyBootstrap while SetReadOnly
// keeps local writers out. A replicated commit takes the commit path a
// writer's does (installLocked, inside a hook group): it installs
// exactly the page versions the primary's commit installed, at the same
// LSNs, so the replica's MVCC state is byte-identical to the primary's
// at every commit boundary — and the commit hook, handed the same
// pre-states, derives the same effects the primary's hook did.

// ErrReplMismatch reports a replicated commit that does not extend the
// local state — the replica has diverged and must re-sync.
var ErrReplMismatch = errors.New("storage: replicated commit does not extend local state")

// ReplPage is one page image of a replication bootstrap.
type ReplPage struct {
	ID   PageID
	Data *PageData
}

// ReplCommit is one primary commit as shipped on a replication stream.
type ReplCommit struct {
	LSN     uint64
	Pages   []DirtyPage // post-images (New; nil = freed) in the primary's commit order; Pre is filled on apply
	Declare bool
	SnapID  uint64 // the snapshot id the primary's hook declared, when Declare
}

// SetReadOnly makes Begin fail with err until called again with nil.
// Replicated applies are unaffected; MVCC readers are unaffected.
func (s *Store) SetReadOnly(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readOnly = err
}

// ApplyReplicated installs a group of replicated commits as one commit
// group, the way applyGroup installs a writer batch: one hook group,
// installLocked per commit, one durability decision, counted as one
// group. The store's mutex is held across the whole group, so
// concurrent readers pin either the LSN before the group or the LSN
// after it — never a torn prefix. That is what keeps a replica's
// visible state on snapshot boundaries when the group is one snapshot's
// commits. A commit that does not extend the local LSN, or whose
// declared snapshot id differs from the primary's, fails the group with
// ErrReplMismatch; the commits before it (and, for a snapshot id, the
// commit itself) are fully applied, and the caller must treat the store
// as diverged.
func (s *Store) ApplyReplicated(commits []ReplCommit) error {
	s.writerSem <- struct{}{}
	defer s.releaseWriter()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStoreClosed
	}
	if s.hook != nil {
		s.hook.BeginGroup()
	}
	var err error
	committed := 0
	for _, c := range commits {
		if c.LSN != s.lsn+1 {
			err = fmt.Errorf("%w: commit LSN %d, store at %d", ErrReplMismatch, c.LSN, s.lsn)
			break
		}
		var snapID uint64
		if snapID, err = s.installLocked(c.Pages, c.Declare, nil); err != nil {
			break
		}
		committed++
		if c.Declare && snapID != c.SnapID {
			err = fmt.Errorf("%w: commit LSN %d declared snapshot %d, primary declared %d", ErrReplMismatch, c.LSN, snapID, c.SnapID)
			break
		}
	}
	if s.hook != nil {
		s.hook.EndGroup()
	}
	if committed > 0 {
		s.stats.Groups.Add(1)
		s.stats.GroupSizeBuckets.Observe(uint64(committed))
	}
	s.mu.Unlock()
	if s.hook != nil && committed > 0 {
		s.hook.GroupDurable(committed)
	}
	s.checkGroupAccounting()
	return err
}

// ApplyBootstrap loads a full replicated state into an empty store:
// page slots sized to numPages, the given current-state images
// installed at lsn, the free list replaced. Pages absent from the list
// have no version and read as free, matching the primary.
func (s *Store) ApplyBootstrap(lsn uint64, numPages int, pages []ReplPage, free []PageID) error {
	s.writerSem <- struct{}{}
	defer s.releaseWriter()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if len(s.readers) > 0 {
		return errors.New("storage: bootstrap with active readers")
	}
	if lsn < s.lsn {
		return fmt.Errorf("%w: bootstrap LSN %d behind local %d", ErrReplMismatch, lsn, s.lsn)
	}
	s.pages = make([]*pageVersion, numPages)
	for _, p := range pages {
		if p.ID == 0 || int(p.ID) > numPages {
			return fmt.Errorf("%w: bootstrap page %d outside %d slots", ErrReplMismatch, p.ID, numPages)
		}
		s.pages[p.ID-1] = &pageVersion{lsn: lsn, data: p.Data}
	}
	s.free = append([]PageID(nil), free...)
	s.lsn = lsn
	return nil
}

// PageAt returns the content of page id visible at lsn, or nil when the
// page is absent at that LSN. Unlike readVersion it does not count a
// DBRead: replication bootstrap export must not disturb the primary's
// figure counters.
func (s *Store) PageAt(id PageID, lsn uint64) *PageData {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.pages) {
		return nil
	}
	for v := s.pages[id-1]; v != nil; v = v.prev {
		if v.lsn <= lsn {
			return v.data
		}
	}
	return nil
}

// FreeList returns a copy of the free-list page ids.
func (s *Store) FreeList() []PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]PageID(nil), s.free...)
}

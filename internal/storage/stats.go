package storage

import "sync/atomic"

// Stats holds the store's monotonically increasing counters. All fields
// are safe for concurrent update.
type Stats struct {
	Commits      atomic.Uint64 // committed writer transactions
	PagesWritten atomic.Uint64 // page versions installed by commits
	DBReads      atomic.Uint64 // page reads served from the current DB

	// Group commit (group.go). Legacy-mode commits count as groups of
	// one, so Commits/Groups is the mean group size in either mode.
	Groups      atomic.Uint64 // commit groups applied (batches with >= 1 applied commit)
	Conflicts   atomic.Uint64 // transactions aborted first-committer-wins
	QueueWaitNS atomic.Uint64 // cumulative commit-queue wait, nanoseconds
	// ConflictBatches counts drained batches in which every member lost
	// first-committer-wins: nothing was applied, so they are not groups.
	ConflictBatches atomic.Uint64

	// GroupSizeBuckets histograms applied group sizes; bucket i counts
	// groups of size <= GroupSizeBounds[i], the last bucket is +Inf.
	GroupSizeBuckets [NumGroupSizeBuckets]atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Commits      uint64
	PagesWritten uint64
	DBReads      uint64

	Groups           uint64
	Conflicts        uint64
	QueueWaitNS      uint64
	ConflictBatches  uint64
	GroupSizeBuckets [NumGroupSizeBuckets]uint64
}

func (s *Stats) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Commits:         s.Commits.Load(),
		PagesWritten:    s.PagesWritten.Load(),
		DBReads:         s.DBReads.Load(),
		Groups:          s.Groups.Load(),
		Conflicts:       s.Conflicts.Load(),
		QueueWaitNS:     s.QueueWaitNS.Load(),
		ConflictBatches: s.ConflictBatches.Load(),
	}
	for i := range s.GroupSizeBuckets {
		snap.GroupSizeBuckets[i] = s.GroupSizeBuckets[i].Load()
	}
	return snap
}

// Reset zeroes all counters. Page state is untouched: the store keeps
// serving reads and writes; only the accounting restarts.
func (s *Stats) Reset() {
	s.Commits.Store(0)
	s.PagesWritten.Store(0)
	s.DBReads.Store(0)
	s.Groups.Store(0)
	s.Conflicts.Store(0)
	s.QueueWaitNS.Store(0)
	s.ConflictBatches.Store(0)
	for i := range s.GroupSizeBuckets {
		s.GroupSizeBuckets[i].Store(0)
	}
}

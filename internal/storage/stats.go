package storage

import "rql/internal/obs"

// Stats declares the store's metrics (see obs.Set). All fields are safe
// for concurrent update.
type Stats struct {
	Commits      obs.Counter `metric:"storage_commits" help:"Transactions committed on the store."`
	PagesWritten obs.Counter `metric:"storage_pages_written" help:"Page versions installed by commits."`
	DBReads      obs.Counter `metric:"storage_db_reads" help:"Page reads served from the current database."`

	// Group commit (group.go). A group is a drained batch with at least
	// one applied commit; a serial caller's commits are groups of one. A
	// batch in which every member lost first-committer-wins applied
	// nothing, so it is not a group and counts in ConflictBatches.
	Groups           obs.Counter   `metric:"commit_groups" help:"Commit groups applied (batches with at least one applied commit)."`
	Conflicts        obs.Counter   `metric:"commit_conflicts" help:"Transactions aborted first-committer-wins."`
	ConflictBatches  obs.Counter   `metric:"commit_conflict_batches" help:"Drained batches in which every member lost a conflict."`
	QueueWaitNS      obs.Counter   `metric:"commit_queue_wait_ns" help:"Cumulative commit-queue wait, nanoseconds."`
	GroupSizeBuckets obs.Histogram `metric:"commit_group_size" help:"Transactions claimed per commit group." buckets:"1,2,4,8,16,32"`

	// InvariantViolations counts end-of-batch checks that found the
	// group accounting inconsistent (see Store.checkGroupAccounting).
	InvariantViolations obs.Counter `metric:"invariant_violations" help:"End-of-batch accounting checks that failed (one flush decision per commit group, commits >= groups)."`
}

// StatsSnapshot is a point-in-time copy of Stats, filled by field name.
type StatsSnapshot struct {
	Commits      uint64
	PagesWritten uint64
	DBReads      uint64

	Groups              uint64
	Conflicts           uint64
	QueueWaitNS         uint64
	ConflictBatches     uint64
	GroupSizeBuckets    [7]uint64 // per-bucket counts; the last is +Inf
	InvariantViolations uint64
}

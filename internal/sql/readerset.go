package sql

import (
	"time"

	"rql/internal/retro"
	"rql/internal/storage"
)

// PageSet is a set of page ids, a statement's page read-set. It aliases
// the underlying storage map type so retro-level sets convert freely
// without copying.
type PageSet = map[storage.PageID]struct{}

// ReaderSet is a pre-built snapshot reader set: the SPT of every member,
// built at once from the shared Maplog segment tables, and one shared
// pinned MVCC read transaction (retro.SnapshotSet). Conn.ExecAsOfSet executes AS OF
// queries against it with O(1) per-snapshot open cost — the batch path
// of the RQL mechanisms' snapshot-set loop.
//
// A ReaderSet's snapshots are immutable after construction, and it is
// safe for concurrent use from multiple connections (concurrent readers
// may share one). It also keeps the plans of the statement texts run
// against it (ExecAsOfSet, ColumnsSet), so a text is planned once per
// set — once more for each connection running it at the same time — and
// its plans keep their per-run state (aggregate groups, sorted rows) from
// member to member for reuse. Close must be
// called when the run is done; it releases the pinned read transaction.
type ReaderSet struct {
	set   *retro.SnapshotSet
	plans planPool
}

// OpenSnapshotSet builds the SPTs of all snapshots in ids and pins one
// shared MVCC read transaction. Duplicates
// are ignored; order does not matter.
func (c *Conn) OpenSnapshotSet(ids []uint64) (*ReaderSet, error) {
	rids := make([]retro.SnapshotID, len(ids))
	for i, id := range ids {
		rids[i] = retro.SnapshotID(id)
	}
	set, err := c.db.rsys.OpenSnapshotSet(rids)
	if err != nil {
		return nil, err
	}
	return &ReaderSet{set: set}, nil
}

// Snapshots returns the member snapshot ids, sorted ascending.
func (rs *ReaderSet) Snapshots() []uint64 {
	ids := rs.set.Snapshots()
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// Scanned returns the Maplog entries the set's open hashed (see
// retro.SnapshotSet.Scanned).
func (rs *ReaderSet) Scanned() int { return rs.set.Scanned }

// BuildTime returns the wall time of the set's SPT build.
func (rs *ReaderSet) BuildTime() time.Duration { return rs.set.BuildTime }

// Close releases the set's pinned read transaction and drops its plans.
// Idempotent.
func (rs *ReaderSet) Close() {
	rs.set.Close()
	rs.plans.reset()
}

// openSnapReader opens a reader for asOf, from the set when it has the
// snapshot (O(1), shared pin) and standalone otherwise.
func openSnapReader(rsys *retro.System, set *ReaderSet, asOf retro.SnapshotID) (*retro.SnapshotReader, error) {
	if set == nil || !set.set.Contains(asOf) {
		return rsys.OpenSnapshot(asOf)
	}
	return set.set.Open(asOf)
}

package sql

import (
	"time"

	"rql/internal/retro"
	"rql/internal/storage"
)

// PageSet is a set of page ids — a statement's page read-set or a
// member's delta page set. It aliases the underlying storage map type
// so retro-level sets convert freely without copying.
type PageSet = map[storage.PageID]struct{}

// ReaderSet is a pre-built snapshot reader set: the SPT of every member
// derived by one batch Maplog sweep and one shared pinned MVCC read
// transaction (retro.SnapshotSet). Conn.ExecAsOfSet executes AS OF
// queries against it with O(1) per-snapshot open cost — the batch path
// of the RQL mechanisms' snapshot-set loop.
//
// A ReaderSet is immutable after construction and safe for concurrent
// use from multiple connections (parallel mechanism workers share one).
// Close must be called when the run is done; it releases the pinned
// read transaction.
type ReaderSet struct {
	set *retro.SnapshotSet
}

// OpenSnapshotSet builds the SPTs of all snapshots in ids with a single
// Maplog sweep and pins one shared MVCC read transaction. Duplicates
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

// MemberIndex returns snap's position in the set's ascending member
// order (false if snap is not a member).
func (rs *ReaderSet) MemberIndex(snap uint64) (int, bool) {
	return rs.set.MemberIndex(retro.SnapshotID(snap))
}

// DeltaDisjoint reports whether every page differing between the
// members at positions a and b of the ascending member order is absent
// from readSet — the proof obligation of delta pruning: when true, a
// statement whose read-set is readSet returns identical results on
// both members. examined counts the delta pages tested.
func (rs *ReaderSet) DeltaDisjoint(a, b int, readSet PageSet) (disjoint bool, examined int) {
	return rs.set.DeltaDisjoint(a, b, readSet)
}

// Scanned returns the total Maplog entries examined by the batch sweep.
func (rs *ReaderSet) Scanned() int { return rs.set.Scanned }

// BuildTime returns the wall time of the batch sweep.
func (rs *ReaderSet) BuildTime() time.Duration { return rs.set.BuildTime }

// Close releases the set's pinned read transaction. Idempotent.
func (rs *ReaderSet) Close() { rs.set.Close() }

// openSnapReader opens a reader for asOf, from the set when it has the
// snapshot (O(1), shared pin) and standalone otherwise.
func openSnapReader(rsys *retro.System, set *ReaderSet, asOf retro.SnapshotID) (*retro.SnapshotReader, error) {
	if set == nil || !set.set.Contains(asOf) {
		return rsys.OpenSnapshot(asOf)
	}
	return set.set.Open(asOf)
}

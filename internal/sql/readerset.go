package sql

import (
	"sync"
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
// safe for concurrent use from multiple connections (parallel mechanism
// workers share one). It also keeps the plans of the statement texts run
// against it (ExecAsOfSet), so a text is planned once per set — once
// more for each connection running it at the same time. Close must be
// called when the run is done; it releases the pinned read transaction.
type ReaderSet struct {
	set *retro.SnapshotSet

	mu    sync.Mutex
	plans map[string][]*textPlans // idle plans by statement text
}

// textPlans are the plans of one statement batch text, by statement
// position (nil: not a SELECT, or not run yet).
type textPlans struct{ stmts []*selectPlan }

// plan returns the plan slot of statement i of n (nil for a nil tp).
func (tp *textPlans) plan(i, n int) *selectPlan {
	if tp == nil {
		return nil
	}
	if len(tp.stmts) != n {
		tp.stmts = make([]*selectPlan, n)
	}
	if tp.stmts[i] == nil {
		tp.stmts[i] = &selectPlan{}
	}
	return tp.stmts[i]
}

// takePlans takes an idle plan set of text off the set, or a fresh one:
// plans in use are never shared.
func (rs *ReaderSet) takePlans(text string) *textPlans {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	idle := rs.plans[text]
	if n := len(idle); n > 0 {
		tp := idle[n-1]
		rs.plans[text] = idle[:n-1]
		return tp
	}
	return &textPlans{}
}

// putPlans returns a plan set taken by takePlans.
func (rs *ReaderSet) putPlans(text string, tp *textPlans) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.plans == nil {
		rs.plans = make(map[string][]*textPlans)
	}
	rs.plans[text] = append(rs.plans[text], tp)
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
	rs.mu.Lock()
	rs.plans = nil
	rs.mu.Unlock()
}

// openSnapReader opens a reader for asOf, from the set when it has the
// snapshot (O(1), shared pin) and standalone otherwise.
func openSnapReader(rsys *retro.System, set *ReaderSet, asOf retro.SnapshotID) (*retro.SnapshotReader, error) {
	if set == nil || !set.set.Contains(asOf) {
		return rsys.OpenSnapshot(asOf)
	}
	return set.set.Open(asOf)
}

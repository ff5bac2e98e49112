package core

import (
	"rql/internal/record"
	"rql/internal/sql"
)

// Delta pruning: between two snapshots, only the pages in their delta
// can differ. A mechanism iteration whose Qq read-set does not intersect
// the delta since the previous iteration would read byte-identical
// pages and produce byte-identical records — so the iteration is
// skipped and the previous iteration's cached Qq output is replayed
// through the fold instead, with bare current_snapshot() projection
// columns re-tagged to the new snapshot id.
//
// Soundness: the read-set contains every page the snapshot reader
// served while executing Qq — data, interior, catalog, and
// shared-with-current-DB pages alike. The query's page traversal is a
// deterministic function of page contents starting from pages it reads,
// so if none of those pages changed, the traversal, the pages it
// visits, and the output rows are all identical. The read-set itself is
// also unchanged across pruned iterations (same traversal), so one
// recorded set stays exact until the next full execution refreshes it.

// pruneCache is the memo of the last fully-executed iteration: its
// page read-set, its Qq output rows, and the snapshot the lane has
// advanced to (pruned iterations advance prev without touching the
// read-set or rows — identical pages mean both stay exact).
type pruneCache struct {
	valid   bool
	prev    uint64           // snapshot of the previous iteration
	readSet sql.PageSet      // read-set of the last executed iteration
	rows    [][]record.Value // Qq output of the last executed iteration
}

// deltaFunc answers the proof obligation of delta pruning: is every
// page that differs between snapshots prev and cur absent from readSet?
// checked is false when the question cannot be answered (the iteration
// then executes); examined counts the delta pages tested. A batch run
// answers from its reader set's member deltas (setDelta), a view from
// the Maplog (maplogDelta in view.go).
type deltaFunc func(prev, cur uint64, readSet sql.PageSet) (checked, disjoint bool, examined int)

// setDelta answers from the deltas the batch SPT sweep kept.
func setDelta(set *sql.ReaderSet) deltaFunc {
	return func(prev, cur uint64, readSet sql.PageSet) (bool, bool, int) {
		a, okA := set.MemberIndex(prev)
		b, okB := set.MemberIndex(cur)
		if !okA || !okB {
			return false, false, 0
		}
		disjoint, examined := set.DeltaDisjoint(a, b, readSet)
		return true, disjoint, examined
	}
}

// setupPrune decides whether this run can prune with delta: the toggle
// must be on and Qq must be statically prune-safe. The blocking reason
// is recorded on the run either way.
func (m *mech) setupPrune(conn *sql.Conn, run *RunStats, delta deltaFunc) {
	m.delta = nil
	if m.rql.noPrune.Load() {
		run.PruneReason = "delta pruning off (SetDeltaPrune)"
		return
	}
	info := conn.PruneInfo(m.qq)
	if !info.OK {
		run.PruneReason = "Qq not prune-safe: " + info.Reason
		return
	}
	m.delta, m.snapCols = delta, info.SnapCols
	run.PruneReason = ""
}

// replayRow prepares one cached row for replay at snap: when Qq
// projects bare current_snapshot() columns, those are rewritten to the
// new snapshot id (the only snapshot-dependent values a prune-safe Qq
// can emit).
func (m *mech) replayRow(row []record.Value, snap uint64) []record.Value {
	if len(m.snapCols) == 0 {
		return row
	}
	out := append([]record.Value(nil), row...)
	for _, ci := range m.snapCols {
		if ci < len(out) {
			out[ci] = record.Int(int64(snap))
		}
	}
	return out
}

// cacheRow stores a copy of one executed iteration's output row.
func cacheRow(rows [][]record.Value, row []record.Value) [][]record.Value {
	return append(rows, append([]record.Value(nil), row...))
}

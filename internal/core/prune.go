package core

import (
	"rql/internal/record"
	"rql/internal/retro"
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
// read-set or rows — identical pages mean both stay exact). The rows of
// a lane whose rows nobody else keeps live in one of two slabs the
// cache owns: an executed iteration copies its rows into the slab the
// cache does not use, which then becomes the cache's, so the rows of the
// iteration before stay intact until the new ones are complete.
type pruneCache struct {
	valid   bool
	prev    uint64           // snapshot of the previous iteration
	readSet sql.PageSet      // read-set of the last executed iteration
	rows    [][]record.Value // Qq output of the last executed iteration

	slabs [2]rowSlab
	cur   int // the slab rows live in, when they live in one
}

// spare empties and returns the slab rows do not live in.
func (pc *pruneCache) spare() *rowSlab {
	s := &pc.slabs[1-pc.cur]
	s.vals, s.ends = s.vals[:0], s.ends[:0]
	return s
}

// fill makes the executed iteration on snap the memo; slab is where its
// rows live (nil: in slices of their own).
func (pc *pruneCache) fill(snap uint64, readSet sql.PageSet, rows [][]record.Value, slab *rowSlab) {
	pc.valid, pc.prev, pc.readSet, pc.rows = true, snap, readSet, rows
	if slab == &pc.slabs[1-pc.cur] {
		pc.cur = 1 - pc.cur
	}
}

// rowSlab holds copies of one iteration's rows back to back: the values
// of every row in vals, where row k ends at ends[k]. A slab is reused
// from iteration to iteration, so once it has grown to an iteration's
// size, copying the rows allocates nothing.
type rowSlab struct {
	vals []record.Value
	ends []int
	rows [][]record.Value
}

func (s *rowSlab) add(row []record.Value) {
	s.vals = append(s.vals, row...)
	s.ends = append(s.ends, len(s.vals))
}

// seal returns the rows added since the slab was emptied.
func (s *rowSlab) seal() [][]record.Value {
	s.rows = s.rows[:0]
	start := 0
	for _, end := range s.ends {
		s.rows = append(s.rows, s.vals[start:end:end])
		start = end
	}
	return s.rows
}

// setupPrune decides whether this run can prune: the toggle must be on
// and Qq must be statically prune-safe. The blocking reason is recorded
// on the run either way.
func (m *mech) setupPrune(conn *sql.Conn, run *RunStats) {
	m.prune = false
	if m.rql.noPrune.Load() {
		run.PruneReason = "delta pruning off (SetDeltaPrune)"
		return
	}
	info := conn.PruneInfo(m.qq)
	if !info.OK {
		run.PruneReason = "Qq not prune-safe: " + info.Reason
		return
	}
	m.prune, m.snapCols = true, info.SnapCols
	run.PruneReason = ""
}

// unchanged answers the proof obligation of delta pruning — is every
// page of readSet the same as of snapshots prev and cur? — from the
// retro delta oracle, for runs and views alike. A run follows Qs order,
// so either snapshot may be the later; a repeated one is trivially
// unchanged. checked is false when the oracle cannot answer (the
// iteration then executes); examined counts the Maplog entries tested.
func (m *mech) unchanged(prev, cur uint64, readSet sql.PageSet) (checked, unchanged bool, examined int) {
	if prev == cur {
		return true, true, 0
	}
	a, b := retro.SnapshotID(min(prev, cur)), retro.SnapshotID(max(prev, cur))
	return m.rql.db.Retro().Unchanged(a, b, readSet)
}

// retag prepares one cached row for replay at snap, in buf: Qq's bare
// current_snapshot() columns (m.snapCols, the only snapshot-dependent
// values a prune-safe Qq can emit) are rewritten to the new snapshot id.
func (m *mech) retag(buf, row []record.Value, snap uint64) []record.Value {
	out := append(buf[:0], row...)
	for _, ci := range m.snapCols {
		if ci < len(out) {
			out[ci] = record.Int(int64(snap))
		}
	}
	return out
}

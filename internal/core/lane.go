package core

import (
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// lane is the mechanism executor: it runs the paper's loop body (§3,
// Fig. 5) over a sequence of snapshots on one connection, folding each
// iteration's Qq records into its fold, which writes T. A Go-level run
// steps one lane over the whole Qs; the SQL-form UDF steps one once per
// Qs row; a view keeps one across refreshes, in memory only.
type lane struct {
	m    *mech
	conn *sql.Conn
	fold fold
	// table is the fold's store (nil for AggregateDataInVariable, whose
	// value reaches T at the end).
	table *tableStore

	cache    pruneCache     // delta pruning memo (prune.go)
	retagged []record.Value // a replayed row, re-tagged for its snapshot
	run      *RunStats      // this lane's iterations and prune counters
	cost     IterationCost  // the iteration in progress

	// keepRows makes step retain the iteration's materialized rows —
	// executed or replayed — in rows (views push them to subscribers).
	keepRows bool
	rows     [][]record.Value

	start time.Time // when the lane was made: a run's wall time ends at finish
}

// newRunStats starts a run's statistics. Until a Go-level run or a view
// decides otherwise (setupPrune), pruning is off for the reason the
// SQL-form UDF path never prunes: it is the reference the batched and
// pruned runs are checked against.
func newRunStats(kind mechKind) *RunStats {
	return &RunStats{Mechanism: kind.String(), PruneReason: "SQL-form UDF path (the unpruned reference)"}
}

// tableLane returns a lane for m: its fold writes the result table
// through the paper's indexed side-store path.
func (m *mech) tableLane(conn *sql.Conn) *lane {
	ln := &lane{m: m, conn: conn, run: newRunStats(m.kind), start: time.Now()}
	if m.kind == mechAggVar {
		ln.fold = newFold(m, nil)
		return ln
	}
	ln.table = &tableStore{table: m.table}
	ln.fold = newFold(m, ln.table)
	if m.indexed() {
		// Paper §3: "at the end of the first loop-body iteration we also
		// create an index on Result". Attributed to UDF cost, which is
		// what makes Figure 12's cold AggregateDataInTable iteration more
		// expensive than CollateData's.
		ln.fold.endIter = func(*IterationCost) error {
			if ln.fold.iterations > 0 {
				return nil
			}
			return ln.createResultIndex()
		}
	}
	return ln
}

// createResultIndex builds the search index on T.
func (ln *lane) createResultIndex() error {
	if err := ln.table.commit(); err != nil {
		return err
	}
	if err := ln.conn.Exec(ln.m.resultIndexDDL(), nil); err != nil {
		return err
	}
	if err := ln.table.open(ln.conn); err != nil {
		return err
	}
	ix, err := ln.table.w.Index(ln.m.indexName())
	ln.table.index = ix
	return err
}

// steps runs the loop body over snaps in order.
func (ln *lane) steps(snaps []uint64) error {
	for _, snap := range snaps {
		if err := ln.step(snap); err != nil {
			return err
		}
	}
	return nil
}

// step runs one loop-body iteration: bind Qq to snap and fold its
// records — or, when no page Qq read has changed since the previous
// iteration, the cached records — and record the cost breakdown.
func (ln *lane) step(snap uint64) error {
	m, conn := ln.m, ln.conn
	// The breakdown is built in place in the lane: the end-of-iteration
	// hook is an indirect call, so a local would move to the heap on every
	// iteration.
	ln.cost = IterationCost{Snapshot: snap}
	cost := &ln.cost

	// One span per loop-body iteration, wrapping the IterationCost
	// breakdown this function assembles: statements executed inside the
	// iteration (the Qq binding, the result-table writes) parent under
	// it through the connection's ambient span.
	if isp := obs.StartSpan(conn.CurrentSpan(), "rql.iteration"); isp != nil {
		isp.SetInt("snapshot", int64(snap))
		saved := conn.TraceSpan()
		conn.SetTraceSpan(isp)
		defer func() {
			conn.SetTraceSpan(saved)
			isp.SetInt("pagelog_reads", int64(cost.PagelogReads)).
				SetInt("cache_hits", int64(cost.CacheHits)).
				SetInt("qq_rows", int64(cost.QqRows))
			if cost.Pruned {
				isp.SetInt("pruned", 1)
			}
			isp.End()
		}()
	}

	if !m.created {
		if err := m.createResultTable(conn, snap); err != nil {
			return err
		}
	}
	if err := ln.table.open(conn); err != nil {
		return err
	}

	// Delta-prune check: when no page of the last executed iteration's
	// read-set changed since the previous iteration, skip Qq and replay
	// the cached output.
	replay := false
	if m.prune && ln.cache.valid {
		checked, unchanged, examined := m.unchanged(ln.cache.prev, snap, ln.cache.readSet)
		cost.DeltaPages = examined
		if checked {
			ln.run.DeltaIntersections++
			replay = unchanged
		}
	}

	var (
		rows [][]record.Value
		qs   sql.ExecStats // stays zero on replay: no Qq, no page reads, no SPT work
	)
	if replay {
		// The read-set and cached rows stay valid (identical pages ⇒
		// identical traversal ⇒ identical output); only the cursor moves.
		t0 := time.Now()
		for _, row := range ln.cache.rows {
			cost.QqRows++
			rr := row
			if len(m.snapCols) > 0 {
				if ln.keepRows {
					rr = m.retag(nil, row, snap)
				} else {
					ln.retagged = m.retag(ln.retagged, row, snap) // the fold keeps no row it is given
					rr = ln.retagged
				}
			}
			if ln.keepRows {
				rows = append(rows, rr)
			}
			if err := ln.fold.record(snap, rr, cost); err != nil {
				return err
			}
		}
		cost.UDF = time.Since(t0)
		cost.Pruned = true
		ln.run.PrunedIterations++
		ln.run.PrunedRowsReplayed += len(ln.cache.rows)
		ln.cache.prev = snap
	} else {
		// The rows Qq lends the callback are copied for the prune cache:
		// into the lane's spare slab, or — when they go to view
		// subscribers, who keep them — each into a slice of its own.
		var slab *rowSlab
		if m.prune && !ln.keepRows {
			slab = ln.cache.spare()
		}
		cb := func(cols []string, row []record.Value) error {
			cost.QqRows++
			switch {
			case slab != nil:
				slab.add(row)
			case ln.keepRows:
				rows = append(rows, append([]record.Value(nil), row...))
			}
			t0 := time.Now()
			err := ln.fold.record(snap, row, cost)
			cost.UDF += time.Since(t0)
			return err
		}
		conn.SetRecordReadSet(m.prune)
		err := conn.ExecAsOfSet(m.qq, m.set, snap, cb)
		readSet := conn.ReadSet()
		conn.SetRecordReadSet(false)
		if err != nil {
			return err
		}
		qs = conn.LastStats()
		if slab != nil {
			rows = slab.seal()
		}
		if m.prune {
			ln.cache.fill(snap, readSet, rows, slab)
		}
	}

	t0 := time.Now()
	if err := ln.fold.endIteration(snap, cost); err != nil {
		return err
	}
	cost.UDF += time.Since(t0)
	fillCost(cost, &qs, m.rql.readLatency())
	ln.run.Iterations = append(ln.run.Iterations, *cost)
	ln.rows = rows
	return nil
}

// fillCost assigns the part of an iteration's cost breakdown that comes
// from Qq's statement record: the snapshot reader's counters by name, and
// the durations derived from it. The fold's time, cost.UDF, is already
// measured and comes out of the evaluation time.
func fillCost(cost *IterationCost, qs *sql.ExecStats, readLatency time.Duration) {
	obs.AddCost(cost, &qs.Counters)
	cost.IndexCreation = qs.AutoIndex
	cost.QueryEval = max(qs.Duration-qs.SPTBuildTime-qs.AutoIndex-cost.UDF, 0)
	cost.IOTime = qs.ModeledIOTime(readLatency)
}

// finish ends a run on the lane: commit (or abandon) the
// result writer, store the AggregateDataInVariable value, measure the
// result-table footprint, and publish the run statistics.
func (ln *lane) finish(commit bool) error {
	m, conn, run := ln.m, ln.conn, ln.run
	// The run goes down to the SQL connection for the slow-query log and
	// EXPLAIN ANALYZE, failed run or not.
	defer func() {
		m.rql.setLastRun(run)
		conn.NoteMechRun(run, m.String(), time.Since(ln.start))
	}()
	if !commit {
		ln.table.rollback()
		return nil
	}
	if err := ln.table.commit(); err != nil {
		return err
	}
	if !m.created {
		return nil
	}
	if m.kind == mechAggVar {
		if _, err := ln.fold.storeAggVar(conn, false); err != nil {
			return err
		}
	}
	ts, err := conn.TableStats(m.table)
	if err != nil {
		return err
	}
	run.ResultRows = ts.Rows
	run.ResultDataBytes = ts.DataBytes
	run.ResultIndexBytes = ts.IndexBytes
	return nil
}

// storeAggVar stores the AggregateDataInVariable value in T and returns
// it: it inserts T's one row, or, when replace, overwrites that row in
// place, so that no reader sees T empty in between.
func (f *fold) storeAggVar(conn *sql.Conn, replace bool) (record.Value, error) {
	val := f.val
	if f.m.monoid.Name == avgName {
		val = f.avg.value()
	}
	t := sql.QuoteIdent(f.m.table)
	if replace {
		return val, conn.Exec("UPDATE "+t+" SET "+sql.QuoteIdent(f.m.qqCols[0])+" = ?", nil, val)
	}
	return val, conn.Exec("INSERT INTO "+t+" VALUES (?)", nil, val)
}

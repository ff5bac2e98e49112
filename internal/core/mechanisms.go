package core

import (
	"fmt"
	"strings"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// mechKind identifies one of the four RQL mechanisms.
type mechKind int

const (
	mechCollate mechKind = iota
	mechAggVar
	mechAggTable
	mechIntervals
)

func (k mechKind) String() string {
	switch k {
	case mechCollate:
		return "CollateData"
	case mechAggVar:
		return "AggregateDataInVariable"
	case mechAggTable:
		return "AggregateDataInTable"
	case mechIntervals:
		return "CollateDataIntoIntervals"
	}
	return "unknown"
}

// mechState is the per-statement loop-body state of one mechanism
// invocation (the paper implements it through SQLite UDF auxdata; we
// carry it through FuncContext.Aux). It lives across the Qs iterations
// of one statement and is finalized when the statement ends.
type mechState struct {
	kind mechKind
	rql  *RQL

	inited bool
	qq     string
	table  string

	// set, when non-nil, is the batch-built reader set covering the
	// run's snapshots: iterations open their SPT from it in O(1)
	// instead of building one per snapshot. Shared read-only by the
	// parallel workers. The run driver owns its lifetime.
	set *sql.ReaderSet

	// AggregateDataInVariable.
	monoid *Monoid
	avgAcc avgAccumulator
	curVal record.Value
	valCol string

	// AggregateDataInTable / CollateDataIntoIntervals.
	pairs     []colFunc
	qqCols    []string
	groupIdx  []int
	aggIdx    []int
	avgCounts map[int64]int64
	indexName string

	created      bool
	indexCreated bool
	writer       *sql.TableWriter
	scratch      []record.Value // processRecord's probe / new-row buffer
	prevSnap     uint64
	iterations   int

	// Delta pruning (prune.go). pruneOn and pruneInfo are set once
	// before the first iteration and read-only afterwards (parallel
	// workers share them through the template); cache is the sequential
	// path's memo — each parallel worker keeps its own.
	pruneOn   bool
	pruneInfo sql.PruneInfo
	cache     pruneCache

	// Cross-iteration read-ahead pipelining (pipeline.go). pipeOn is set
	// once by the run driver and read-only afterwards (parallel workers
	// share it through the template and keep their own pipeState). next
	// is the snapshot the run loop will iterate after the current one —
	// the sequential pipeline's warm target.
	pipeOn bool
	next   uint64
	pipe   pipeState

	// Incremental view maintenance (view.go). viewPrune, when non-nil,
	// replaces the reader-set delta test in the prune check: views
	// refresh one snapshot at a time with no batch reader set, so the
	// "did anything on the read path change?" question is answered from
	// the Maplog directly (retro.DirtyBetween). sink, when non-nil,
	// observes every materialized row — executed or replayed — for
	// subscriber pushes.
	viewPrune func(prevSnap, snap uint64, readSet sql.PageSet) (checked, disjoint bool)
	sink      func(snap uint64, row []record.Value)

	run       *RunStats
	iterUDF   time.Duration // UDF time accumulated in the current iteration
	finalized bool
	finalConn *sql.Conn // connection for finalization work
}

// init parses and validates the mechanism arguments (args[0] is the
// snap_id slot, unused here).
func (st *mechState) init(conn *sql.Conn, args []record.Value) error {
	qq := args[1]
	table := args[2]
	if qq.Type() != record.TypeText || table.Type() != record.TypeText {
		return fmt.Errorf("rql: %s: Qq and T must be text", st.kind)
	}
	st.qq = qq.Text()
	st.table = table.Text()
	// The SQL-form UDF path streams Qs rows one at a time, so there is
	// no batch set and no pruning; the run drivers overwrite this via
	// setupPrune when they can do better.
	st.run = &RunStats{Mechanism: st.kind.String(), PruneReason: "SQL-form UDF path (snapshot set unknown up front)"}

	switch st.kind {
	case mechAggVar:
		name := args[3]
		if name.Type() != record.TypeText {
			return fmt.Errorf("rql: %s: AggFunc must be text", st.kind)
		}
		m := monoidByName(name.Text())
		if m == nil {
			return fmt.Errorf("rql: unknown aggregate function %q (want min, max, sum, count or avg)", name.Text())
		}
		st.monoid = m
		st.curVal = record.Null()
	case mechAggTable:
		spec := args[3]
		if spec.Type() != record.TypeText {
			return fmt.Errorf("rql: %s: ListOfColFuncPairs must be text", st.kind)
		}
		pairs, err := parsePairs(spec.Text())
		if err != nil {
			return err
		}
		st.pairs = pairs
	}
	st.inited = true
	return nil
}

// iterate runs one loop-body iteration: bind Qq to snap, execute it
// with the mechanism's record callback, and record the cost breakdown.
func (st *mechState) iterate(conn *sql.Conn, snap uint64) error {
	if st.finalized {
		return fmt.Errorf("rql: %s: iteration after finalize", st.kind)
	}
	st.finalConn = conn
	cost := IterationCost{Snapshot: snap}

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

	if !st.created {
		if err := st.createResultTable(conn, snap); err != nil {
			return err
		}
	}
	if st.kind != mechAggVar && st.writer == nil {
		w, err := conn.OpenTableWriter(st.table)
		if err != nil {
			return err
		}
		st.writer = w
	}

	st.iterUDF = 0

	// Pipelined read-ahead: settle the warm targeting this iteration
	// (crediting hidden device time), then start warming the next
	// member's likely pages so its fetches overlap this evaluation.
	if st.pipeOn {
		st.pipe.await(snap, &cost)
		st.pipe.launch(st.set, st.next, conn.CurrentSpan())
	}

	// Delta-prune check: when no page of the last executed iteration's
	// read-set changed since the previous iteration, skip Qq and replay
	// the cached output.
	var memberIdx = -1
	if st.pruneOn {
		if st.viewPrune != nil {
			// View refresh path: the snapshot id doubles as the member
			// index (snapshots materialize in declaration order).
			memberIdx = int(snap)
			if st.cache.valid {
				checked, disjoint := st.viewPrune(st.prevSnap, snap, st.cache.readSet)
				if checked {
					st.run.DeltaIntersections++
					if disjoint {
						return st.replayIteration(snap, memberIdx, &cost)
					}
				}
			}
		} else {
			idx, intersected, prune := st.pruneCheck(&st.cache, snap, &cost)
			memberIdx = idx
			if intersected {
				st.run.DeltaIntersections++
			}
			if prune {
				return st.replayIteration(snap, idx, &cost)
			}
		}
	}

	var iterRows [][]record.Value
	cb := func(cols []string, row []record.Value) error {
		cost.QqRows++
		if st.pruneOn && memberIdx >= 0 {
			iterRows = cacheRow(iterRows, row)
		}
		if st.sink != nil {
			st.sink(snap, row)
		}
		t0 := time.Now()
		err := st.processRecord(snap, row, &cost)
		st.iterUDF += time.Since(t0)
		return err
	}
	if err := conn.ExecAsOfSet(st.qq, st.set, snap, cb); err != nil {
		return err
	}
	qs := conn.LastStats()
	if st.pruneOn && memberIdx >= 0 {
		st.cache = pruneCache{valid: true, prevIdx: memberIdx, readSet: conn.ReadSet(), rows: iterRows}
	}
	if st.pipeOn {
		st.pipe.prevRS = conn.ReadSet()
	}

	// First iteration of the table mechanisms: create the result-table
	// index (paper §3: "at the end of the first loop-body iteration we
	// also create an index on Result"). Attributed to UDF cost, which
	// is what makes Figure 12's cold AggregateDataInTable iteration
	// more expensive than CollateData's.
	if st.iterations == 0 && (st.kind == mechAggTable || st.kind == mechIntervals) {
		t0 := time.Now()
		if err := st.createResultIndex(conn); err != nil {
			return err
		}
		st.iterUDF += time.Since(t0)
	}

	cost.SPTBuild = qs.SPTBuildTime
	cost.IndexCreation = qs.AutoIndex
	cost.UDF = st.iterUDF
	cost.QueryEval = qs.Duration - qs.SPTBuildTime - qs.AutoIndex - st.iterUDF
	if cost.QueryEval < 0 {
		cost.QueryEval = 0
	}
	cost.IOTime = qs.ModeledIO(st.rql.readLatency())
	cost.PagelogReads = qs.PagelogReads
	cost.CacheHits = qs.CacheHits
	cost.DBReads = qs.DBReads
	cost.MapScanned = qs.MapScanned
	cost.ClusteredReads = qs.ClusteredReads
	cost.ClusteredPages = qs.ClusteredPages
	cost.PrefetchHits = qs.PrefetchHits
	cost.QueueWait = qs.QueueWait

	st.run.Iterations = append(st.run.Iterations, cost)
	st.prevSnap = snap
	st.iterations++
	return nil
}

// createResultTable creates T shaped like Qq's output (plus the
// interval columns for CollateDataIntoIntervals). Result tables are
// temporary and live in the non-snapshotable side store (§3).
func (st *mechState) createResultTable(conn *sql.Conn, snap uint64) error {
	cols, err := conn.ColumnsSet(st.qq, st.set, snap)
	if err != nil {
		return err
	}
	if err := st.resolveShape(cols); err != nil {
		return err
	}

	var ddl strings.Builder
	ddl.WriteString("CREATE TEMP TABLE ")
	ddl.WriteString(sql.QuoteIdent(st.table))
	ddl.WriteString(" (")
	for i, c := range cols {
		if i > 0 {
			ddl.WriteString(", ")
		}
		ddl.WriteString(sql.QuoteIdent(c))
	}
	if st.kind == mechIntervals {
		ddl.WriteString(", start_snapshot INTEGER, end_snapshot INTEGER")
	}
	ddl.WriteString(")")
	if err := conn.Exec(ddl.String(), nil); err != nil {
		return err
	}
	st.created = true
	return nil
}

// resolveShape derives the mechanism's column bookkeeping (qqCols,
// aggregate/grouping indexes, accumulators) from Qq's output columns.
// Called with freshly planned columns when the result table is created,
// and with the persisted column list when a view's state is restored.
func (st *mechState) resolveShape(cols []string) error {
	if len(cols) == 0 {
		return fmt.Errorf("rql: %s: Qq returns no columns", st.kind)
	}
	st.qqCols = make([]string, len(cols))
	for i, c := range cols {
		st.qqCols[i] = strings.ToLower(c)
	}

	switch st.kind {
	case mechAggVar:
		if len(cols) != 1 {
			return fmt.Errorf("rql: %s expects Qq to return a single column, got %d", st.kind, len(cols))
		}
		st.valCol = cols[0]
	case mechAggTable:
		// Resolve pair columns; the rest are grouping columns.
		st.aggIdx = nil
		isAgg := make([]bool, len(cols))
		for _, p := range st.pairs {
			k := -1
			for i, c := range st.qqCols {
				if c == strings.ToLower(p.col) {
					k = i
					break
				}
			}
			if k < 0 {
				return fmt.Errorf("rql: %s: Qq has no column %q", st.kind, p.col)
			}
			if isAgg[k] {
				return fmt.Errorf("rql: %s: column %q appears twice in ListOfColFuncPairs", st.kind, p.col)
			}
			isAgg[k] = true
			st.aggIdx = append(st.aggIdx, k)
		}
		st.groupIdx = nil
		for i := range cols {
			if !isAgg[i] {
				st.groupIdx = append(st.groupIdx, i)
			}
		}
		if len(st.groupIdx) == 0 {
			return fmt.Errorf("rql: %s: every Qq column is aggregated; use AggregateDataInVariable", st.kind)
		}
		st.avgCounts = make(map[int64]int64)
	case mechIntervals:
		st.groupIdx = make([]int, len(cols))
		for i := range cols {
			st.groupIdx[i] = i
		}
	}
	return nil
}

// createResultIndex builds the search index on T: the grouping columns
// for AggregateDataInTable; the Qq columns plus end_snapshot for
// CollateDataIntoIntervals (so the "record alive through the previous
// snapshot" lookup is a single exact probe).
func (st *mechState) createResultIndex(conn *sql.Conn) error {
	if st.writer != nil {
		if err := st.writer.Commit(); err != nil {
			return err
		}
		st.writer = nil
	}
	if err := conn.Exec(st.resultIndexDDL(), nil); err != nil {
		return err
	}
	st.indexCreated = true
	w, err := conn.OpenTableWriter(st.table)
	if err != nil {
		return err
	}
	st.writer = w
	return nil
}

// resultIndexDDL builds the CREATE INDEX statement for the result
// table's search index and records the index name on the state.
func (st *mechState) resultIndexDDL() string {
	st.indexName = "rql_idx_" + st.table
	var ddl strings.Builder
	ddl.WriteString("CREATE INDEX ")
	ddl.WriteString(sql.QuoteIdent(st.indexName))
	ddl.WriteString(" ON ")
	ddl.WriteString(sql.QuoteIdent(st.table))
	ddl.WriteString(" (")
	for i, gi := range st.groupIdx {
		if i > 0 {
			ddl.WriteString(", ")
		}
		ddl.WriteString(sql.QuoteIdent(st.qqCols[gi]))
	}
	if st.kind == mechIntervals {
		ddl.WriteString(", end_snapshot")
	}
	ddl.WriteString(")")
	return ddl.String()
}

// processRecord handles one Qq output record in the mechanism-specific
// way (§2's operational descriptions).
func (st *mechState) processRecord(snap uint64, row []record.Value, cost *IterationCost) error {
	switch st.kind {
	case mechCollate:
		if _, err := st.writer.Insert(row); err != nil {
			return err
		}
		cost.ResultInserts++
		return nil

	case mechAggVar:
		if len(row) != 1 {
			return fmt.Errorf("rql: %s: Qq returned %d columns", st.kind, len(row))
		}
		if cost.QqRows > 1 {
			return fmt.Errorf("rql: %s: Qq returned more than one row for snapshot %d", st.kind, snap)
		}
		if st.monoid.Name == avgName {
			st.avgAcc.add(row[0])
		} else {
			st.curVal = st.monoid.Combine(st.curVal, row[0])
		}
		return nil

	case mechAggTable:
		if len(row) != len(st.qqCols) {
			return fmt.Errorf("rql: %s: Qq returned %d columns, expected %d", st.kind, len(row), len(st.qqCols))
		}
		if st.iterations == 0 {
			// First iteration: wholesale insert of the Qq output.
			rowid, err := st.writer.Insert(row)
			if err != nil {
				return err
			}
			cost.ResultInserts++
			st.avgCounts[rowid] = 1
			return nil
		}
		group := st.scratch[:0]
		for _, gi := range st.groupIdx {
			group = append(group, row[gi])
		}
		st.scratch = group
		cost.ResultSearch++
		rowid, existing, found, err := st.writer.LookupByIndex(st.indexName, group)
		if err != nil {
			return err
		}
		if !found {
			rowid, err := st.writer.Insert(row)
			if err != nil {
				return err
			}
			cost.ResultInserts++
			st.avgCounts[rowid] = 1
			return nil
		}
		// existing is ours (LookupByIndex decodes into a fresh row) and
		// Update takes newVals over, so this is the update's one copy.
		newVals := append([]record.Value(nil), existing...)
		changed := false
		for pi, p := range st.pairs {
			k := st.aggIdx[pi]
			var nv record.Value
			if p.agg.Name == avgName {
				var n int64
				nv, n = avgMerge(existing[k], st.avgCounts[rowid], row[k])
				st.avgCounts[rowid] = n
			} else {
				nv = p.agg.Combine(existing[k], row[k])
			}
			if record.Compare(nv, newVals[k]) != 0 || nv.Type() != newVals[k].Type() {
				newVals[k] = nv
				changed = true
			}
		}
		if changed {
			if err := st.writer.Update(rowid, existing, newVals); err != nil {
				return err
			}
			cost.ResultUpdates++
		}
		return nil

	case mechIntervals:
		if len(row) != len(st.qqCols) {
			return fmt.Errorf("rql: %s: Qq returned %d columns, expected %d", st.kind, len(row), len(st.qqCols))
		}
		// withSnaps builds the row followed by snapshot columns in the
		// state's scratch buffer: Insert and LookupByIndex copy what
		// they keep, so one buffer serves the probe and the new row.
		withSnaps := func(snaps ...uint64) []record.Value {
			vals := append(st.scratch[:0], row...)
			for _, s := range snaps {
				vals = append(vals, record.Int(int64(s)))
			}
			st.scratch = vals
			return vals
		}
		if st.iterations > 0 {
			// Probe for a record whose lifetime extends through the
			// previous iteration's snapshot.
			cost.ResultSearch++
			rowid, existing, found, err := st.writer.LookupByIndex(st.indexName, withSnaps(st.prevSnap))
			if err != nil {
				return err
			}
			if found {
				newVals := append([]record.Value(nil), existing...)
				newVals[len(newVals)-1] = record.Int(int64(snap)) // end_snapshot
				if err := st.writer.Update(rowid, existing, newVals); err != nil {
					return err
				}
				cost.ResultUpdates++
				return nil
			}
		}
		if _, err := st.writer.Insert(withSnaps(snap, snap)); err != nil {
			return err
		}
		cost.ResultInserts++
		return nil
	}
	return fmt.Errorf("rql: unknown mechanism %d", st.kind)
}

// FinalizeStmt implements sql.StmtFinalizer: commit (or abandon) the
// result writer, store the AggregateDataInVariable result, measure the
// result-table footprint, and publish the run statistics.
func (st *mechState) FinalizeStmt(commit bool) error {
	if st.finalized {
		return nil
	}
	st.finalized = true
	// The UDF aux state is created before init validates arguments; a
	// validation failure leaves nothing to finalize.
	if !st.inited {
		return nil
	}
	// Settle any in-flight warm and derive the run-level prefetch
	// summary (a failed run still drains, so no fetch outlives it).
	st.pipe.drain()
	st.run.PipelinedPrefetches += st.pipe.pages
	st.pipe.pages = 0
	finishPipelineStats(st.run)
	conn := st.finalConn
	if st.writer != nil {
		if commit {
			if err := st.writer.Commit(); err != nil {
				return err
			}
		} else {
			st.writer.Rollback()
		}
		st.writer = nil
	}
	if !commit {
		st.rql.setLastRun(st.run)
		st.noteRun(conn)
		return nil
	}
	if st.kind == mechAggVar && st.created && conn != nil {
		val := st.curVal
		if st.monoid.Name == avgName {
			val = st.avgAcc.value()
		}
		if err := conn.Exec(
			"INSERT INTO "+sql.QuoteIdent(st.table)+" VALUES (?)", nil, val); err != nil {
			return err
		}
	}
	if st.created && conn != nil {
		ts, err := conn.TableStats(st.table)
		if err != nil {
			return err
		}
		st.run.ResultRows = ts.Rows
		st.run.ResultDataBytes = ts.DataBytes
		st.run.ResultIndexBytes = ts.IndexBytes
	}
	st.rql.setLastRun(st.run)
	st.noteRun(conn)
	return nil
}

// noteRun pushes the finished run's profile down to the SQL connection
// (sql cannot import this package, so the conversion into the neutral
// sql.MechProfile shape happens here). The connection feeds it to the
// slow-query log's mechanism columns and to EXPLAIN ANALYZE.
func (st *mechState) noteRun(conn *sql.Conn) {
	if conn == nil || st.run == nil {
		return
	}
	conn.NoteMechRun(mechProfile(st.run))
}

// mechProfile converts run statistics into the SQL layer's shape.
func mechProfile(run *RunStats) *sql.MechProfile {
	p := &sql.MechProfile{
		Mechanism:      run.Mechanism,
		PrunedIters:    run.PrunedIterations,
		ReplayedRows:   run.PrunedRowsReplayed,
		PruneReason:    run.PruneReason,
		PrefetchHits:   run.PrefetchHits,
		PrefetchWasted: run.PrefetchWasted,
	}
	p.Iterations = make([]sql.MechIterProfile, 0, len(run.Iterations))
	for _, it := range run.Iterations {
		p.Iterations = append(p.Iterations, sql.MechIterProfile{
			Snapshot:     it.Snapshot,
			Wall:         it.Total(),
			SPTBuild:     it.SPTBuild,
			IndexCreate:  it.IndexCreation,
			QueryEval:    it.QueryEval,
			UDF:          it.UDF,
			IOTime:       it.IOTime,
			QueueWait:    it.QueueWait,
			PagelogReads: it.PagelogReads,
			CacheHits:    it.CacheHits,
			PrefetchHits: it.PrefetchHits,
			Rows:         it.QqRows,
			Pruned:       it.Pruned,
			DeltaPages:   it.DeltaPages,
		})
	}
	return p
}

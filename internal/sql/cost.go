package sql

import (
	"fmt"
	"time"

	"rql/internal/obs"
	"rql/internal/retro"
)

// The cost records of a statement, a mechanism iteration and a mechanism
// run — the paper's reporting unit (Figures 8–13: I/O, SPT build, index
// creation, query evaluation, UDF). Each cost is one `cost`-tagged field
// (obs/cost.go); sums, averages, wire bodies and report lines walk the
// declarations. The mechanism layer sits above this package and fills the
// iteration and run records; they are declared here because this is the
// lowest layer that consumes them (EXPLAIN ANALYZE, the slow-query log).

// ExecStats reports the measured costs of the last statement executed
// on a connection, broken down the way the paper's §5 figures are: the
// snapshot reader's page I/O and SPT construction, transient index
// creation, and the remainder (query evaluation, which for RQL
// statements includes the UDF work — IterationCost splits that part
// further).
type ExecStats struct {
	RowsReturned int           `cost:"rows"`
	Duration     time.Duration `cost:"wall"`  // wall time of the statement
	AutoIndex    time.Duration `cost:"index"` // transient covering indexes for joins

	// The statement's snapshot reader: Pagelog reads, cache hits, pages
	// shared with the current DB, Maplog entries scanned, SPT build time.
	retro.Counters
}

// IterationCost is the cost breakdown of one RQL loop-body iteration —
// one snapshot of the Qs set — matching the stacked bars of the paper's
// Figures 8–13: I/O, SPT build, index creation, query evaluation, and
// RQL UDF processing.
type IterationCost struct {
	Snapshot uint64 `cost:"snap,id"`

	// SPTBuild is the time to construct the snapshot page table.
	SPTBuild time.Duration `cost:"spt_build"`
	// IndexCreation is the time spent building transient covering
	// indexes while evaluating Qq (Figure 9's dominant cost for
	// un-indexed joins). Result-table index creation is part of UDF
	// (the paper attributes it to the cold iteration's UDF cost).
	IndexCreation time.Duration `cost:"index"`
	// QueryEval is Qq's evaluation time excluding SPT build, index
	// creation and UDF processing.
	QueryEval time.Duration `cost:"eval"`
	// UDF is the mechanism's own processing: result-table inserts,
	// searches, aggregate updates, and (in the cold iteration of the
	// table mechanisms) the result-table index build.
	UDF time.Duration `cost:"udf"`
	// IOTime is the modeled Pagelog read cost (PagelogReads × the
	// configured per-read latency).
	IOTime time.Duration `cost:"io"`

	// Raw counters, device-independent.
	PagelogReads int `cost:"pagelog_reads"`
	CacheHits    int `cost:"cache_hits"`
	DBReads      int `cost:"db_reads"`
	MapScanned   int `cost:"map_scanned"`

	QqRows        int `cost:"rows"` // Qq rows processed (replayed, when pruned)
	ResultInserts int `cost:"result_inserts"`
	ResultUpdates int `cost:"result_updates"`
	ResultSearch  int `cost:"result_search"`

	// Delta pruning: Pruned marks a skipped iteration whose cached
	// output was replayed; DeltaPages counts the Maplog entries the
	// delta oracle (retro.System.Unchanged) tested against the read-set
	// deciding this iteration.
	Pruned     bool `cost:"pruned,id"`
	DeltaPages int  `cost:"delta_pages"`
}

// Total is the modeled total cost of the iteration.
func (c IterationCost) Total() time.Duration {
	return c.SPTBuild + c.IndexCreation + c.QueryEval + c.UDF + c.IOTime
}

// RunStats aggregates a whole mechanism run: its name, its iterations,
// and the run-level cost record.
type RunStats struct {
	Mechanism  string
	Iterations []IterationCost

	// The snapshot set, when the run used a pre-built reader set: one
	// open built every iteration's SPT. BatchMapScanned is the Maplog
	// entries that open hashed — the segment tables no earlier open had
	// built, plus the open tail once — so a repeat run over the same
	// history counts only the tail. Its time and entries are also
	// billed to the first iteration's SPTBuild/MapScanned so Total()
	// stays comparable with the per-iteration path (whose opens are
	// spread across iterations).
	BatchBuilds     int           `cost:"batch_builds"`
	BatchMapScanned int           `cost:"batch_map_scanned"`
	BatchBuildTime  time.Duration `cost:"batch_build"`

	// Delta pruning, in Go-level runs and views with a prune-safe Qq:
	// iterations skipped, cached rows replayed by them, and delta oracle
	// checks answered. PruneReason is empty when pruning was active, else
	// why it was not.
	PrunedIterations   int    `cost:"pruned"`
	PrunedRowsReplayed int    `cost:"replayed_rows"`
	DeltaIntersections int    `cost:"delta_intersections"`
	PruneReason        string `cost:"prune_off,id"`

	// Always zero and not part of the record: benchmark/trace.go, their
	// sole reader, still names them.
	PipelinedPrefetches, PrefetchHits, PrefetchWasted int

	// Result-table footprint after the run (§5.3 memory experiments).
	ResultRows       int   `cost:"result_rows"`
	ResultDataBytes  int64 `cost:"result_data_bytes"`
	ResultIndexBytes int64 `cost:"result_index_bytes"`
}

// Total sums the per-iteration costs.
func (r *RunStats) Total() IterationCost { return sumCosts(r.Iterations) }

func sumCosts(its []IterationCost) IterationCost {
	var t IterationCost
	for i := range its {
		obs.AddCost(&t, &its[i])
	}
	return t
}

// Cold returns the first (cold) iteration's cost, and Hot the average
// of the remaining (hot) iterations — the paper's cold/hot bars.
func (r *RunStats) Cold() IterationCost {
	if len(r.Iterations) == 0 {
		return IterationCost{}
	}
	return r.Iterations[0]
}

// Hot averages the hot iterations (all but the first).
func (r *RunStats) Hot() IterationCost {
	if len(r.Iterations) < 2 {
		return IterationCost{}
	}
	t := sumCosts(r.Iterations[1:])
	obs.DivCost(&t, len(r.Iterations)-1)
	return t
}

// Report renders the run as EXPLAIN ANALYZE and the shell's .mech show
// it: a MECHANISM header with the run-level record, then one ITERATION
// line per snapshot with its record and modeled total.
func (r *RunStats) Report() []string {
	lines := make([]string, 0, 1+len(r.Iterations))
	lines = append(lines, fmt.Sprintf("MECHANISM %s iterations=%d %s", r.Mechanism, len(r.Iterations), obs.FormatCost(r)))
	for i := range r.Iterations {
		it := &r.Iterations[i]
		lines = append(lines, fmt.Sprintf("  ITERATION %s wall=%s", obs.FormatCost(it), it.Total().Round(time.Microsecond)))
	}
	return lines
}

// NoteMechRun records that a retrospective mechanism run ended on this
// connection, taking wall; the mechanism layer's run finalizer calls it.
// The run is what EXPLAIN ANALYZE renders, and its cost reaches the
// slow-query log exactly once: billed to the statement batch that drove
// it (the SQL-form UDF; the iterations' own reads happen in nested Qq
// batches whose accounting execAsOf scopes out), or, when no statement
// encloses the run (the Go-level and request forms), as an entry of its
// own under call, the invocation in the paper's notation.
func (c *Conn) NoteMechRun(run *RunStats, call string, wall time.Duration) {
	c.lastMech = run
	e, enclosed := c.slow, c.slow != nil
	if !enclosed {
		if obs.SlowThreshold() == 0 {
			return
		}
		e = &obs.SlowEntry{SQL: truncSQL(call), Duration: wall, Trace: c.span.TraceID(), Rows: int64(run.ResultRows)}
	}
	e.Mechanism = run.Mechanism
	total := run.Total()
	obs.AddCost(e, run)
	obs.AddCost(e, &total)
	if !enclosed {
		obs.ObserveQuery(*e)
	}
}

package core

import "time"

// IterationCost is the cost breakdown of one RQL loop-body iteration —
// one snapshot of the Qs set — matching the stacked bars of the paper's
// Figures 8–13: I/O, SPT build, index creation, query evaluation, and
// RQL UDF processing.
type IterationCost struct {
	Snapshot uint64

	// SPTBuild is the time to construct the snapshot page table.
	SPTBuild time.Duration
	// IndexCreation is the time spent building transient covering
	// indexes while evaluating Qq (Figure 9's dominant cost for
	// un-indexed joins). Result-table index creation is part of UDF
	// (the paper attributes it to the cold iteration's UDF cost).
	IndexCreation time.Duration
	// QueryEval is Qq's evaluation time excluding SPT build, index
	// creation and UDF processing.
	QueryEval time.Duration
	// UDF is the mechanism's own processing: result-table inserts,
	// searches, aggregate updates, and (in the cold iteration of the
	// table mechanisms) the result-table index build.
	UDF time.Duration
	// IOTime is the modeled Pagelog read cost (PagelogReads × the
	// configured per-read latency).
	IOTime time.Duration
	// OverlapTime is device service time for this iteration's pages that
	// was hidden behind the previous iteration's evaluation by the
	// cross-iteration read-ahead pipeline (zero when pipelining is off).
	OverlapTime time.Duration
	// QueueWait is wall time this iteration's demand misses spent queued
	// behind other device commands before service began — contention,
	// not billed I/O, so it is excluded from Total() and from the
	// byte-identical counter comparisons the property tests pin.
	QueueWait time.Duration

	// Raw counters, device-independent.
	PagelogReads int
	CacheHits    int
	DBReads      int
	MapScanned   int
	PrefetchHits int // logical reads satisfied early by a warmed page

	QqRows        int
	ResultInserts int
	ResultUpdates int
	ResultSearch  int

	// Delta pruning: Pruned marks a skipped iteration whose cached
	// output was replayed; DeltaPages counts the delta pages tested
	// against the read-set deciding this iteration.
	Pruned     bool
	DeltaPages int
}

// Total is the modeled total cost of the iteration.
func (c IterationCost) Total() time.Duration {
	return c.SPTBuild + c.IndexCreation + c.QueryEval + c.UDF + c.IOTime
}

// RunStats aggregates a whole mechanism run.
type RunStats struct {
	Mechanism  string
	Iterations []IterationCost

	// Batch SPT construction, when the run used a pre-built reader set:
	// one Maplog sweep derived every iteration's SPT. Its time and
	// entries scanned are also billed to the first iteration's
	// SPTBuild/MapScanned so Total() stays comparable with the
	// per-iteration path (whose builds are spread across iterations).
	BatchBuilds     int
	BatchMapScanned int
	BatchBuildTime  time.Duration

	// Delta pruning, when the run used a batch reader set and a
	// prune-safe Qq: iterations skipped, cached rows replayed by them,
	// and delta × read-set intersections computed. PruneReason is empty
	// when pruning was active, else why it was not.
	PrunedIterations   int
	PrunedRowsReplayed int
	DeltaIntersections int
	PruneReason        string

	// Pipelined I/O, when the run overlapped the next iteration's page
	// fetches with the current iteration's evaluation:
	// PipelinedPrefetches counts pages the pipeline warmed into the
	// snapshot cache, PrefetchHits the logical reads satisfied early by
	// a warmed page (from the pipeline or clustered prefetch), and
	// PrefetchWasted the warmed pages never demanded.
	PipelinedPrefetches int
	PrefetchHits        int
	PrefetchWasted      int

	// Result-table footprint after the run (§5.3 memory experiments).
	ResultRows       int
	ResultDataBytes  int64
	ResultIndexBytes int64
}

// Total sums the per-iteration costs.
func (r *RunStats) Total() IterationCost { return sumCosts(r.Iterations) }

// sumCosts adds up the durations and counters of its.
func sumCosts(its []IterationCost) IterationCost {
	var t IterationCost
	for _, c := range its {
		t.SPTBuild += c.SPTBuild
		t.IndexCreation += c.IndexCreation
		t.QueryEval += c.QueryEval
		t.UDF += c.UDF
		t.IOTime += c.IOTime
		t.OverlapTime += c.OverlapTime
		t.QueueWait += c.QueueWait
		t.PagelogReads += c.PagelogReads
		t.CacheHits += c.CacheHits
		t.DBReads += c.DBReads
		t.MapScanned += c.MapScanned
		t.PrefetchHits += c.PrefetchHits
		t.QqRows += c.QqRows
		t.ResultInserts += c.ResultInserts
		t.ResultUpdates += c.ResultUpdates
		t.ResultSearch += c.ResultSearch
		t.DeltaPages += c.DeltaPages
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
	n := len(r.Iterations) - 1
	t := sumCosts(r.Iterations[1:])
	d := time.Duration(n)
	t.SPTBuild /= d
	t.IndexCreation /= d
	t.QueryEval /= d
	t.UDF /= d
	t.IOTime /= d
	t.OverlapTime /= d
	t.QueueWait /= d
	t.PagelogReads /= n
	t.CacheHits /= n
	t.DBReads /= n
	t.MapScanned /= n
	t.PrefetchHits /= n
	t.QqRows /= n
	t.ResultInserts /= n
	t.ResultUpdates /= n
	t.ResultSearch /= n
	t.DeltaPages /= n
	return t
}

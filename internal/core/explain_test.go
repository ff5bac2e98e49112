package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rql/internal/obs"
	"rql/internal/sql"
)

// scrubRun zeroes the wall-clock and timing-dependent fields of a run
// so the remaining counters — the paper's Figures 6–13 series — can be
// compared byte for byte. Billed Pagelog reads, cache hits, Maplog
// scans, Qq rows and result writes are deterministic for a fixed
// workload; measured durations and prefetch-race counters are not.
func scrubRun(r *RunStats) *RunStats {
	if r == nil {
		return nil
	}
	cp := *r
	cp.BatchBuildTime = 0
	cp.PipelinedPrefetches = 0
	cp.PrefetchHits = 0
	cp.PrefetchWasted = 0
	cp.Iterations = make([]IterationCost, len(r.Iterations))
	for i, it := range r.Iterations {
		it.SPTBuild = 0
		it.IndexCreation = 0
		it.QueryEval = 0
		it.UDF = 0
		it.IOTime = 0
		it.OverlapTime = 0
		it.QueueWait = 0
		it.PrefetchHits = 0
		cp.Iterations[i] = it
	}
	return &cp
}

// TestExplainAnalyzeMatchesPlainRun is the EXPLAIN ANALYZE property
// test: EA is observation-only. Running a mechanism under EXPLAIN
// ANALYZE must produce the same result table and byte-identical run
// counters as running the same statement plainly. Two independent,
// identically-built databases execute the identical workload, one plain
// and one under EA.
func TestExplainAnalyzeMatchesPlainRun(t *testing.T) {
	const mech = `SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn',
		'Result') FROM SnapIds`

	rPlain, cPlain := fixture(t)
	mustExec(t, cPlain, mech)
	plainRows := queryRows(t, cPlain, `SELECT l_userid, sid FROM Result`)
	plainRun := rPlain.LastRun()
	plainStats := cPlain.LastStats()

	rEA, cEA := fixture(t)
	report := queryRows(t, cEA, `EXPLAIN ANALYZE `+mech)
	eaRows := queryRows(t, cEA, `SELECT l_userid, sid FROM Result`)
	eaRun := rEA.LastRun()

	// Same side effects: the result table is identical.
	expectSet(t, eaRows, plainRows...)

	// Same counters, byte for byte, once wall-clock noise is scrubbed.
	if plainRun == nil || eaRun == nil {
		t.Fatalf("runs not recorded: plain=%v ea=%v", plainRun, eaRun)
	}
	if got, want := scrubRun(eaRun), scrubRun(plainRun); !reflect.DeepEqual(got, want) {
		t.Errorf("EA run counters diverge from plain execution:\nEA:    %+v\nplain: %+v", got, want)
	}

	// EA's LastStats reports the executed statement itself: one result
	// row per SnapIds snapshot (the UDF's scalar output), same as plain.
	joined := strings.Join(report, "\n")
	if got := cEA.LastStats().RowsReturned; got != plainStats.RowsReturned {
		t.Errorf("EA RowsReturned = %d, plain = %d\nreport:\n%s",
			got, plainStats.RowsReturned, joined)
	}

	// The report carries the plan, the summary, and one line per
	// iteration with the profile fields.
	for _, want := range []string{
		"SCAN TABLE", "EXECUTED rows=3", "MECHANISM CollateData iterations=3",
		"ITERATION snap=1", "ITERATION snap=2", "ITERATION snap=3",
		"pagelog_reads=", "queue_wait=",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("report misses %q:\n%s", want, joined)
		}
	}

	// The profile also fed the connection's slow-query cost: the run's
	// mechanism name and billed reads are what the slow log would show.
	if eaRun.Mechanism != "CollateData" {
		t.Errorf("run mechanism = %q", eaRun.Mechanism)
	}
}

// TestNoteMechRunProfile checks the profile pushed down to the SQL
// layer mirrors the run statistics field by field.
func TestNoteMechRunProfile(t *testing.T) {
	run := &RunStats{
		Mechanism:          "CollateData",
		PrunedIterations:   1,
		PrunedRowsReplayed: 4,
		PruneReason:        "",
		PrefetchHits:       2,
		PrefetchWasted:     1,
		Iterations: []IterationCost{
			{Snapshot: 1, SPTBuild: time.Millisecond, QueryEval: 2 * time.Millisecond,
				QueueWait: 3 * time.Microsecond, PagelogReads: 10, CacheHits: 1, QqRows: 5},
			{Snapshot: 2, Pruned: true, QqRows: 4, DeltaPages: 2},
		},
	}
	p := mechProfile(run)
	if p.Mechanism != "CollateData" || p.PrunedIters != 1 || p.ReplayedRows != 4 {
		t.Fatalf("profile header: %+v", p)
	}
	if len(p.Iterations) != 2 {
		t.Fatalf("profile has %d iterations", len(p.Iterations))
	}
	it := p.Iterations[0]
	if it.Snapshot != 1 || it.Wall != run.Iterations[0].Total() ||
		it.QueueWait != 3*time.Microsecond || it.PagelogReads != 10 ||
		it.CacheHits != 1 || it.Rows != 5 || it.Pruned {
		t.Fatalf("iteration 0: %+v", it)
	}
	if !p.Iterations[1].Pruned || p.Iterations[1].DeltaPages != 2 {
		t.Fatalf("iteration 1: %+v", p.Iterations[1])
	}

	var _ *sql.MechProfile = p // the neutral shape the SQL layer consumes
}

// TestSlowLogMechanismColumns pins the mechanism enrichment of the
// slow-query log: a statement that drives a mechanism logs the
// mechanism's name (and pruning count) alongside the usual fields.
func TestSlowLogMechanismColumns(t *testing.T) {
	obs.ResetSlowLog()
	obs.SetSlowThreshold(time.Nanosecond) // everything is slow
	t.Cleanup(func() {
		obs.SetSlowThreshold(0)
		obs.ResetSlowLog()
	})

	_, c := fixture(t)
	mustExec(t, c, `SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid FROM LoggedIn',
		'Result') FROM SnapIds`)

	var found bool
	for _, e := range obs.SlowEntries() {
		if !strings.Contains(e.SQL, "CollateData") {
			continue
		}
		found = true
		if e.Mechanism != "CollateData" {
			t.Errorf("slow entry mechanism = %q, want CollateData", e.Mechanism)
		}
		if e.PrunedIters != 0 {
			t.Errorf("slow entry pruned iterations = %d, want 0 (nothing to prune)", e.PrunedIters)
		}
	}
	if !found {
		t.Fatalf("slow log misses the mechanism statement: %+v", obs.SlowEntries())
	}
}

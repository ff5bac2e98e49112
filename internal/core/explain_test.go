package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rql/internal/obs"
)

// scrub zeroes the fields of a cost record that depend on the wall clock
// — every duration — so what remains, the paper's Figures 6–13 series,
// can be compared byte for byte: billed Pagelog reads, cache hits, Maplog scans, Qq rows and
// result writes are deterministic for a fixed workload. It walks the
// declaration, so a counter the record gains is compared without being
// named here.
func scrub(rec any) {
	obs.WalkCost(rec, func(_ obs.CostField, v reflect.Value) {
		if _, timed := v.Interface().(time.Duration); timed {
			v.SetZero()
		}
	})
}

// scrubRun returns a scrubbed copy of a run.
func scrubRun(r *RunStats) *RunStats {
	if r == nil {
		return nil
	}
	cp := *r
	scrub(&cp)
	cp.Iterations = append([]IterationCost(nil), r.Iterations...)
	for i := range cp.Iterations {
		scrub(&cp.Iterations[i])
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

	// EA's LastStats reports the executed statement itself — one result
	// row per SnapIds snapshot (the UDF's scalar output), not the report
	// lines — and the whole record matches the plain run's.
	joined := strings.Join(report, "\n")
	eaStats := cEA.LastStats()
	scrub(&eaStats)
	scrub(&plainStats)
	if eaStats != plainStats {
		t.Errorf("EA statement record = %+v, plain = %+v\nreport:\n%s", eaStats, plainStats, joined)
	}

	// The report carries the plan, the summary, and one line per
	// iteration with the profile fields.
	for _, want := range []string{
		"SCAN TABLE", "EXECUTED rows=3", "MECHANISM CollateData iterations=3",
		"ITERATION snap=1", "ITERATION snap=2", "ITERATION snap=3",
		"pagelog_reads=", "queue_wait=",
		// Fields the old hand-copied profile dropped.
		"db_reads=", "map_scanned=", "delta_pages=",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("report misses %q:\n%s", want, joined)
		}
	}

	// Each line is its record's declaration walked: every additive field
	// is a token of it, none hand-picked.
	for prefix, rec := range map[string]any{
		"EXECUTED ":           &eaStats,
		"MECHANISM ":          eaRun,
		"  ITERATION snap=2 ": &eaRun.Iterations[1],
	} {
		var line string
		for _, l := range report {
			if strings.HasPrefix(l, prefix) {
				line = l
			}
		}
		obs.WalkCost(rec, func(f obs.CostField, _ reflect.Value) {
			if !f.Identity && !strings.Contains(line, " "+f.Name+"=") {
				t.Errorf("%q line misses field %q: %q", prefix, f.Name, line)
			}
		})
	}
	if eaRun.Mechanism != "CollateData" {
		t.Errorf("run mechanism = %q", eaRun.Mechanism)
	}
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

package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rql/internal/obs"
	"rql/internal/sql"
)

// fillSentinels sets every declared field of the cost record rec points
// to to a distinct non-zero value (base+1, base+2, ... in declaration
// order; durations in microseconds so they survive rendering) and
// returns the last value used.
func fillSentinels(rec any, base int64) int64 {
	obs.WalkCost(rec, func(_ obs.CostField, v reflect.Value) {
		base++
		switch v.Interface().(type) {
		case bool:
			v.SetBool(true)
		case string:
			v.SetString(fmt.Sprintf("sentinel %d", base))
		case uint64:
			v.SetUint(uint64(base))
		case time.Duration:
			v.SetInt(base * int64(time.Microsecond))
		default:
			v.SetInt(base)
		}
	})
	return base
}

// scaled returns it with every additive field multiplied by k.
func scaled(it sql.IterationCost, k int64) sql.IterationCost {
	obs.WalkCost(&it, func(f obs.CostField, v reflect.Value) {
		if !f.Identity {
			v.SetInt(k * v.Int())
		}
	})
	return it
}

// TestCostDeclaredOnce holds every consumer of a cost record to the
// record's one declaration: with each declared field of ExecStats,
// IterationCost and RunStats set to its own sentinel, the wire codec, the
// sums, the hot average and the report lines must each account for every
// field — so a field that misses a consumer cannot exist.
func TestCostDeclaredOnce(t *testing.T) {
	var stats sql.ExecStats
	var it sql.IterationCost
	run := &sql.RunStats{Mechanism: "CollateData"}
	n := fillSentinels(&stats, 0)
	n = fillSentinels(&it, n)
	fillSentinels(run, n)
	run.Iterations = []sql.IterationCost{it, scaled(it, 3)}
	// The walk reached every Go field: a cost added without a tag would
	// be invisible to every consumer below. RunStats' three always-zero
	// ints kept for benchmark/trace.go are the whole untagged allowance.
	var untagged []string
	for _, rec := range []any{stats, it, *run} {
		v := reflect.ValueOf(rec)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				untagged = append(untagged, v.Type().String()+"."+v.Type().Field(i).Name)
			}
		}
	}
	allowed := []string{"sql.RunStats.PipelinedPrefetches", "sql.RunStats.PrefetchHits", "sql.RunStats.PrefetchWasted"}
	if !reflect.DeepEqual(untagged, allowed) {
		t.Fatalf("fields without a cost tag: %v, want exactly %v", untagged, allowed)
	}

	// (a) The wire codec is the identity on every field.
	e := &Enc{}
	EncodeCost(e, &stats)
	d := &Dec{B: e.B}
	if got := decodeExecStats(d); got != stats || d.Err() != nil || len(d.B) != 0 {
		t.Errorf("ExecStats over the wire = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), stats)
	}
	e = &Enc{}
	EncodeRunStats(e, run)
	d = &Dec{B: e.B}
	if got := DecodeRunStats(d); !reflect.DeepEqual(got, run) || d.Err() != nil || len(d.B) != 0 {
		t.Errorf("RunStats over the wire = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), run)
	}

	// (b) Total over {it, it} doubles and Hot over {cold, it, 3·it}
	// averages (to 2·it) every additive field; identity fields — a
	// snapshot id, a pruned flag — are neither summed nor averaged.
	total := (&sql.RunStats{Iterations: []sql.IterationCost{it, it}}).Total()
	hot := (&sql.RunStats{Iterations: []sql.IterationCost{{}, it, scaled(it, 3)}}).Hot()
	want := scaled(it, 2)
	want.Snapshot, want.Pruned = 0, false
	if total != want {
		t.Errorf("Total of two = %+v, want %+v", total, want)
	}
	if hot != want {
		t.Errorf("Hot of three = %+v, want %+v", hot, want)
	}

	// (c) Every field's name is a token of the rendering EXPLAIN ANALYZE
	// and the shell print: FormatCost for the statement (EXECUTED,
	// .stats), Report for the run (MECHANISM/ITERATION, .mech).
	report := run.Report()
	if len(report) != 3 {
		t.Fatalf("report has %d lines, want a header and two iterations:\n%s", len(report), strings.Join(report, "\n"))
	}
	for _, c := range []struct {
		rec  any
		line string
	}{
		{&stats, obs.FormatCost(&stats)},
		{run, report[0]},
		{&run.Iterations[0], report[1]},
		{&run.Iterations[1], report[2]},
	} {
		obs.WalkCost(c.rec, func(f obs.CostField, v reflect.Value) {
			if !strings.Contains(" "+c.line, " "+f.Name+"=") {
				t.Errorf("%T field %q is missing from its line:\n%s", c.rec, f.Name, c.line)
			}
		})
	}
	if !strings.HasPrefix(report[0], "MECHANISM CollateData iterations=2 ") ||
		!strings.HasPrefix(report[1], "  ITERATION snap=") || !strings.Contains(report[1], " wall=") {
		t.Errorf("report shape changed:\n%s", strings.Join(report, "\n"))
	}
}

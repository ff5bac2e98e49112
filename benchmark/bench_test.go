package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload once untraced and once traced at tiny
// sizes: every metric BENCHMARK.json names must come out, finite, and
// the oracle must pass. It guards the harness against rot; the numbers
// mean nothing at this size.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name(), seed: 7, seconds: 0.3, trace: trace, tiny: true, tmp: t.TempDir(), quiet: true}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name(), trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name(), trace, res.failed, res.attempted)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			for _, d := range defs {
				v, ok := res.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s missing or not finite (%v)", w.name(), trace, d.name, v)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name(), d.name, res.metrics[d.name])
					}
				}
			}
		}
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the program emits, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bf.Workloads[i].Name, w.name())
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics)
	same("per_layer", bf.PerLayer, perLayerMetrics)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}

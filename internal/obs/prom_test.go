package obs

import (
	"strings"
	"testing"
	"time"
)

func TestWriteMetricsRoundTrip(t *testing.T) {
	ms := []Metric{
		{Name: "test_total", Help: `a "quoted" help
with a newline and a \`, Value: 42},
		{Name: "test_gauge", Kind: KindGauge, Label: "view", LabelValue: "v1", Value: 3},
		// A second series of the first family, declared later: the
		// encoder groups it under the family's one TYPE line.
		{Name: "test_total", Label: "id", LabelValue: "a\nb\\c\"d", Value: 7},
		{Name: "test_seconds", Kind: KindHistogram,
			Bounds: []float64{0.001, 0.01, 0.1},
			Counts: []uint64{3, 2, 1, 4}, // disjoint; encoder accumulates
			Sum:    1.25},
	}
	var b strings.Builder
	if err := WriteMetrics(&b, "rql_", ms); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// The exporter's own validator accepts its output — the contract
	// /metrics is tested through.
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}

	for _, want := range []string{
		"# TYPE rql_test_total counter",
		"rql_test_total 42\n" + `rql_test_total{id="a\nb\\c\"d"} 7`,
		"# TYPE rql_test_gauge gauge",
		`rql_test_gauge{view="v1"} 3`,
		// Cumulative le series derived from disjoint bucket counts.
		`rql_test_seconds_bucket{le="0.001"} 3`,
		`rql_test_seconds_bucket{le="0.01"} 5`,
		`rql_test_seconds_bucket{le="0.1"} 6`,
		`rql_test_seconds_bucket{le="+Inf"} 10`,
		"rql_test_seconds_sum 1.25",
		"rql_test_seconds_count 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition misses %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE rql_test_total"); n != 1 {
		t.Errorf("family rql_test_total announced %d times, want once:\n%s", n, out)
	}
}

func TestWriteMetricsRejectsBadNames(t *testing.T) {
	var b strings.Builder
	if err := WriteMetrics(&b, "", []Metric{{Name: "1bad"}}); err == nil {
		t.Error("metric name starting with a digit should be rejected")
	}
	if err := WriteMetrics(&b, "", []Metric{{Name: "ok", Label: "bad-label", LabelValue: "x", Value: 1}}); err == nil {
		t.Error("label name with a dash should be rejected")
	}
	// Histogram with the wrong bucket-count arity.
	err := WriteMetrics(&b, "", []Metric{{Name: "h", Kind: KindHistogram, Bounds: []float64{1}, Counts: []uint64{1}}})
	if err == nil {
		t.Error("histogram with len(Counts) != len(Bounds)+1 should be rejected")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, data := range map[string]string{
		"bad metric name":   "1bad_name 3\n",
		"unparsable value":  "rql_x{a=\"b\"} notanumber\n",
		"unclosed label":    "rql_x{a=\"b 3\n",
		"non-cumulative le": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
	} {
		if err := ValidateExposition(data); err == nil {
			t.Errorf("%s: validator accepted %q", name, data)
		}
	}
	if err := ValidateExposition("# TYPE rql_ok counter\nrql_ok 1\n"); err != nil {
		t.Errorf("minimal valid exposition rejected: %v", err)
	}
}

func TestTimelineRing(t *testing.T) {
	counters := map[string]uint64{"queries": 0}
	gauges := map[string]uint64{"conns": 1}
	tl := NewTimeline(time.Second, 3, func() []Metric {
		return []Metric{
			{Name: "queries", Value: counters["queries"]},
			{Name: "conns", Kind: KindGauge, Value: gauges["conns"]},
			{Name: "latency", Kind: KindHistogram}, // not sampled
		}
	})

	// The first tick only establishes the baseline.
	tl.tick()
	if pts := tl.Points(); len(pts) != 0 {
		t.Fatalf("baseline tick produced %d points, want 0", len(pts))
	}

	counters["queries"] = 10
	gauges["conns"] = 4
	tl.tick()
	pts := tl.Points()
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	if pts[0].Rates["queries"] <= 0 {
		t.Errorf("rate for an advancing counter should be positive, got %v", pts[0].Rates["queries"])
	}
	if pts[0].Gauges["conns"] != 4 {
		t.Errorf("gauge passed through = %v, want 4", pts[0].Gauges["conns"])
	}

	// A counter that moves backwards (stats reset) re-baselines with a
	// zero rate instead of a huge negative one.
	counters["queries"] = 2
	tl.tick()
	pts = tl.Points()
	if last := pts[len(pts)-1]; last.Rates["queries"] != 0 {
		t.Errorf("reset counter rate = %v, want 0", last.Rates["queries"])
	}

	// The ring keeps the newest size points, oldest first.
	for i := 0; i < 5; i++ {
		counters["queries"] += 10
		tl.tick()
	}
	pts = tl.Points()
	if len(pts) != 3 {
		t.Fatalf("ring retained %d points, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].When.Before(pts[i-1].When) {
			t.Fatalf("points out of order: %v before %v", pts[i].When, pts[i-1].When)
		}
	}
}

func TestTimelineStartStop(t *testing.T) {
	var n uint64
	tl := NewTimeline(time.Millisecond, 8, func() []Metric {
		n += 1000
		return []Metric{{Name: "c", Value: n}}
	})
	tl.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(tl.Points()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tl.Stop()
	tl.Stop() // idempotent
	if len(tl.Points()) == 0 {
		t.Fatal("started timeline never sampled")
	}
}

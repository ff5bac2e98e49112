package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"rql/internal/core"
)

// quickCfg is a tiny configuration that exercises every experiment in
// seconds.
func quickCfg() Config {
	return Config{SF: 0.002, Quick: true, ReadLatency: 20 * time.Microsecond}
}

func TestQsRange(t *testing.T) {
	got := QsRange(3, 9, 1)
	if !strings.Contains(got, "snap_id >= 3") || !strings.Contains(got, "snap_id <= 9") {
		t.Errorf("QsRange: %s", got)
	}
	stepped := QsRange(1, 100, 10)
	if !strings.Contains(stepped, "% 10 = 0") {
		t.Errorf("QsRange step: %s", stepped)
	}
}

func TestEnvBuildAndSharing(t *testing.T) {
	e, err := NewEnv(UW30, 20, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Last != 20 {
		t.Errorf("Last = %d", e.Last)
	}
	// A consecutive run must beat the all-cold baseline on Pagelog
	// reads: C < 1 (the sharing headline of §5.1).
	c := readRatio(t, e, 1, 10, QqIO)
	if c <= 0 || c >= 1 {
		t.Errorf("ratio C = %.3f, want within (0, 1)", c)
	}
}

// readRatio is ratio C computed on deterministic Pagelog-read counts
// (immune to wall-clock noise at tiny test scales).
func readRatio(t *testing.T, e *Env, lo, hi uint64, qq string) float64 {
	t.Helper()
	measured, err := e.ColdRun(mechAggVarAvg, QsRange(lo, hi, 1), qq)
	if err != nil {
		t.Fatal(err)
	}
	var cold int
	for s := lo; s <= hi; s++ {
		rs, err := e.ColdRun(mechAggVarAvg, QsRange(s, s, 1), qq)
		if err != nil {
			t.Fatal(err)
		}
		cold += rs.Total().PagelogReads
	}
	if cold == 0 {
		t.Fatal("no pagelog reads in all-cold baseline")
	}
	return float64(measured.Total().PagelogReads) / float64(cold)
}

func TestRatioCOrdering(t *testing.T) {
	// More sharing (finer workload) => lower C — for OLD snapshots,
	// where the all-cold baseline fetches the full working set from the
	// Pagelog while hot iterations fetch only the inter-snapshot diff
	// (§5.1). Histories must exceed the overwrite cycle so snapshots
	// 1..12 are fully archived.
	cfg := quickCfg()
	e30, err := NewEnv(UW30, UW30.Cycle+20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e30.Close()
	e15, err := NewEnv(UW15, UW15.Cycle+20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e15.Close()

	c30 := readRatio(t, e30, 1, 12, QqIO)
	c15 := readRatio(t, e15, 1, 12, QqIO)
	if c15 >= c30 {
		t.Errorf("UW15 C (%.3f) should be below UW30 C (%.3f): more sharing", c15, c30)
	}
	if c30 >= 1 || c15 >= 1 {
		t.Errorf("sharing should keep C below 1: UW30=%.3f UW15=%.3f", c30, c15)
	}
}

// Figure 8's shape in the counter domain, on fig-check's quick UW30
// sweep: every hot iteration reads fewer Pagelog pages than its cold
// iteration, and the cold iterations read fewer the more recent their
// interval (old snapshot, Slast-50, Slast-25), whose pages the current
// database increasingly shares.
func TestFig8HotCutsIOAndRecentIsCheaper(t *testing.T) {
	r := NewRunner(Config{SF: 0.01, Quick: true, Seed: 1}, io.Discard)
	defer r.Close()
	_, runs, err := r.fig8Runs()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, rs := range runs {
		label, cold := fig8Labels[i], rs.Cold().PagelogReads
		for k, it := range rs.Iterations[1:] {
			if it.PagelogReads >= cold {
				t.Errorf("%s: hot iteration %d read %d Pagelog pages, cold %d", label, k+1, it.PagelogReads, cold)
			}
		}
		if i > 0 && cold >= prev {
			t.Errorf("%s: cold iteration read %d Pagelog pages, the older interval %d", label, cold, prev)
		}
		prev = cold
	}
}

// Figure 13's shape in the counter domain: MAX and SUM run identical
// cold iterations, and SUM's hot iterations update the result table
// more often than MAX's, which moves only when the extreme does.
func TestFig13SumUpdatesExceedMax(t *testing.T) {
	e, err := NewEnv(UW30, UW30.Cycle+20, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := QsRange(1, 12, 1)
	maxRun, err := e.ColdRun(aggTable("(cn,MAX)"), qs, QqAggCn)
	if err != nil {
		t.Fatal(err)
	}
	sumRun, err := e.ColdRun(aggTable("(cn,SUM)"), qs, QqAggCn)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(c core.IterationCost) [3]int {
		return [3]int{c.ResultInserts, c.ResultUpdates, c.ResultSearch}
	}
	if mc, sc := ops(maxRun.Cold()), ops(sumRun.Cold()); mc != sc || mc[0] == 0 {
		t.Errorf("cold result ops (ins, upd, srch): MAX %v, SUM %v; want equal and non-empty", mc, sc)
	}
	if mu, su := maxRun.Hot().ResultUpdates, sumRun.Hot().ResultUpdates; su <= mu {
		t.Errorf("hot result updates: SUM %d, MAX %d; want SUM above MAX", su, mu)
	}
}

// §5.3's footprint shape in the counter domain: the intervals
// representation has fewer rows than raw collation on UW15 and UW30,
// and grows with the update rate from UW15 to UW30.
func TestMemIntervalsSmallerAndGrowWithUpdates(t *testing.T) {
	const history, ilen = 16, 12
	rows := map[string][2]int{} // workload -> {CollateData, Intervals}
	for _, uw := range []UW{UW15, UW30} {
		e, err := NewEnv(uw, history, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		qs := QsRange(e.Last-ilen+1, e.Last, 1)
		coll, err := e.ColdRun(mechCollate, qs, QqInt)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := e.ColdRun(mechIntervals, qs, QqInt)
		if err != nil {
			t.Fatal(err)
		}
		rows[uw.Name] = [2]int{coll.ResultRows, iv.ResultRows}
		if iv.ResultRows == 0 || iv.ResultRows >= coll.ResultRows {
			t.Errorf("%s: Intervals %d rows, CollateData %d; want fewer, non-zero", uw.Name, iv.ResultRows, coll.ResultRows)
		}
	}
	if iv15, iv30 := rows["UW15"][1], rows["UW30"][1]; iv30 <= iv15 {
		t.Errorf("Intervals rows: UW15 %d, UW30 %d; want growth with the update rate", iv15, iv30)
	}
}

// §5.3's other footprint claim in the counter domain: AggregateDataInTable
// keeps one row per group however many snapshots it folds, so AggT's
// rows and data bytes are the same for |Qs| = 6, 12 and 24, while
// CollateData's rows grow in proportion to |Qs|.
func TestMemAggTFootprintIndependentOfQs(t *testing.T) {
	const history = 26
	e, err := NewEnv(UW30, history, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var aggRows, aggBytes, collRows []int
	for _, n := range []uint64{6, 12, 24} {
		qs := QsRange(e.Last-n+1, e.Last, 1)
		agg, err := e.ColdRun(aggTable("(cn,MAX):(av,MAX)"), qs, QqAgg)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := e.ColdRun(mechCollate, qs, QqAgg)
		if err != nil {
			t.Fatal(err)
		}
		aggRows, aggBytes = append(aggRows, agg.ResultRows), append(aggBytes, int(agg.ResultDataBytes))
		collRows = append(collRows, coll.ResultRows)
	}
	t.Logf("|Qs| 6/12/24: AggT rows %v, data bytes %v; CollateData rows %v", aggRows, aggBytes, collRows)
	for i := 1; i < len(aggRows); i++ {
		if aggRows[i] != aggRows[0] || aggBytes[i] != aggBytes[0] {
			t.Errorf("AggT footprint moves with |Qs|: rows %v, data bytes %v", aggRows, aggBytes)
			break
		}
	}
	if aggRows[0] == 0 {
		t.Error("AggT kept no rows")
	}
	if collRows[0] == 0 || collRows[1] != 2*collRows[0] || collRows[2] != 4*collRows[0] {
		t.Errorf("CollateData rows %v for |Qs| 6/12/24, want proportional to |Qs|", collRows)
	}
}

func TestCollateDateForFraction(t *testing.T) {
	e, err := NewEnv(UW30, 4, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	lo, err := e.CollateDateForFraction(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := e.CollateDateForFraction(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("date quantiles out of order: %s vs %s", lo, hi)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Headers: []string{"a", "bee"},
	}
	tab.Add(1, 2.5)
	tab.Add("x", 1500*time.Microsecond)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "bee", "2.500", "1.50ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// Every experiment runs end-to-end at quick scale and prints a table.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	var buf bytes.Buffer
	r := NewRunner(quickCfg(), &buf)
	defer r.Close()
	if err := r.RunAll(); err != nil {
		t.Fatalf("RunAll: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, ex := range Experiments {
		if FindExperiment(ex.Name) == nil {
			t.Errorf("FindExperiment(%q) failed", ex.Name)
		}
	}
	for _, marker := range []string{
		"Table 1", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"Figure 10", "Figure 11", "Figure 12", "Figure 13", "§5.3",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("experiment output missing %q", marker)
		}
	}
	if FindExperiment("nope") != nil {
		t.Error("FindExperiment of unknown name should be nil")
	}
}

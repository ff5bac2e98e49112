package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
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
		"Batch SPT",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("experiment output missing %q", marker)
		}
	}
	if FindExperiment("nope") != nil {
		t.Error("FindExperiment of unknown name should be nil")
	}
}

// The batch report must show the one-sweep win on Maplog entries
// scanned over the SQL-form UDF statement for every mechanism, and
// round-trip through JSON.
func TestBatchReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a TPC-H environment")
	}
	var buf bytes.Buffer
	r := NewRunner(quickCfg(), &buf)
	defer r.Close()
	rep, err := r.BatchReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("got %d results, want 8 (4 mechanisms x 2 modes)", len(rep.Results))
	}
	for _, res := range rep.Results {
		// The legacy side is the SQL-form UDF statement, which has no
		// parallel mode: sequential rows carry it, parallel rows leave it
		// absent.
		if res.Mode == "sequential" {
			if res.Batch.MapScanned >= res.Legacy.MapScanned {
				t.Errorf("%s/%s: batch scanned %d Maplog entries, legacy %d — batch must be strictly lower",
					res.Mechanism, res.Mode, res.Batch.MapScanned, res.Legacy.MapScanned)
			}
			if res.Legacy.WallNS <= 0 {
				t.Errorf("%s/%s: missing legacy wall time: %+v", res.Mechanism, res.Mode, res)
			}
		} else if res.Legacy != (BatchSide{}) {
			t.Errorf("%s/%s: parallel row carries a legacy side: %+v", res.Mechanism, res.Mode, res.Legacy)
		}
		if res.Batch.WallNS <= 0 || res.Pruned.WallNS <= 0 {
			t.Errorf("%s/%s: missing wall times: %+v", res.Mechanism, res.Mode, res)
		}
		if res.Snapshots != rep.SetSize {
			t.Errorf("%s/%s: snapshots %d, want %d", res.Mechanism, res.Mode, res.Snapshots, rep.SetSize)
		}
		// The measured window declares quiet snapshots, so the pruned
		// side must skip some members and do strictly less Pagelog work;
		// the sides it is compared against must not prune.
		if res.Pruned.PrunedIterations == 0 {
			t.Errorf("%s/%s: pruned side skipped no iterations", res.Mechanism, res.Mode)
		}
		// Skipped iterations do no page fetches at all, so the pruned
		// side must fetch strictly fewer pages in total; Pagelog reads
		// can only shrink (the first executed iteration still pays the
		// cold reads, later quiet members would have hit the cache).
		pf := res.Pruned.PagelogReads + res.Pruned.CacheHits
		bf := res.Batch.PagelogReads + res.Batch.CacheHits
		if pf >= bf {
			t.Errorf("%s/%s: pruned side fetched %d pages, batch %d — pruned must be strictly lower",
				res.Mechanism, res.Mode, pf, bf)
		}
		if res.Pruned.PagelogReads > res.Batch.PagelogReads {
			t.Errorf("%s/%s: pruned side did %d Pagelog reads, batch %d — pruning must not add reads",
				res.Mechanism, res.Mode, res.Pruned.PagelogReads, res.Batch.PagelogReads)
		}
		if res.Legacy.PrunedIterations != 0 || res.Batch.PrunedIterations != 0 {
			t.Errorf("%s/%s: legacy/batch sides pruned despite SetDeltaPrune(false)", res.Mechanism, res.Mode)
		}
	}
	// The replica fan-out phase must have timed both topologies over the
	// same amount of work.
	if f := rep.Fanout; f == nil {
		t.Error("report missing the replica fan-out phase")
	} else if f.Single.WallNS <= 0 || f.Fanout.WallNS <= 0 ||
		f.Single.Queries == 0 || f.Single.Queries != f.Fanout.Queries {
		t.Errorf("fan-out sides malformed: %+v", f)
	}
	// The group-commit phase must show one flush per commit at one
	// writer (groups of one — the serial baseline), and concurrent
	// writers batched into genuinely fewer flushes and winning on it.
	if len(rep.GroupCommit) == 0 || rep.GroupCommit[0].Writers != 1 {
		t.Fatalf("report missing the group-commit phase or its 1-writer baseline row: %+v", rep.GroupCommit)
	}
	for _, res := range rep.GroupCommit {
		g := res.Grouped
		t.Logf("group-commit %2dw: %s (%.0f c/s, %d commits, %d flushes) → %.2fx",
			res.Writers, g.Wall, g.CommitsPerSec, g.Commits, g.Flushes, res.Speedup)
		if g.WallNS <= 0 || g.Commits != uint64(res.Writers*res.Ops) {
			t.Errorf("group-commit %dw row malformed: %+v", res.Writers, res)
		}
		if res.Writers == 1 {
			if g.Flushes != g.Commits {
				t.Errorf("group-commit 1w: flushed %d times for %d commits, want one per commit", g.Flushes, g.Commits)
			}
			continue
		}
		if g.Flushes >= g.Commits {
			t.Errorf("group-commit %dw: flushed %d times for %d commits — batching must reduce flushes",
				res.Writers, g.Flushes, g.Commits)
		}
		if res.Speedup < 3 {
			t.Errorf("group-commit %dw: %.2fx the 1-writer commit rate, want >= 3x on the sleeping device",
				res.Writers, res.Speedup)
		}
	}
	// The view-refresh phase must show the tentpole property: extending
	// the view by one snapshot beats a full recompute, by a growing
	// margin as the history lengthens, and the sparse pattern pruned.
	if rep.ViewRefresh == nil {
		t.Fatal("report missing the view-refresh phase")
	}
	ratios := map[string][]float64{}
	for _, p := range rep.ViewRefresh.Points {
		t.Logf("view-refresh %-6s history %4d: incremental %s, full %s → %.0fx (pruned share %.2f)",
			p.Pattern, p.History, p.Incremental.Wall, p.Full.Wall, p.Ratio, p.PrunedShare)
		if p.Incremental.WallNS <= 0 || p.Full.WallNS <= 0 || p.Rows == 0 {
			t.Errorf("view-refresh %s/%d malformed: %+v", p.Pattern, p.History, p)
		}
		if p.Ratio < 2 {
			t.Errorf("view-refresh %s/%d: full/incremental ratio %.2fx, want >= 2x",
				p.Pattern, p.History, p.Ratio)
		}
		if p.Pattern == "sparse" && p.PrunedShare == 0 {
			t.Errorf("view-refresh sparse/%d: no refresh was pruned despite quiet snapshots", p.History)
		}
		ratios[p.Pattern] = append(ratios[p.Pattern], p.Ratio)
	}
	for pattern, rs := range ratios {
		if len(rs) < 2 {
			t.Errorf("view-refresh %s: only %d points", pattern, len(rs))
			continue
		}
		if last := rs[len(rs)-1]; last < 1.2*rs[0] {
			t.Errorf("view-refresh %s: ratio did not grow with history (%.1fx -> %.1fx); incremental cost must be history-independent",
				pattern, rs[0], last)
		}
	}
	// The runs file appends instead of overwriting; a legacy flat
	// report is wrapped as the first run, and two runs can be compared.
	path := t.TempDir() + "/BENCH_rql.json"
	flat, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Runs older than PR 18 carry a pipeline block; it is simply skipped.
	flat = bytes.Replace(flat, []byte(`"results":`), []byte(`"pipeline": [{"mechanism": "CollateData", "speedup": 3.1}], "results":`), 1)
	if err := os.WriteFile(path, flat, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendRun(path, rep, map[string]bool{"quick": true}); err != nil {
		t.Fatal(err)
	}
	bf, err := LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (wrapped legacy report + appended run)", len(bf.Runs))
	}
	if len(bf.Runs[0].Report.Results) != len(rep.Results) {
		t.Errorf("wrapped legacy run lost results: %d vs %d", len(bf.Runs[0].Report.Results), len(rep.Results))
	}
	if !bf.Runs[1].Flags["quick"] {
		t.Error("appended run lost its flags")
	}
	var cmp bytes.Buffer
	if err := Compare(path, &cmp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cmp.String(), "newest run vs previous") {
		t.Errorf("compare output:\n%s", cmp.String())
	}
}

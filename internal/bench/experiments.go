package bench

import (
	"fmt"
	"io"
	"sort"

	"rql/internal/core"
)

// Runner executes experiments, lazily building and sharing workload
// environments.
type Runner struct {
	Cfg  Config
	Out  io.Writer
	envs map[string]*Env
}

// NewRunner creates a runner writing tables to out.
func NewRunner(cfg Config, out io.Writer) *Runner {
	return &Runner{Cfg: cfg.withDefaults(), Out: out, envs: make(map[string]*Env)}
}

// Close releases all environments.
func (r *Runner) Close() {
	for _, e := range r.envs {
		e.Close()
	}
	r.envs = nil
}

// historyFull is the history length experiments on old snapshots need:
// the first maxInterval snapshots must be fully overwritten.
func (r *Runner) historyFull(uw UW) int {
	return uw.Cycle + r.maxInterval() + 10
}

// maxInterval is the longest snapshot interval swept (Figure 6's x-axis
// reaches 100 in the paper).
func (r *Runner) maxInterval() int {
	if r.Cfg.Quick {
		return 24
	}
	return 100
}

// env returns (building if needed) the shared environment for an
// update workload at the given minimum history.
func (r *Runner) env(uw UW, history int) (*Env, error) {
	key := fmt.Sprintf("%s/%d", uw.Name, history)
	if e, ok := r.envs[key]; ok {
		return e, nil
	}
	fmt.Fprintf(r.Out, "[setup] building %s environment: SF=%g, %d snapshots...\n",
		uw.Name, r.Cfg.SF, history)
	e, err := NewEnv(uw, history, r.Cfg)
	if err != nil {
		return nil, err
	}
	r.envs[key] = e
	return e, nil
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	Name  string // "fig6" ... "mem"
	Title string
	Run   func(r *Runner) error
}

// Experiments lists every §5 table/figure reproduction, in paper order.
var Experiments = []Experiment{
	{"table1", "Table 1: parameters and notations", (*Runner).Table1},
	{"fig6", "Figure 6: ratio C vs interval length (old snapshots)", (*Runner).Fig6},
	{"fig7", "Figure 7: ratio C vs interval start (recent snapshots)", (*Runner).Fig7},
	{"fig8", "Figure 8: single-iteration cost, I/O-intensive Qq", (*Runner).Fig8},
	{"fig9", "Figure 9: single-iteration cost, CPU-intensive Qq", (*Runner).Fig9},
	{"fig10", "Figure 10: CollateData with varying Qq output size", (*Runner).Fig10},
	{"fig11", "Figure 11: CollateData+SQL vs AggregateDataInTable", (*Runner).Fig11},
	{"fig12", "Figure 12: single-iteration cost, CollateData vs AggT", (*Runner).Fig12},
	{"fig13", "Figure 13: AggregateDataInTable, MAX vs SUM", (*Runner).Fig13},
	{"mem", "§5.3: result-table memory footprints", (*Runner).Mem},
	{"ablation", "§3 ablation: index-based vs sort-merge AggregateDataInTable", (*Runner).Ablation},
}

// FindExperiment resolves an experiment by name.
func FindExperiment(name string) *Experiment {
	for i := range Experiments {
		if Experiments[i].Name == name {
			return &Experiments[i]
		}
	}
	return nil
}

// Table1 prints the parameter glossary (the paper's Table 1, with the
// scaled workload sizes used here).
func (r *Runner) Table1() error {
	g := Config{SF: r.Cfg.SF}.withDefaults()
	orders := int(float64(1500000) * g.SF)
	t := &Table{
		Title:   "Table 1: parameters and notations (scaled)",
		Note:    fmt.Sprintf("scale factor %g: %d orders; paper runs SF 1.0 (1.5M orders)", g.SF, orders),
		Headers: []string{"parameter", "notation", "description"},
	}
	t.Add("Update workload", "UW15", fmt.Sprintf("delete+insert %d orders (and lineitems) per snapshot; overwrite cycle 100", orders/UW15.Cycle))
	t.Add("Update workload", "UW30", fmt.Sprintf("delete+insert %d orders per snapshot; overwrite cycle 50", orders/UW30.Cycle))
	t.Add("Query Qs", "Qs_N", "snapshot interval of length N (optionally with a step)")
	t.Add("Query Qq", "Qq_io", QqIO)
	t.Add("Query Qq", "Qq_cpu", QqCPU)
	t.Add("Query Qq", "Qq_collate", fmt.Sprintf(QqCollate, "[DATE]"))
	t.Add("Query Qq", "Qq_agg", QqAgg)
	t.Add("Query Qq", "Qq_int", QqInt)
	t.Add("RQL UDF", "CollateData", "CollateData(Qs, Qq, T)")
	t.Add("RQL UDF", "AggV", "AggregateDataInVariable(Qs, Qq, T, AggFunc)")
	t.Add("RQL UDF", "AggT", "AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)")
	t.Add("RQL UDF", "Intervals", "CollateDataIntoIntervals(Qs, Qq, T)")
	t.Add("Aggregate function", "", "MIN, MAX, SUM, COUNT, AVG")
	t.Fprint(r.Out)
	return nil
}

// Fig6 sweeps the snapshot interval length over old snapshots for
// UW30/UW15 at steps 1 and 10, reporting ratio C (§5.1).
func (r *Runner) Fig6() error {
	lengths := []int{2, 5, 10, 20, 30, 50, 70, 100}
	if r.Cfg.Quick {
		lengths = []int{2, 6, 12, 24}
	}
	t := &Table{
		Title: "Figure 6: ratio C with old snapshots (AggV(Qs_N, Qq_io, AVG))",
		Note: "C = measured RQL cost / all-cold cost; lower = more sharing benefit.\n" +
			"Expect: high C for short intervals, convergence beyond ~20; UW15 < UW30; step 10 ≈ 1.",
		Headers: []string{"interval_len", "UW30_step1", "UW15_step1", "UW30_step10", "UW15_step10"},
	}
	for _, n := range lengths {
		row := []any{n}
		for _, cfg := range []struct {
			uw   UW
			step int
		}{{UW30, 1}, {UW15, 1}, {UW30, 10}, {UW15, 10}} {
			e, err := r.env(cfg.uw, r.historyFull(cfg.uw))
			if err != nil {
				return err
			}
			if cfg.step >= n {
				row = append(row, "-") // fewer than two iterations
				continue
			}
			c, err := e.RatioC(mechAggVarAvg, 1, uint64(n), cfg.step, QqIO)
			if err != nil {
				return err
			}
			row = append(row, c)
		}
		t.Add(row...)
	}
	t.Fprint(r.Out)
	return nil
}

// Fig7 fixes the interval length at 50 consecutive snapshots and sweeps
// the starting point toward Slast, reporting C(x) (§5.1, recent
// snapshots sharing pages with the current database).
func (r *Runner) Fig7() error {
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	t := &Table{
		Title: "Figure 7: ratio C with recent snapshots (AggV(Qs_50, Qq_io, AVG), step 1)",
		Note: "x = interval start relative to Slast.\n" +
			"Expect: C falls while the start is old (measured cost drops, all-cold constant),\n" +
			"then rises as the all-cold baseline itself benefits from current-state sharing.",
		Headers: []string{"interval_start", "UW30_C", "UW15_C", "UW30_C_io", "UW15_C_io"},
	}
	type point struct{ back uint64 }
	var points []point
	// Sweep from Slast-cycle-20 (the earliest interval including a
	// snapshot that shares pages with the database, per §5.1) up to the
	// most recent full interval.
	maxBack := uint64(UW15.Cycle) + 20
	if r.Cfg.Quick {
		maxBack = uint64(UW15.Cycle/4) + 12
	}
	for back := maxBack; ; {
		points = append(points, point{back: back})
		if back <= ilen {
			break
		}
		step := uint64(10)
		if r.Cfg.Quick {
			step = 6
		}
		if back < ilen+step {
			back = ilen
		} else {
			back -= step
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].back > points[j].back })
	for _, p := range points {
		row := []any{fmt.Sprintf("Slast-%d", p.back)}
		var ioCols []any
		for _, uw := range []UW{UW30, UW15} {
			e, err := r.env(uw, r.historyFull(uw))
			if err != nil {
				return err
			}
			lo := e.Last - p.back + 1
			hi := lo + ilen - 1
			if hi > e.Last {
				row = append(row, "-")
				ioCols = append(ioCols, "-")
				continue
			}
			cTime, cIO, err := e.RatioCParts(mechAggVarAvg, lo, hi, 1, QqIO)
			if err != nil {
				return err
			}
			row = append(row, cTime)
			ioCols = append(ioCols, cIO)
		}
		row = append(row, ioCols...)
		t.Add(row...)
	}
	t.Fprint(r.Out)
	return nil
}

// Fig8 breaks down single-iteration costs of the I/O-intensive query at
// old and recent snapshots, cold and hot (§5.1, Figure 8).
func (r *Runner) Fig8() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	t := &Table{
		Title: "Figure 8: single-iteration cost, AggV(Qs_50, Qq_io, AVG), UW30",
		Note: "Expect: hot iterations cut Pagelog I/O sharply; iterations on recent\n" +
			"snapshots fetch shared pages from the current DB and get cheaper toward Slast.",
		Headers: breakdownHeaders,
	}
	addRun := func(label string, lo, hi uint64) error {
		rs, err := e.ColdRun(mechAggVarAvg, QsRange(lo, hi, 1), QqIO)
		if err != nil {
			return err
		}
		t.Add(breakdownRow(label+" cold iteration", rs.Cold())...)
		t.Add(breakdownRow(label+" hot iteration", rs.Hot())...)
		return nil
	}
	if err := addRun("old snapshot", 1, ilen); err != nil {
		return err
	}
	if err := addRun("Slast-50", e.Last-ilen+1, e.Last); err != nil {
		return err
	}
	if err := addRun("Slast-25", e.Last-ilen/2+1, e.Last); err != nil {
		return err
	}
	// Current state: the same Qq on the live database (no snapshot).
	if err := e.Conn.Exec(QqIO, nil); err != nil {
		return err
	}
	cur := e.Conn.LastStats()
	t.Add(breakdownRow("current state", core.IterationCost{QueryEval: cur.Duration})...)
	t.Fprint(r.Out)
	return nil
}

// Fig9 runs the CPU-intensive join with and without a native index on
// the join column (§5.2, Figure 9).
func (r *Runner) Fig9() error {
	// A private environment: this experiment mutates the schema.
	history := UW30.Cycle + 60
	if r.Cfg.Quick {
		history = UW30.Cycle/4 + 26
	}
	e, err := r.env(UW30, history)
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	t := &Table{
		Title: "Figure 9: single-iteration cost, AggV(Qs_50, Qq_cpu, AVG), UW30",
		Note: "Expect: without a native index, transient index creation dominates and\n" +
			"cold ≈ hot; with a native index the index-creation bar vanishes while\n" +
			"I/O and SPT build grow (the index enlarges database and Pagelog).",
		Headers: breakdownHeaders,
	}
	rs, err := e.ColdRun(mechAggVarAvg, QsRange(e.Last-ilen+1, e.Last, 1), QqCPU)
	if err != nil {
		return err
	}
	t.Add(breakdownRow("cold iteration w/o index", rs.Cold())...)
	t.Add(breakdownRow("hot iteration w/o index", rs.Hot())...)

	// Build the native index, then advance the workload so the new
	// snapshots capture it.
	if err := e.Conn.Exec(`CREATE INDEX lineitem_partkey ON lineitem (l_partkey)`, nil); err != nil {
		return err
	}
	extend := int(ilen) + 8
	if err := e.Extend(extend); err != nil {
		return err
	}
	rs, err = e.ColdRun(mechAggVarAvg, QsRange(e.Last-ilen+1, e.Last, 1), QqCPU)
	if err != nil {
		return err
	}
	t.Add(breakdownRow("cold iteration w/ index", rs.Cold())...)
	t.Add(breakdownRow("hot iteration w/ index", rs.Hot())...)
	t.Fprint(r.Out)

	// Leave the environment unindexed for other experiments.
	if err := e.Conn.Exec(`DROP INDEX lineitem_partkey`, nil); err != nil {
		return err
	}
	return nil
}

// Fig10 varies Qq_collate's output size (§5.2, Figure 10).
func (r *Runner) Fig10() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	// The paper's output sizes (500/100K/600K/1M of 1.5M orders) as
	// fractions; the smallest point is held at 0.2% so it stays
	// non-empty at reduced scale factors.
	fracs := []float64{0.002, 0.067, 0.4, 0.67}
	t := &Table{
		Title: "Figure 10: CollateData(Qs_50, Qq_collate) with varying output size, UW30",
		Note: "Expect: the RQL UDF share grows with the Qq output size (one result-table\n" +
			"insert per returned record); sharing/I-O effects stay minor.",
		Headers: append([]string{"qq_rows_per_snap"}, breakdownHeaders...),
	}
	for _, frac := range fracs {
		date, err := e.CollateDateForFraction(frac)
		if err != nil {
			return err
		}
		qq := fmt.Sprintf(QqCollate, date)
		rs, err := e.ColdRun(mechCollate, QsRange(1, ilen, 1), qq)
		if err != nil {
			return err
		}
		rows := rs.Cold().QqRows
		t.Add(append([]any{rows}, breakdownRow("cold iteration", rs.Cold())...)...)
		t.Add(append([]any{rs.Hot().QqRows}, breakdownRow("hot iteration", rs.Hot())...)...)
	}
	t.Fprint(r.Out)
	return nil
}

// Fig11 compares total execution time and memory footprint of
// CollateData + a follow-up SQL aggregation against a single
// AggregateDataInTable, with one and two aggregations (§5.3).
func (r *Runner) Fig11() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	qs := QsRange(1, ilen, 1)
	t := &Table{
		Title: "Figure 11: CollateData+SQL vs AggregateDataInTable (Qq_agg, Qs_50, UW30)",
		Note: "Expect: AggT within ~10% of CollateData in time; the second aggregation adds\n" +
			"no significant cost; with both cn and av aggregated the result table is an\n" +
			"order of magnitude smaller and independent of |Qs|. (In the 1-agg variant av\n" +
			"remains a grouping column per §2.3, so rows multiply when averages change —\n" +
			"the footprint headline shows in the 2-agg rows.)",
		Headers: []string{"approach", "total_time", "extra_sql", "result_rows", "result_bytes", "index_bytes"},
	}

	addCollate := func(label, extraSQL string) error {
		rs, err := e.RunKeepTable(mechCollate, qs, QqAgg, "fig11_coll")
		if err != nil {
			return err
		}
		if err := e.Conn.Exec(extraSQL, nil); err != nil {
			return err
		}
		extra := e.Conn.LastStats().Duration
		t.Add(label, RunCost(rs), extra, rs.ResultRows, rs.ResultDataBytes, rs.ResultIndexBytes)
		return nil
	}
	addAggT := func(label, pairs string) error {
		rs, err := e.ColdRun(aggTable(pairs), qs, QqAgg)
		if err != nil {
			return err
		}
		t.Add(label, RunCost(rs), "-", rs.ResultRows, rs.ResultDataBytes, rs.ResultIndexBytes)
		return nil
	}
	if err := addCollate("CollateData + 1 agg query",
		`SELECT o_custkey, MAX(cn), av FROM fig11_coll GROUP BY o_custkey`); err != nil {
		return err
	}
	if err := addAggT("AggT 1 agg", "(cn,MAX)"); err != nil {
		return err
	}
	if err := addCollate("CollateData + 2 agg query",
		`SELECT o_custkey, MAX(cn), MAX(av) FROM fig11_coll GROUP BY o_custkey`); err != nil {
		return err
	}
	if err := addAggT("AggT 2 aggs", "(cn,MAX):(av,MAX)"); err != nil {
		return err
	}
	t.Fprint(r.Out)
	return nil
}

// Fig12 breaks down single cold and hot iterations of CollateData vs
// AggregateDataInTable on the same Qq (§5.3, Figure 12).
func (r *Runner) Fig12() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	qs := QsRange(1, ilen, 1)
	t := &Table{
		Title: "Figure 12: single-iteration cost, CollateData vs AggT (Qq_agg sans av, UW30)",
		Note: "Expect: AggT's cold iteration exceeds CollateData's (result-index build in\n" +
			"the UDF bar); AggT's hot iterations pay searches+updates vs plain inserts.",
		Headers: append([]string{"result_ops"}, breakdownHeaders...),
	}
	coll, err := e.ColdRun(mechCollate, qs, QqAggCn)
	if err != nil {
		return err
	}
	aggT, err := e.ColdRun(aggTable("(cn,MAX)"), qs, QqAggCn)
	if err != nil {
		return err
	}
	ops := func(c core.IterationCost) string {
		return fmt.Sprintf("ins=%d upd=%d srch=%d", c.ResultInserts, c.ResultUpdates, c.ResultSearch)
	}
	t.Add(append([]any{ops(coll.Cold())}, breakdownRow("CollateData cold", coll.Cold())...)...)
	t.Add(append([]any{ops(aggT.Cold())}, breakdownRow("AggT cold", aggT.Cold())...)...)
	t.Add(append([]any{ops(coll.Hot())}, breakdownRow("CollateData hot", coll.Hot())...)...)
	t.Add(append([]any{ops(aggT.Hot())}, breakdownRow("AggT hot", aggT.Hot())...)...)
	t.Fprint(r.Out)
	return nil
}

// Fig13 compares AggregateDataInTable under MAX vs SUM aggregation
// (§5.3, Figure 13): SUM updates the result table for almost every
// record, MAX only when the extreme moves.
func (r *Runner) Fig13() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	qs := QsRange(1, ilen, 1)
	t := &Table{
		Title: "Figure 13: AggT with MAX vs SUM aggregation (Qq_agg sans av, UW30)",
		Note: "Expect: identical cold iterations; SUM's hot iterations perform far more\n" +
			"result-table updates than MAX's and cost correspondingly more UDF time.",
		Headers: append([]string{"result_ops"}, breakdownHeaders...),
	}
	maxRun, err := e.ColdRun(aggTable("(cn,MAX)"), qs, QqAggCn)
	if err != nil {
		return err
	}
	sumRun, err := e.ColdRun(aggTable("(cn,SUM)"), qs, QqAggCn)
	if err != nil {
		return err
	}
	ops := func(c core.IterationCost) string {
		return fmt.Sprintf("ins=%d upd=%d srch=%d", c.ResultInserts, c.ResultUpdates, c.ResultSearch)
	}
	t.Add(append([]any{ops(maxRun.Cold())}, breakdownRow("MAX cold", maxRun.Cold())...)...)
	t.Add(append([]any{ops(sumRun.Cold())}, breakdownRow("SUM cold", sumRun.Cold())...)...)
	t.Add(append([]any{ops(maxRun.Hot())}, breakdownRow("MAX hot", maxRun.Hot())...)...)
	t.Add(append([]any{ops(sumRun.Hot())}, breakdownRow("SUM hot", sumRun.Hot())...)...)
	t.Fprint(r.Out)
	return nil
}

// Mem reproduces §5.3's memory-footprint comparison: CollateData vs
// CollateDataIntoIntervals across the four update workloads.
func (r *Runner) Mem() error {
	ilen := uint64(50)
	history := 60
	if r.Cfg.Quick {
		ilen, history = 12, 16
	}
	t := &Table{
		Title: "§5.3: result footprint, CollateData vs CollateDataIntoIntervals (Qq_int, Qs_50)",
		Note: "Expect: the intervals representation is dramatically smaller than raw\n" +
			"collation, needs ~50% extra for its index, and grows sub-linearly with\n" +
			"the number of records modified between snapshots.",
		Headers: []string{"workload", "mechanism", "result_rows", "data_bytes", "index_bytes"},
	}
	for _, uw := range []UW{UW75, UW15, UW30, UW60} {
		e, err := r.env(uw, history)
		if err != nil {
			return err
		}
		qs := QsRange(e.Last-ilen+1, e.Last, 1)
		coll, err := e.ColdRun(mechCollate, qs, QqInt)
		if err != nil {
			return err
		}
		t.Add(uw.Name, "CollateData", coll.ResultRows, coll.ResultDataBytes, coll.ResultIndexBytes)
		iv, err := e.ColdRun(mechIntervals, qs, QqInt)
		if err != nil {
			return err
		}
		t.Add(uw.Name, "Intervals", iv.ResultRows, iv.ResultDataBytes, iv.ResultIndexBytes)
	}
	t.Fprint(r.Out)
	return nil
}

// Ablation reproduces the paper's §3 design note: an alternative
// sort-merge implementation of Aggregate Data In Table "turned out to
// be costlier" than the index-based one.
func (r *Runner) Ablation() error {
	e, err := r.env(UW30, r.historyFull(UW30))
	if err != nil {
		return err
	}
	ilen := uint64(50)
	if r.Cfg.Quick {
		ilen = 12
	}
	qs := QsRange(1, ilen, 1)
	t := &Table{
		Title: "§3 ablation: AggregateDataInTable, index-based vs sort-merge",
		Note: "Expect: the sort-merge variant rewrites the whole result table every\n" +
			"iteration and costs more, confirming the paper's design choice.",
		Headers: []string{"implementation", "total_time", "hot_udf", "result_rows"},
	}
	idx, err := e.ColdRun(aggTable("(cn,MAX)"), qs, QqAgg)
	if err != nil {
		return err
	}
	t.Add("index-based", RunCost(idx), idx.Hot().UDF, idx.ResultRows)

	e.DB.Retro().ResetCache()
	resultSeq++
	sm, err := e.R.AggregateDataInTableSortMerge(e.Conn, qs, QqAgg,
		fmt.Sprintf("bench_result_%d", resultSeq), "(cn,MAX)")
	if err != nil {
		return err
	}
	t.Add("sort-merge", RunCost(sm), sm.Hot().UDF, sm.ResultRows)
	t.Fprint(r.Out)
	return nil
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error {
	for _, ex := range Experiments {
		if err := ex.Run(r); err != nil {
			return fmt.Errorf("%s: %w", ex.Name, err)
		}
	}
	return nil
}

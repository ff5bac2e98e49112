// Package bench is the experiment harness that regenerates every table
// and figure of the paper's §5 evaluation: it builds TPC-H snapshot
// histories under the paper's update workloads, runs the RQL queries of
// Table 1, and prints the measured series in the paper's terms (ratio
// C, per-iteration cost breakdowns, result-table footprints).
//
// Absolute numbers differ from the paper's (the substrate is a scaled
// simulation, not the authors' Xeon/SSD testbed); the harness is built
// so the paper's *shapes* — who wins, by what factor, where curves
// converge — are reproduced. EXPERIMENTS.md records paper-vs-measured
// for every figure.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rql/internal/core"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
	"rql/internal/tpch"
)

// The paper's Table 1 queries. Qq_collate's date predicate is filled in
// per experiment to control the output size.
const (
	QqIO      = `SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'`
	QqCPU     = `SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part WHERE p_partkey = l_partkey AND p_type = 'STANDARD POLISHED TIN'`
	QqCollate = `SELECT o_orderkey FROM orders WHERE o_orderdate < '%s'`
	QqAgg     = `SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders GROUP BY o_custkey`
	QqInt     = `SELECT o_orderkey, o_custkey FROM orders`
	// QqAggCn is Qq_agg without the av column, used by the Figure 12/13
	// runs so the result groups on o_custkey alone (with av included,
	// every av change creates a new group per §2.3's grouping rule and
	// the MAX-vs-SUM update contrast would be masked).
	QqAggCn = `SELECT o_custkey, COUNT(*) AS cn FROM orders GROUP BY o_custkey`
)

// UW is one of the paper's update workloads: OrdersPerSnapshot is
// derived from the overwrite-cycle length (UW30 overwrites the database
// every 50 snapshots, UW15 every 100; §5).
type UW struct {
	Name  string
	Cycle int // snapshots per overwrite cycle
}

// The paper's update workloads (Table 1 and §5.3).
var (
	UW75 = UW{Name: "UW7.5", Cycle: 200}
	UW15 = UW{Name: "UW15", Cycle: 100}
	UW30 = UW{Name: "UW30", Cycle: 50}
	UW60 = UW{Name: "UW60", Cycle: 25}
)

// Config scales the experiments.
type Config struct {
	// SF is the TPC-H scale factor (default 0.01 = 15,000 orders; the
	// paper uses 1.0 = 1.5M on a server testbed).
	SF float64
	// ReadLatency is the modeled per-Pagelog-read cost.
	ReadLatency time.Duration
	// Seed makes data generation deterministic.
	Seed int64
	// Quick shrinks sweeps (used by `go test -bench`).
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.01
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = retro.DefaultReadLatency
	}
	if c.Seed == 0 {
		c.Seed = 20180326 // EDBT 2018's opening day
	}
	return c
}

// Env is a loaded TPC-H database with a snapshot history produced by
// one update workload.
type Env struct {
	DB   *sql.DB
	Conn *sql.Conn
	R    *core.RQL
	W    *tpch.Workload
	Last uint64 // most recent snapshot id (the paper's Slast)
}

// NewEnv loads TPC-H at cfg.SF and declares history snapshots under the
// given update workload.
func NewEnv(uw UW, history int, cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	db, err := sql.Open(sql.Options{Retro: retro.Options{SimulatedReadLatency: cfg.ReadLatency}})
	if err != nil {
		return nil, err
	}
	r := core.Attach(db)
	conn := db.Conn()
	g := tpch.NewGenerator(cfg.SF, cfg.Seed)
	minKey, _, err := tpch.Load(conn, g)
	if err != nil {
		db.Close()
		return nil, err
	}
	if err := core.EnsureSnapIds(conn); err != nil {
		db.Close()
		return nil, err
	}
	perSnap := g.Orders() / uw.Cycle
	if perSnap < 1 {
		perSnap = 1
	}
	w := tpch.NewWorkload(conn, g, minKey, perSnap)
	if err := w.Run(history); err != nil {
		db.Close()
		return nil, err
	}
	return &Env{
		DB:   db,
		Conn: conn,
		R:    r,
		W:    w,
		Last: uint64(history),
	}, nil
}

// Extend runs n more workload steps (used after DDL like CREATE INDEX
// so new snapshots include the index).
func (e *Env) Extend(n int) error {
	if err := e.W.Run(n); err != nil {
		return err
	}
	e.Last += uint64(n)
	return nil
}

// ExtendSparse declares n snapshots of which only every refreshEvery-th
// applies a refresh; the rest are quiet (empty-delta) snapshots. This
// is the periodic-snapshot regime delta pruning targets.
func (e *Env) ExtendSparse(n, refreshEvery int) error {
	for i := 0; i < n; i++ {
		var err error
		if i%refreshEvery == 0 {
			_, err = e.W.Step()
		} else {
			_, err = e.W.QuietStep()
		}
		if err != nil {
			return err
		}
		e.Last++
	}
	return nil
}

// Close releases the environment.
func (e *Env) Close() { e.DB.Close() }

// QsRange builds the paper's Qs_N: the snapshot interval [lo, hi],
// optionally with a step (selecting every step-th snapshot).
func QsRange(lo, hi uint64, step int) string {
	if step <= 1 {
		return fmt.Sprintf(
			`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d ORDER BY snap_id`, lo, hi)
	}
	return fmt.Sprintf(
		`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d AND (snap_id - %d) %% %d = 0 ORDER BY snap_id`,
		lo, hi, lo, step)
}

// mech identifies a mechanism for the generic runners.
type mech struct {
	name  string
	extra string // agg func or pairs
}

// Mech selects a mechanism for ColdRun/RatioC/AllCold.
type Mech = mech

var (
	mechAggVarAvg = mech{name: "AggV", extra: "avg"}
	mechCollate   = mech{name: "Collate"}
	mechIntervals = mech{name: "Intervals"}
)

func aggTable(pairs string) mech { return mech{name: "AggT", extra: pairs} }

// Exported mechanism selectors for external benchmark drivers.
func MechAggVarAvg() Mech            { return mechAggVarAvg }
func MechCollate() Mech              { return mechCollate }
func MechIntervals() Mech            { return mechIntervals }
func MechAggTable(pairs string) Mech { return aggTable(pairs) }

var resultSeq int

// ColdRun resets the snapshot cache and runs one mechanism over the
// given Qs, returning its statistics. The result table gets a fresh
// name so runs never interfere.
func (e *Env) ColdRun(m mech, qs, qq string) (*core.RunStats, error) {
	e.DB.Retro().ResetCache()
	return e.run(m, qs, qq)
}

func (e *Env) run(m mech, qs, qq string) (*core.RunStats, error) {
	resultSeq++
	return e.runInto(m, qs, qq, fmt.Sprintf("bench_result_%d", resultSeq))
}

// runInto runs one mechanism through the Go-level API into table.
func (e *Env) runInto(m mech, qs, qq, table string) (*core.RunStats, error) {
	switch m.name {
	case "AggV":
		return e.R.AggregateDataInVariable(e.Conn, qs, qq, table, m.extra)
	case "Collate":
		return e.R.CollateData(e.Conn, qs, qq, table)
	case "AggT":
		return e.R.AggregateDataInTable(e.Conn, qs, qq, table, m.extra)
	case "Intervals":
		return e.R.CollateDataIntoIntervals(e.Conn, qs, qq, table)
	}
	return nil, fmt.Errorf("bench: unknown mechanism %q", m.name)
}

// RunKeepTable is ColdRun with a caller-chosen result table (kept for
// follow-up SQL, e.g. Figure 11's extra aggregation query).
func (e *Env) RunKeepTable(m mech, qs, qq, table string) (*core.RunStats, error) {
	e.DB.Retro().ResetCache()
	if err := e.Conn.Exec(`DROP TABLE IF EXISTS `+sql.QuoteIdent(table), nil); err != nil {
		return nil, err
	}
	return e.runInto(m, qs, qq, table)
}

// RunCost is the modeled total cost of a run: measured CPU-side wall
// time plus modeled Pagelog I/O time.
func RunCost(rs *core.RunStats) time.Duration {
	t := rs.Total()
	return t.Total()
}

// AllCold measures the paper's all-cold baseline for an interval: every
// snapshot in [lo, hi] (with step) is queried stand-alone with an empty
// snapshot cache, so no page sharing is possible between iterations. It
// returns the summed modeled cost and the summed Pagelog reads.
func (e *Env) AllCold(m mech, lo, hi uint64, step int, qq string) (time.Duration, int, error) {
	var total time.Duration
	reads := 0
	for s := lo; s <= hi; s += uint64(step) {
		rs, err := e.ColdRun(m, QsRange(s, s, 1), qq)
		if err != nil {
			return 0, 0, err
		}
		total += RunCost(rs)
		reads += rs.Total().PagelogReads
	}
	return total, reads, nil
}

// RatioC computes the paper's ratio C for an interval: measured RQL
// cost over the all-cold cost of the same snapshot set (§5.1).
func (e *Env) RatioC(m mech, lo, hi uint64, step int, qq string) (float64, error) {
	c, _, err := e.RatioCParts(m, lo, hi, step, qq)
	return c, err
}

// RatioCParts returns ratio C in two domains: total modeled cost (the
// paper's definition) and Pagelog reads only. The read-domain ratio is
// fully deterministic and isolates the page-sharing effect the figure
// studies from CPU wall-clock noise; at the paper's scale the two
// coincide because the queries are I/O-dominated.
func (e *Env) RatioCParts(m mech, lo, hi uint64, step int, qq string) (cTime, cIO float64, err error) {
	measured, err := e.ColdRun(m, QsRange(lo, hi, step), qq)
	if err != nil {
		return 0, 0, err
	}
	cold, coldReads, err := e.AllCold(m, lo, hi, step, qq)
	if err != nil {
		return 0, 0, err
	}
	if cold == 0 || coldReads == 0 {
		return 0, 0, fmt.Errorf("bench: zero all-cold cost")
	}
	return float64(RunCost(measured)) / float64(cold),
		float64(measured.Total().PagelogReads) / float64(coldReads), nil
}

// CollateDateForFraction returns the o_orderdate value below which
// approximately frac of the current orders fall (drives Qq_collate's
// output size, Figure 10).
func (e *Env) CollateDateForFraction(frac float64) (string, error) {
	rows, err := e.Conn.Query(`SELECT COUNT(*) FROM orders`)
	if err != nil {
		return "", err
	}
	n := rows.Rows[0][0].Int()
	k := int64(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	rows, err = e.Conn.Query(
		`SELECT o_orderdate FROM orders ORDER BY o_orderdate LIMIT 1 OFFSET ?`,
		record.Int(k-1))
	if err != nil {
		return "", err
	}
	if len(rows.Rows) == 0 {
		return "", fmt.Errorf("bench: empty orders table")
	}
	return rows.Rows[0][0].Text(), nil
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

// Table is a printable experiment result.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case time.Duration:
			row[i] = fmtDur(x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}

// breakdownRow renders one iteration-cost breakdown as table cells.
func breakdownRow(label string, c core.IterationCost) []any {
	return []any{
		label, c.IOTime, c.SPTBuild, c.IndexCreation, c.QueryEval, c.UDF, c.Total(),
		c.PagelogReads, c.DBReads, c.CacheHits,
	}
}

var breakdownHeaders = []string{
	"iteration", "io", "spt_build", "index_creation", "query_eval", "rql_udf", "total",
	"pagelog_reads", "db_reads", "cache_hits",
}

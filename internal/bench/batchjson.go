package bench

import (
	"fmt"
	"strings"
	"time"

	"rql/internal/core"
	"rql/internal/record"
)

// The batch experiment compares the two SPT-construction strategies for
// a snapshot-set run — per-iteration (every snapshot builds its own SPT
// through Skippy: the SQL-form UDF statement, which streams Qs rows and
// so can neither batch nor prune — the "legacy" side) versus
// one-sweep batch (one Maplog pass derives every member's SPT as the
// later snapshot's SPT plus a delta: the Go-level API) — across all four
// mechanisms, sequential and parallel (the UDF form has no parallel
// mode, so parallel rows carry no legacy side). Its output is also the
// machine-readable BENCH_rql.json baseline written by `make bench`.

// BatchSide is one strategy's measurement within a BatchResult.
type BatchSide struct {
	Wall         string  `json:"wall"`
	WallNS       int64   `json:"wall_ns"`
	MapScanned   int     `json:"map_scanned"`
	PagelogReads int     `json:"pagelog_reads"`
	CacheHits    int     `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Delta-pruning outcome; zero for the sides that run with pruning
	// off.
	PrunedIterations int `json:"pruned_iterations,omitempty"`
	PrunedRows       int `json:"pruned_rows,omitempty"`
}

// BatchResult compares the strategies for one mechanism and mode.
type BatchResult struct {
	Mechanism     string    `json:"mechanism"`
	Mode          string    `json:"mode"` // "sequential" | "parallel"
	Snapshots     int       `json:"snapshots"`
	Legacy        BatchSide `json:"legacy"` // SQL-form UDF run; zero (absent) on parallel rows
	Batch         BatchSide `json:"batch"`
	Pruned        BatchSide `json:"pruned"`
	Speedup       float64   `json:"speedup"`        // legacy wall / batch wall
	PruneSpeedup  float64   `json:"prune_speedup"`  // batch wall / pruned wall
	ScanReduction float64   `json:"scan_reduction"` // legacy scanned / batch scanned
}

// BatchReport is the full experiment output (BENCH_rql.json).
type BatchReport struct {
	GeneratedAt string        `json:"generated_at"`
	SF          float64       `json:"sf"`
	UW          string        `json:"uw"`
	SetSize     int           `json:"set_size"`
	History     int           `json:"history"` // snapshots declared in total
	Workers     int           `json:"parallel_workers"`
	Reps        int           `json:"reps"` // wall times are the min over reps
	Results     []BatchResult `json:"results"`
	// The tracing-overhead smoke measurement (absent in pre-obs runs).
	Tracing *TracingResult `json:"tracing,omitempty"`
	// The replica fan-out experiment (absent in pre-replication runs).
	Fanout *FanoutResult `json:"fanout,omitempty"`
	// The group-commit write-throughput experiment (absent in
	// pre-group-commit runs).
	GroupCommit []GroupCommitResult `json:"group_commit,omitempty"`
	// The tiered-Pagelog cold-sweep experiment (absent in pre-tiering
	// runs).
	ColdSweep *ColdSweepResult `json:"cold_sweep,omitempty"`
	// The incremental view-refresh experiment (absent in pre-view
	// runs).
	ViewRefresh *ViewRefreshResult `json:"view_refresh,omitempty"`
}

// batchWorkers is the parallel worker count used by the experiment.
const batchWorkers = 8

// runMode selects how timedRun drives a mechanism.
type runMode int

const (
	modeSequential runMode = iota // Go-level API, one lane
	modeParallel                  // Go-level API, batchWorkers lanes
	modeUDF                       // SQL-form UDF statement (per-iteration SPT builds)
)

// udfNames maps the generic runners' mechanism names to the UDFs.
var udfNames = map[string]string{
	"AggV":      "AggregateDataInVariable",
	"Collate":   "CollateData",
	"AggT":      "AggregateDataInTable",
	"Intervals": "CollateDataIntoIntervals",
}

// runUDF runs a mechanism in the paper's Figure 5 form: the UDF
// interposed on the snapshot-set query (qs must select snap_id first).
func (e *Env) runUDF(m mech, qs, qq, table string) (*core.RunStats, error) {
	name, ok := udfNames[m.name]
	if !ok || !strings.HasPrefix(qs, "SELECT snap_id FROM") {
		return nil, fmt.Errorf("bench: cannot build the UDF form of %q over %q", m.name, qs)
	}
	call, params := name+"(snap_id, ?, ?", []record.Value{record.Text(qq), record.Text(table)}
	if m.extra != "" {
		call, params = call+", ?", append(params, record.Text(m.extra))
	}
	stmt := "SELECT " + call + ")" + strings.TrimPrefix(qs, "SELECT snap_id")
	if err := e.Conn.Exec(stmt, nil, params...); err != nil {
		return nil, err
	}
	return e.R.LastRun(), nil
}

// timedRun executes one mechanism run (cold cache) reps times and
// returns the stats of the fastest repetition with its wall time.
func (e *Env) timedRun(m mech, qs, qq string, mode runMode, reps int) (*core.RunStats, time.Duration, error) {
	var best time.Duration
	var bestRS *core.RunStats
	for i := 0; i < reps; i++ {
		e.DB.Retro().ResetCache()
		resultSeq++
		table := fmt.Sprintf("bench_result_%d", resultSeq)
		var (
			rs  *core.RunStats
			err error
		)
		start := time.Now()
		switch mode {
		case modeUDF:
			rs, err = e.runUDF(m, qs, qq, table)
		case modeParallel:
			switch m.name {
			case "AggV":
				rs, err = e.R.ParallelAggregateDataInVariable(qs, qq, table, m.extra, batchWorkers)
			case "Collate":
				rs, err = e.R.ParallelCollateData(qs, qq, table, batchWorkers)
			case "AggT":
				rs, err = e.R.ParallelAggregateDataInTable(qs, qq, table, m.extra, batchWorkers)
			case "Intervals":
				rs, err = e.R.ParallelCollateDataIntoIntervals(qs, qq, table, batchWorkers)
			default:
				err = fmt.Errorf("bench: unknown mechanism %q", m.name)
			}
		default:
			rs, err = e.runInto(m, qs, qq, table)
		}
		wall := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		if bestRS == nil || wall < best {
			best, bestRS = wall, rs
		}
	}
	return bestRS, best, nil
}

func side(rs *core.RunStats, wall time.Duration) BatchSide {
	t := rs.Total()
	rate := 0.0
	if fetches := t.CacheHits + t.PagelogReads; fetches > 0 {
		rate = float64(t.CacheHits) / float64(fetches)
	}
	return BatchSide{
		Wall:             wall.Round(time.Microsecond).String(),
		WallNS:           wall.Nanoseconds(),
		MapScanned:       t.MapScanned,
		PagelogReads:     t.PagelogReads,
		CacheHits:        t.CacheHits,
		CacheHitRate:     rate,
		PrunedIterations: rs.PrunedIterations,
		PrunedRows:       rs.PrunedRowsReplayed,
	}
}

// batchRefreshEvery is the refresh period of the measured window: one
// snapshot in batchRefreshEvery applies a refresh, the rest are quiet.
const batchRefreshEvery = 4

// BatchReport runs the batch experiment and returns the report.
//
// The workload is chosen to expose SPT-construction cost, the quantity
// the legacy and batch strategies differ in: the measured window is the
// OLDEST setSize snapshots of a history six times as long, so every
// legacy per-iteration build scans from its snapshot to the distant
// Maplog tail, while the batch sweep walks the shared range once. Qq is
// an index-range query (the index is created before the history so
// every snapshot carries it) — cheap enough that SPT work is a visible
// share of wall time, the regime where per-iteration construction
// hurts.
//
// The measured window itself is declared at the periodic-snapshot
// cadence delta pruning targets: only every batchRefreshEvery-th
// snapshot applies a refresh, the rest are quiet (a snapshot schedule
// fires whether or not the data changed). Quiet members have empty
// deltas, so the pruned side skips them; refresh members genuinely
// change pages on the Qq read path (the insert front is adjacent to
// the key window) and execute in full.
func (r *Runner) BatchReport() (*BatchReport, error) {
	setSize, reps := 50, 5
	if r.Cfg.Quick {
		setSize, reps = 12, 1
	}
	history := 6 * setSize
	fmt.Fprintf(r.Out, "[setup] building batch-SPT environment: SF=%g, %d snapshots, indexed orders...\n",
		r.Cfg.SF, history+1)
	e, err := NewEnv(UW30, 1, r.Cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := e.Conn.Exec(`CREATE INDEX orders_okey ON orders (o_orderkey)`, nil); err != nil {
		return nil, err
	}

	// Key geometry: live orders are a dense range whose front advances
	// ops keys per refresh. The window is the first 2*ops keys the
	// measured phase inserts — live from early in the window, not
	// deleted until long after it — so Qq reads real archived rows at
	// every window snapshot.
	var curMax int64
	err = e.Conn.Exec(`SELECT MAX(o_orderkey) FROM orders`,
		func(cols []string, row []record.Value) error {
			curMax = row[0].Int()
			return nil
		})
	if err != nil {
		return nil, err
	}
	ops := int64(e.W.OrdersPerSnapshot)
	keyA := curMax + 1
	keyB := keyA + 2*ops

	// Sparse measured window first, then full-rate refreshes push the
	// Maplog tail far past it.
	if err := e.ExtendSparse(setSize, batchRefreshEvery); err != nil {
		return nil, err
	}
	if err := e.Extend(history - setSize); err != nil {
		return nil, err
	}

	qs := QsRange(2, uint64(setSize+1), 1)
	where := fmt.Sprintf(`WHERE o_orderkey >= %d AND o_orderkey < %d`, keyA, keyB)
	mechs := []struct {
		label string
		m     mech
		qq    string
	}{
		{"CollateData", mechCollate, `SELECT o_orderkey FROM orders ` + where},
		{"AggregateDataInVariable", mech{name: "AggV", extra: "sum"},
			`SELECT COUNT(*) FROM orders ` + where},
		{"AggregateDataInTable", aggTable("(tp,MAX)"),
			`SELECT o_orderkey, o_totalprice AS tp FROM orders ` + where},
		{"CollateDataIntoIntervals", mechIntervals,
			`SELECT o_orderkey, o_custkey FROM orders ` + where},
	}

	rep := &BatchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		SF:          e.Cfg.SF,
		UW:          e.UW.Name,
		SetSize:     setSize,
		History:     int(e.Last),
		Workers:     batchWorkers,
		Reps:        reps,
	}
	// The legacy and batch sides isolate SPT-construction strategy: the
	// SQL-form UDF never prunes, so the batch side runs with delta
	// pruning off too; the pruned side then measures what pruning adds
	// on top of batch construction.
	defer e.R.SetDeltaPrune(true)
	for _, mm := range mechs {
		for _, mode := range []runMode{modeSequential, modeParallel} {
			res := BatchResult{Mechanism: mm.label, Mode: "sequential", Snapshots: setSize}
			var lwall time.Duration
			if mode == modeParallel {
				res.Mode = "parallel"
			} else {
				lrs, wall, err := e.timedRun(mm.m, qs, mm.qq, modeUDF, reps)
				if err != nil {
					return nil, fmt.Errorf("%s legacy: %w", mm.label, err)
				}
				res.Legacy, lwall = side(lrs, wall), wall
			}
			e.R.SetDeltaPrune(false)
			brs, bwall, err := e.timedRun(mm.m, qs, mm.qq, mode, reps)
			if err != nil {
				return nil, fmt.Errorf("%s batch: %w", mm.label, err)
			}
			e.R.SetDeltaPrune(true)
			prs, pwall, err := e.timedRun(mm.m, qs, mm.qq, mode, reps)
			if err != nil {
				return nil, fmt.Errorf("%s pruned: %w", mm.label, err)
			}
			res.Batch, res.Pruned = side(brs, bwall), side(prs, pwall)
			if bwall > 0 {
				res.Speedup = float64(lwall) / float64(bwall)
			}
			if pwall > 0 {
				res.PruneSpeedup = float64(bwall) / float64(pwall)
			}
			if res.Batch.MapScanned > 0 {
				res.ScanReduction = float64(res.Legacy.MapScanned) / float64(res.Batch.MapScanned)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	tr, err := r.tracingOverhead(reps, 1)
	if err != nil {
		return nil, err
	}
	rep.Tracing = tr
	if err := r.fanoutBatch(rep); err != nil {
		return nil, err
	}
	if err := r.groupCommitBatch(rep); err != nil {
		return nil, err
	}
	if err := r.coldSweepBatch(rep, reps); err != nil {
		return nil, err
	}
	if err := r.viewRefreshBatch(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Batch prints the batch experiment as a table (rqlbench -exp batch).
func (r *Runner) Batch() error {
	rep, err := r.BatchReport()
	if err != nil {
		return err
	}
	tab := &Table{
		Title: fmt.Sprintf("Batch SPT: one-sweep vs per-iteration construction (%d-snapshot set, %s)", rep.SetSize, rep.UW),
		Note: fmt.Sprintf("wall = min over %d cold-cache reps; scanned = Maplog entries examined for SPTs; legacy = SQL-form UDF statement (sequential only); parallel = %d workers; pruned = batch + delta pruning",
			rep.Reps, rep.Workers),
		Headers: []string{"mechanism", "mode", "legacy wall", "batch wall", "speedup",
			"pruned wall", "prune speedup", "skipped",
			"legacy scanned", "batch scanned", "scan ratio", "hit rate"},
	}
	for _, res := range rep.Results {
		// Only sequential rows have a legacy (SQL-form UDF) side.
		var lwall, lscan, speedup, scan any = "n/a", "n/a", "n/a", "n/a"
		if res.Legacy.WallNS > 0 {
			lwall, lscan = time.Duration(res.Legacy.WallNS), res.Legacy.MapScanned
			speedup, scan = fmt.Sprintf("%.2fx", res.Speedup), fmt.Sprintf("%.1fx", res.ScanReduction)
		}
		tab.Add(res.Mechanism, res.Mode,
			lwall, time.Duration(res.Batch.WallNS), speedup,
			time.Duration(res.Pruned.WallNS),
			fmt.Sprintf("%.2fx", res.PruneSpeedup),
			fmt.Sprintf("%d/%d", res.Pruned.PrunedIterations, res.Snapshots),
			lscan, res.Batch.MapScanned, scan,
			fmt.Sprintf("%.2f", res.Batch.CacheHitRate))
	}
	tab.Fprint(r.Out)

	if tr := rep.Tracing; tr != nil {
		fmt.Fprintf(r.Out,
			"\ntracing overhead (%s, %d snapshots, sleeping device, %d off/on pairs): disabled %s, enabled %s (%d spans) → median %+.2f%%, interquartile spread %.2f%%\n",
			tr.Mechanism, tr.Snapshots, tr.Pairs, tr.Disabled.Wall, tr.Enabled.Wall,
			tr.Enabled.Spans, tr.OverheadPct, tr.SpreadPct)
	}
	if f := rep.Fanout; f != nil {
		fmt.Fprintf(r.Out,
			"\nreplica fan-out (%d sessions, %d snapshots): single node %s (%.0f q/s), %d replicas %s (%.0f q/s) → %.2fx\n",
			f.Sessions, f.Snapshots, f.Single.Wall, f.Single.QPS,
			f.Replicas, f.Fanout.Wall, f.Fanout.QPS, f.Speedup)
	}
	if len(rep.GroupCommit) > 0 {
		gtab := &Table{
			Title: "Group commit: commit throughput by writer count (sleeping device)",
			Note: fmt.Sprintf("each commit group costs one %v device flush; writers insert into private tables (no conflicts); speedup = commits/s over the 1-writer row (groups of one: one flush per commit)",
				groupCommitLatency),
			Headers: []string{"writers", "wall", "commits/s", "speedup",
				"groups", "mean size", "flushes"},
		}
		for _, res := range rep.GroupCommit {
			gtab.Add(res.Writers,
				time.Duration(res.Grouped.WallNS),
				fmt.Sprintf("%.0f", res.Grouped.CommitsPerSec),
				fmt.Sprintf("%.2fx", res.Speedup),
				res.Grouped.Groups,
				fmt.Sprintf("%.2f", res.Grouped.MeanGroupSize),
				res.Grouped.Flushes)
		}
		gtab.Fprint(r.Out)
	}
	if cs := rep.ColdSweep; cs != nil {
		ctab := &Table{
			Title: fmt.Sprintf("Cold sweep: flat vs tiered archive (full retrospection over all %d snapshots, 10x the base %d-snapshot window)", cs.History, cs.Window),
			Note: fmt.Sprintf("%d pages; tiered = %d sealed segments (%d pages), %.1f MiB logical on %.1f MiB disk (%.2fx); billed reads identical by construction",
				cs.PagelogPages, cs.Segments, cs.SealedPages,
				float64(cs.LogicalBytes)/(1<<20), float64(cs.TieredDiskBytes)/(1<<20), cs.Compression),
			Headers: []string{"mechanism", "flat wall", "tiered wall", "speedup",
				"reads", "flat MiB", "tiered MiB", "byte ratio", "block hits"},
		}
		for _, m := range cs.Mechs {
			ctab.Add(m.Mechanism,
				time.Duration(m.Flat.WallNS), time.Duration(m.Tiered.WallNS),
				fmt.Sprintf("%.2fx", m.Speedup),
				m.Flat.PagelogReads,
				fmt.Sprintf("%.1f", float64(m.Flat.DeviceBytes)/(1<<20)),
				fmt.Sprintf("%.1f", float64(m.Tiered.DeviceBytes)/(1<<20)),
				fmt.Sprintf("%.2fx", m.ByteRatio),
				m.Tiered.BlockHits)
		}
		ctab.Fprint(r.Out)
	}
	if vr := rep.ViewRefresh; vr != nil {
		vtab := &Table{
			Title: fmt.Sprintf("View refresh: incremental extension vs full recompute per new snapshot (%s)", vr.Mechanism),
			Note: fmt.Sprintf("incremental = min over %d reps, amortized over %d fresh snapshots; full = cold recompute over the whole history; sparse = 1 refresh per %d snapshots",
				vr.Reps, viewRefreshStride, batchRefreshEvery),
			Headers: []string{"pattern", "history", "incremental", "full recompute", "ratio", "rows", "pruned share"},
		}
		for _, p := range vr.Points {
			vtab.Add(p.Pattern, p.History,
				time.Duration(p.Incremental.WallNS), time.Duration(p.Full.WallNS),
				fmt.Sprintf("%.0fx", p.Ratio), p.Rows,
				fmt.Sprintf("%.2f", p.PrunedShare))
		}
		vtab.Fprint(r.Out)
	}
	return nil
}

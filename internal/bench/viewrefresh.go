package bench

import (
	"fmt"
	"io"
	"time"

	"rql/internal/core"
	"rql/internal/record"
)

// The view-refresh experiment measures the tentpole claim of
// incremental materialized retro views: extending a view by one new
// snapshot costs one mechanism iteration — independent of how long the
// history already is — where the alternative without views is a full
// mechanism recompute over the whole history, O(n) per new snapshot.
// The phase grows one history through several lengths and, at each
// length, times both the per-new-snapshot view extension and the full
// recompute, in the dense regime (every snapshot applies a refresh) and
// the sparse periodic-snapshot regime (most snapshots are quiet, so the
// view's delta pruning replays them from cache).

// ViewRefreshSide is one strategy's wall time within a point.
type ViewRefreshSide struct {
	Wall   string `json:"wall"`
	WallNS int64  `json:"wall_ns"`
}

// ViewRefreshPoint is one history-length × snapshot-pattern
// measurement.
type ViewRefreshPoint struct {
	Pattern string `json:"pattern"` // "dense" | "sparse"
	History int    `json:"history"` // snapshots materialized when timed
	// Incremental is the per-new-snapshot view extension (min over
	// reps, amortized over a small stride of fresh snapshots).
	Incremental ViewRefreshSide `json:"incremental"`
	// Full is a cold full recompute over the whole history — the cost
	// of answering the same question without a materialized view.
	Full        ViewRefreshSide `json:"full_recompute"`
	Ratio       float64         `json:"ratio"` // full / incremental
	Rows        int             `json:"rows"`  // view size at this point
	PrunedShare float64         `json:"pruned_share,omitempty"`
}

// ViewRefreshResult is the whole phase's output.
type ViewRefreshResult struct {
	Mechanism string             `json:"mechanism"`
	Reps      int                `json:"reps"`
	Points    []ViewRefreshPoint `json:"points"`
}

// viewRefreshStride is how many fresh snapshots each timed extension
// covers; the reported incremental cost is wall/stride. In the sparse
// pattern the stride spans exactly one refresh plus its quiet
// followers, matching batchRefreshEvery.
const viewRefreshStride = batchRefreshEvery

// viewRefreshBatch runs the view-refresh phase and attaches it to rep.
func (r *Runner) viewRefreshBatch(rep *BatchReport) error {
	histories := []int{50, 200, 1000}
	reps, fullReps := 3, 2
	if r.Cfg.Quick {
		// The incremental side stays at 3 reps even in quick mode: each
		// rep is a handful of snapshots and a few iterations, and a min
		// over one rep is at the mercy of a single scheduler hiccup.
		histories = []int{10, 30, 60}
		fullReps = 1
	}
	res := &ViewRefreshResult{Mechanism: "CollateData", Reps: reps}
	for _, pattern := range []string{"dense", "sparse"} {
		if err := r.viewRefreshPattern(res, pattern, histories, reps, fullReps); err != nil {
			return err
		}
	}
	rep.ViewRefresh = res
	return nil
}

// viewRefreshPattern grows one environment through the history lengths
// under the given snapshot pattern, timing each point. The view manager
// is driven synchronously (no background refresher), so the timed
// region is exactly the catch-up work.
func (r *Runner) viewRefreshPattern(res *ViewRefreshResult, pattern string, histories []int, reps, fullReps int) error {
	fmt.Fprintf(r.Out, "[setup] building %s view-refresh environment: SF=%g, histories up to %d...\n",
		pattern, r.Cfg.SF, histories[len(histories)-1])
	e, err := NewEnv(UW30, 1, r.Cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	if err := e.Conn.Exec(`CREATE INDEX orders_vkey ON orders (o_orderkey)`, nil); err != nil {
		return err
	}

	// Same key-window geometry as the batch phase: the window covers
	// keys the workload inserts right after env creation, so Qq is a
	// cheap index-range probe at every snapshot and the measured costs
	// are iteration structure, not scan volume.
	var curMax int64
	err = e.Conn.Exec(`SELECT MAX(o_orderkey) FROM orders`,
		func(cols []string, row []record.Value) error {
			curMax = row[0].Int()
			return nil
		})
	if err != nil {
		return err
	}
	ops := int64(e.W.OrdersPerSnapshot)
	qq := fmt.Sprintf(
		`SELECT o_orderkey, current_snapshot() AS sid FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`,
		curMax+1, curMax+1+2*ops)

	m, err := core.NewViewManager(e.DB, e.R)
	if err != nil {
		return err
	}
	e.DB.SetRetroViewHook(m)
	defer e.DB.SetRetroViewHook(nil)
	const name = "bench_live"
	if err := e.Conn.Exec(fmt.Sprintf(`CREATE RETRO VIEW %s AS CollateData('%s')`, name, qq), nil); err != nil {
		return err
	}

	grow := func(n int) error {
		if pattern == "sparse" {
			return e.ExtendSparse(n, batchRefreshEvery)
		}
		return e.Extend(n)
	}
	for _, hist := range histories {
		if n := hist - int(e.Last); n > 0 {
			if err := grow(n); err != nil {
				return err
			}
		}
		// Untimed catch-up to the target length.
		m.AnnounceSnapshot(e.Last)
		if err := m.ViewRefresh(name); err != nil {
			return err
		}

		var best time.Duration
		for i := 0; i < reps; i++ {
			if err := grow(viewRefreshStride); err != nil {
				return err
			}
			m.AnnounceSnapshot(e.Last)
			start := time.Now()
			if err := m.ViewRefresh(name); err != nil {
				return err
			}
			wall := time.Since(start) / viewRefreshStride
			if i == 0 || wall < best {
				best = wall
			}
		}

		// The recompute a view-less system would run after each new
		// snapshot: every history member, cold cache (timedRun resets).
		qs := QsRange(2, e.Last, 1)
		_, fwall, err := e.timedRun(mechCollate, qs, qq, modeSequential, fullReps)
		if err != nil {
			return fmt.Errorf("view-refresh %s full recompute: %w", pattern, err)
		}

		point := ViewRefreshPoint{
			Pattern: pattern,
			History: int(e.Last),
			Incremental: ViewRefreshSide{
				Wall: best.Round(time.Microsecond).String(), WallNS: best.Nanoseconds()},
			Full: ViewRefreshSide{
				Wall: fwall.Round(time.Microsecond).String(), WallNS: fwall.Nanoseconds()},
		}
		if best > 0 {
			point.Ratio = float64(fwall) / float64(best)
		}
		for _, info := range m.Infos() {
			if info.Name == name {
				point.Rows = info.Rows
				if info.Refreshes > 0 {
					point.PrunedShare = float64(info.PrunedRefreshes) / float64(info.Refreshes)
				}
			}
		}
		res.Points = append(res.Points, point)
	}
	return nil
}

// compareViewRefresh diffs the view-refresh phase of two reports
// through the same regression check as the batch sides. Runs predating
// the phase have nothing to match.
func compareViewRefresh(old, cur *BatchReport, out io.Writer, check func(mech, side string, old, cur BatchSide)) {
	if old.ViewRefresh == nil || cur.ViewRefresh == nil {
		return
	}
	prev := map[string]ViewRefreshPoint{}
	for _, p := range old.ViewRefresh.Points {
		prev[fmt.Sprintf("%s/%d", p.Pattern, p.History)] = p
	}
	tab := &Table{
		Title:   "View refresh: newest run vs previous",
		Headers: []string{"pattern", "history", "incremental Δ", "full Δ", "ratio"},
	}
	for _, p := range cur.ViewRefresh.Points {
		o, ok := prev[fmt.Sprintf("%s/%d", p.Pattern, p.History)]
		if !ok {
			continue
		}
		label := fmt.Sprintf("view-refresh/%s/%d", p.Pattern, p.History)
		check(label, "incremental",
			BatchSide{WallNS: o.Incremental.WallNS}, BatchSide{WallNS: p.Incremental.WallNS})
		check(label, "full",
			BatchSide{WallNS: o.Full.WallNS}, BatchSide{WallNS: p.Full.WallNS})
		tab.Add(p.Pattern, p.History,
			wallDelta(BatchSide{WallNS: o.Incremental.WallNS}, BatchSide{WallNS: p.Incremental.WallNS}),
			wallDelta(BatchSide{WallNS: o.Full.WallNS}, BatchSide{WallNS: p.Full.WallNS}),
			fmt.Sprintf("%.0fx", p.Ratio))
	}
	tab.Fprint(out)
}

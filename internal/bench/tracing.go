package bench

import (
	"fmt"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
)

// TracingSide is one side (recorder disabled or enabled) of the
// tracing-overhead measurement.
type TracingSide struct {
	Wall         string `json:"wall"`
	WallNS       int64  `json:"wall_ns"`
	PagelogReads int    `json:"pagelog_reads"`
	CacheHits    int    `json:"cache_hits"`
	// Spans in the recorder ring after the enabled run (zero on the
	// disabled side — nothing may be recorded there).
	Spans int `json:"spans,omitempty"`
}

// TracingResult is the tracing-overhead phase of the batch report: the
// same retrospective run measured with the span recorder off and on.
// Billed counters must be identical on both sides; OverheadPct is the
// enabled side's extra wall time in percent (negative when noise makes
// the traced run faster).
type TracingResult struct {
	Mechanism   string      `json:"mechanism"`
	Snapshots   int         `json:"snapshots"`
	Disabled    TracingSide `json:"disabled"`
	Enabled     TracingSide `json:"enabled"`
	OverheadPct float64     `json:"overhead_pct"`
}

// traceSet is the tracing phase's snapshot-set size: a smoke workload,
// not a sweep — just enough iterations that per-iteration, per-fetch and
// per-device-command spans all fire many times.
const traceSet = 8

// tracingOverhead measures what an enabled recorder costs on the same
// sleeping-device environment the pipeline phase uses: reads genuinely
// sleep pipeReadLatency, so the wall time is dominated by deterministic
// device waits and the comparison is robust against scheduler noise. A
// healthy recorder disappears into that budget; `make check` fails the
// build when the enabled side exceeds the disabled side by more than
// traceOverheadLimitPct.
func (r *Runner) tracingOverhead(reps int) (*TracingResult, error) {
	set := traceSet
	if r.Cfg.Quick {
		set = 6
	}
	cfg := r.Cfg
	cfg.SleepOnRead = true
	cfg.ReadLatency = pipeReadLatency
	cfg.DeviceQueueDepth = retro.DefaultQueueDepth
	// One overwrite cycle past the window archives every window page, so
	// the measured scans reach the Pagelog and the device pool — the
	// layers whose spans the recorder is billed for.
	last := 2 + (set - 1)
	history := last + UW60.Cycle
	fmt.Fprintf(r.Out, "[setup] building tracing-overhead environment: SF=%g, %d snapshots, sleeping device (%v/read)...\n",
		cfg.SF, history, pipeReadLatency)
	e, err := NewEnv(UW60, 1, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()

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
	if err := e.Extend(history - 1); err != nil {
		return nil, err
	}

	qs := QsRange(2, uint64(last), 1)
	qq := fmt.Sprintf(`SELECT o_orderkey FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`,
		keyA, keyB)

	// The recorder is process-global; put it back the way we found it.
	wasOn := obs.Enabled()
	defer func() {
		obs.SetTracing(wasOn)
		if !wasOn {
			obs.ResetSpans()
		}
	}()

	obs.SetTracing(false)
	offRS, offWall, err := e.timedRun(mechCollate, qs, qq, modeSequential, reps)
	if err != nil {
		return nil, fmt.Errorf("tracing disabled: %w", err)
	}
	obs.SetTracing(true)
	obs.ResetSpans()
	onRS, onWall, err := e.timedRun(mechCollate, qs, qq, modeSequential, reps)
	if err != nil {
		return nil, fmt.Errorf("tracing enabled: %w", err)
	}
	spans := len(obs.Spans())

	offT, onT := offRS.Total(), onRS.Total()
	if offT.PagelogReads != onT.PagelogReads || offT.CacheHits != onT.CacheHits {
		return nil, fmt.Errorf(
			"tracing changed the billed counters: disabled reads=%d hits=%d, enabled reads=%d hits=%d",
			offT.PagelogReads, offT.CacheHits, onT.PagelogReads, onT.CacheHits)
	}
	if spans == 0 {
		return nil, fmt.Errorf("tracing enabled but the recorder captured no spans")
	}

	res := &TracingResult{
		Mechanism: "CollateData",
		Snapshots: set,
		Disabled: TracingSide{
			Wall:         offWall.Round(time.Microsecond).String(),
			WallNS:       offWall.Nanoseconds(),
			PagelogReads: offT.PagelogReads,
			CacheHits:    offT.CacheHits,
		},
		Enabled: TracingSide{
			Wall:         onWall.Round(time.Microsecond).String(),
			WallNS:       onWall.Nanoseconds(),
			PagelogReads: onT.PagelogReads,
			CacheHits:    onT.CacheHits,
			Spans:        spans,
		},
	}
	if offWall > 0 {
		res.OverheadPct = (float64(onWall) - float64(offWall)) / float64(offWall) * 100
	}
	return res, nil
}

// traceOverheadLimitPct is the regression budget enforced by
// `make check`: enabled tracing may cost at most this much wall time on
// the sleep-dominated smoke workload.
const traceOverheadLimitPct = 5.0

// TracingCheck runs the tracing-overhead smoke measurements — the
// in-process recorder cost and the wire-propagated path — and fails
// when either enabled side exceeds the budget (rqlbench -trace-check,
// run from `make check`).
func (r *Runner) TracingCheck() error {
	reps := 3
	res, err := r.tracingOverhead(reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Out,
		"tracing overhead: disabled %s, enabled %s (%d spans) → %+.2f%% (budget %.0f%%)\n",
		res.Disabled.Wall, res.Enabled.Wall, res.Enabled.Spans,
		res.OverheadPct, traceOverheadLimitPct)
	if res.OverheadPct > traceOverheadLimitPct {
		return fmt.Errorf("enabled tracing costs %.2f%% wall time on the smoke workload, budget is %.0f%%",
			res.OverheadPct, traceOverheadLimitPct)
	}

	pres, err := r.propagatedOverhead(reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.Out,
		"propagated tracing overhead: disabled %s, enabled %s (%d spans) → %+.2f%% (budget %.0f%%)\n",
		pres.Disabled.Wall, pres.Enabled.Wall, pres.Enabled.Spans,
		pres.OverheadPct, traceOverheadLimitPct)
	if pres.OverheadPct > traceOverheadLimitPct {
		return fmt.Errorf("propagated tracing costs %.2f%% wall time on the wire smoke workload, budget is %.0f%%",
			pres.OverheadPct, traceOverheadLimitPct)
	}
	return nil
}

package bench

import (
	"fmt"
	"sort"
	"time"

	"rql/internal/core"
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
// same retrospective run measured in alternating pairs with the span
// recorder off and on. Billed counters must be identical on every run;
// each side reports its median wall time; OverheadPct is the median of
// the per-pair overheads (the enabled run's extra wall time in percent,
// negative when noise makes the traced run faster) and SpreadPct their
// interquartile range — the measurement's own noise, to read the
// overhead against.
type TracingResult struct {
	Mechanism   string      `json:"mechanism"`
	Snapshots   int         `json:"snapshots"`
	Pairs       int         `json:"pairs"`
	Disabled    TracingSide `json:"disabled"`
	Enabled     TracingSide `json:"enabled"`
	OverheadPct float64     `json:"overhead_pct"`
	SpreadPct   float64     `json:"spread_pct"`
}

// traceSet is the tracing phase's snapshot-set size: a smoke workload,
// not a sweep — just enough iterations that per-iteration, per-fetch and
// per-device-command spans all fire many times.
const traceSet = 8

// traceReadLatency is the tracing phases' modeled device: a cold
// storage tier (spinning disk or network store) rather than the local
// SSD of DefaultReadLatency, so device waits dominate the wall time.
const traceReadLatency = time.Millisecond

// tracingOverhead measures what an enabled recorder costs on a
// sleeping-device environment: reads genuinely sleep traceReadLatency,
// so the wall time is dominated by deterministic device waits and the
// comparison is robust against scheduler noise. A healthy recorder
// disappears into that budget; `make check` fails the build when the
// median paired overhead exceeds traceOverheadLimitPct.
func (r *Runner) tracingOverhead(pairs, reps int) (*TracingResult, error) {
	set := traceSet
	if r.Cfg.Quick {
		set = 6
	}
	cfg := r.Cfg
	cfg.SleepOnRead = true
	cfg.ReadLatency = traceReadLatency
	cfg.DeviceQueueDepth = retro.DefaultQueueDepth
	// One overwrite cycle past the window archives every window page, so
	// the measured scans reach the Pagelog and the device — the
	// layers whose spans the recorder is billed for.
	last := 2 + (set - 1)
	history := last + UW60.Cycle
	fmt.Fprintf(r.Out, "[setup] building tracing-overhead environment: SF=%g, %d snapshots, sleeping device (%v/read)...\n",
		cfg.SF, history, traceReadLatency)
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

	res, err := pairedOverhead(pairs,
		func(on bool) error { obs.SetTracing(on); return nil },
		func() (*core.RunStats, time.Duration, error) {
			return e.timedRun(mechCollate, qs, qq, modeSequential, reps)
		})
	if err != nil {
		return nil, err
	}
	res.Snapshots = set
	return res, nil
}

// pairedOverhead is the measurement both tracing gates share: pairs
// alternating (recorder off, recorder on) measurements of one cold
// workload (run reports its best of a few repetitions), the order
// flipped every pair so warm-up and drift favour neither side. The
// verdict is the median paired overhead, so one stalled measurement
// moves one pair and not the result. Billed counters that differ
// between any two runs, and an enabled side that recorded no spans, are
// errors.
func pairedOverhead(pairs int, setTracing func(on bool) error, run func() (*core.RunStats, time.Duration, error)) (*TracingResult, error) {
	// The recorder is process-global; put it back the way we found it.
	wasOn := obs.Enabled()
	defer func() {
		obs.SetTracing(wasOn)
		if !wasOn {
			obs.ResetSpans()
		}
	}()
	obs.ResetSpans()

	var (
		walls [2][]time.Duration // by side: recorder off, on
		pcts  []float64
		ref   core.IterationCost
	)
	for p := 0; p < pairs; p++ {
		for i := 0; i < 2; i++ {
			side := (p + i) % 2 // 0: recorder off, 1: on
			on := side == 1
			if err := setTracing(on); err != nil {
				return nil, err
			}
			rs, wall, err := run()
			if err != nil {
				return nil, fmt.Errorf("pair %d, tracing on=%v: %w", p, on, err)
			}
			t := rs.Total()
			if p == 0 && i == 0 {
				ref = t
			} else if t.PagelogReads != ref.PagelogReads || t.CacheHits != ref.CacheHits {
				return nil, fmt.Errorf(
					"tracing changed the billed counters: first run reads=%d hits=%d; pair %d, tracing on=%v: reads=%d hits=%d",
					ref.PagelogReads, ref.CacheHits, p, on, t.PagelogReads, t.CacheHits)
			}
			walls[side] = append(walls[side], wall)
		}
		off, on := walls[0][p], walls[1][p]
		pcts = append(pcts, (float64(on)-float64(off))/float64(off)*100)
	}
	spans := len(obs.Spans())
	if spans == 0 {
		return nil, fmt.Errorf("tracing enabled but the recorder captured no spans")
	}

	sort.Float64s(pcts)
	median := func(w []time.Duration) TracingSide {
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		med := w[len(w)/2]
		return TracingSide{
			Wall:         med.Round(time.Microsecond).String(),
			WallNS:       med.Nanoseconds(),
			PagelogReads: ref.PagelogReads,
			CacheHits:    ref.CacheHits,
		}
	}
	res := &TracingResult{
		Mechanism:   "CollateData",
		Pairs:       pairs,
		Disabled:    median(walls[0]),
		Enabled:     median(walls[1]),
		OverheadPct: pcts[len(pcts)/2],
		SpreadPct:   pcts[len(pcts)*3/4] - pcts[len(pcts)/4],
	}
	res.Enabled.Spans = spans
	return res, nil
}

// traceOverheadLimitPct is the regression budget enforced by
// `make check`: enabled tracing may cost at most this much wall time on
// the sleep-dominated smoke workload.
const traceOverheadLimitPct = 5.0

// tracePairs is how many off/on pairs `make check` measures: odd, so
// the median is one pair's reading, and enough that the quartiles are
// distinct pairs. Each side of a pair is the best of traceReps runs.
const (
	tracePairs = 7
	traceReps  = 3
)

// TracingCheck runs the tracing-overhead smoke measurements — the
// in-process recorder cost and the wire-propagated path — and fails
// when the median paired overhead of either exceeds the budget
// (rqlbench -trace-check, run from `make check`).
func (r *Runner) TracingCheck() error {
	for _, gate := range []struct {
		name    string
		measure func(pairs, reps int) (*TracingResult, error)
	}{
		{"tracing", r.tracingOverhead},
		{"propagated tracing", r.propagatedOverhead},
	} {
		res, err := gate.measure(tracePairs, traceReps)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Out,
			"%s overhead over %d off/on pairs: disabled %s, enabled %s (%d spans) → median %+.2f%%, interquartile spread %.2f%% (budget %.0f%%)\n",
			gate.name, res.Pairs, res.Disabled.Wall, res.Enabled.Wall, res.Enabled.Spans,
			res.OverheadPct, res.SpreadPct, traceOverheadLimitPct)
		if res.OverheadPct > traceOverheadLimitPct {
			return fmt.Errorf("%s costs a median %.2f%% wall time on the smoke workload, budget is %.0f%%",
				gate.name, res.OverheadPct, traceOverheadLimitPct)
		}
	}
	return nil
}

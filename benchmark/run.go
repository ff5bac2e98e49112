package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // Chrome trace-event file (traced run only); "" = <tmp>/trace-<workload>.json
	tiny     bool   // smoke-test sizes
	tmp      string // directory for Pagelog files and traces
	quiet    bool   // no per-phase report on stderr
}

// sample is one completed op as its client saw it.
type sample struct {
	class  int
	sess   int
	pos    int // position in the session's schedule (closed loop) or read number (paced reader)
	latMS  float64
	endS   float64 // completion time, seconds since the loop started
	res    opResult
	failed bool
	// Paced reader only: what was read, for the shadow-map check.
	at snapInfo
	o  op
}

// loopResult is what a closed loop (or the paced reader) produced.
type loopResult struct {
	samples []sample
	elapsed float64 // seconds from the loop's start to its last completion
}

// counters is every public counter the benchmark reads, taken together.
type counters struct {
	retro  RetroStats
	store  StorageStats
	server ServerStats
	views  uint64
	mem    runtime.MemStats
}

func takeCounters(e *env) (counters, error) {
	var c counters
	var err error
	if c.server, err = remoteStats(e.ctl); err != nil {
		return c, err
	}
	c.retro = dbRetroStats(e.db)
	c.store = dbStoreStats(e.db)
	c.views = dbViewRefreshes(e.db)
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// pagesServed is the paper's device-independent read cost: snapshot
// pages served from the Pagelog, from the snapshot cache, or shared
// with the current database.
func (c counters) pagesServed() uint64 {
	return c.retro.PagelogReads + c.retro.CacheHits + c.store.DBReads
}

// loop drives one session closed-loop: the next op is sent only after
// the previous one completed. It stops after limit ops (limit > 0) or
// once dur has elapsed. A traced session gets a span around every op.
func loop(e *env, w workload, s session, sess int, plan []op, limit int, dur time.Duration) loopResult {
	var out loopResult
	ts, _ := s.(*tracedSession)
	start := time.Now()
	for i := 0; ; i++ {
		if limit > 0 && i >= limit {
			break
		}
		if limit == 0 && time.Since(start) >= dur {
			break
		}
		o := plan[i%len(plan)]
		if ts != nil {
			ts.beginOp(className[o.class])
		}
		t0 := time.Now()
		res, err := w.do(e, s, sess, o)
		lat := time.Since(t0)
		if ts != nil {
			ts.endOp()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s session %d op %d (%s): %v\n", w.name(), sess, i, className[o.class], err)
		}
		out.samples = append(out.samples, sample{
			class: o.class, sess: sess, pos: i % len(plan),
			latMS: float64(lat) / 1e6, endS: time.Since(start).Seconds(), res: res, failed: err != nil, o: o,
		})
	}
	out.elapsed = time.Since(start).Seconds()
	return out
}

// runLoops runs one closed loop per session concurrently and, for
// commit_refresh's timed windows, the paced reader beside them.
func runLoops(e *env, w workload, conns []session, plans [][]op, dur time.Duration, rd *reader) (loops []loopResult, reads loopResult) {
	loops = make([]loopResult, len(conns))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loops[i] = loop(e, w, conns[i], i, plans[i], 0, dur)
		}(i)
	}
	if rd != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = rd.run(dur)
		}()
	}
	wg.Wait()
	return loops, reads
}

// ---- commit_refresh's paced reader -----------------------------------------------

// readerRate is the paced reader's request rate per second. It is fixed
// rather than closed-loop so that the read load beside the writer is the
// same whatever the writer's speed.
const readerRate = 20

// reader is commit_refresh's second session: AS OF reads of the latest
// acknowledged snapshot at a fixed rate, every fifth one an
// AggregateDataInVariable over the last ten snapshots (the regime where
// a snapshot set shares most pages with the current state).
type reader struct {
	e   *env
	w   *commitRefresh
	s   session
	rng *rand.Rand
}

// read issues the reader's i-th request and returns it as a sample
// without a latency. The snapshot (and, for a mechanism, the Qs text) is
// fixed while holding the writer's lock: the writer appends to e.snaps.
func (r *reader) read(i int) sample {
	o := op{class: clPoint}
	if i%5 == 4 {
		o = op{class: clAggVar, members: 10, stride: 1, qq: qqIO}
	}
	r.w.mu.Lock()
	n := len(r.e.snaps)
	at := r.e.snaps[n-1]
	var qs string
	if o.class == clAggVar {
		o.first = n - o.members
		qs = o.qs(r.e)
	}
	r.w.mu.Unlock()

	sm := sample{sess: 1, pos: i, at: at}
	var err error
	if o.class == clAggVar {
		sm.res, err = doMech(r.s, 1, o, qs)
	} else {
		o.keyLo = at.lo + r.rng.Int63n(at.hi-at.lo+1)
		o.keyHi = o.keyLo + 1
		sm.res, err = doAsOf(r.s, at.id, o)
	}
	sm.class, sm.o = o.class, o
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: commit_refresh reader op %d: %v\n", i, err)
		sm.failed = true
	}
	return sm
}

// run issues reads at readerRate for dur.
func (r *reader) run(dur time.Duration) loopResult {
	var out loopResult
	start := time.Now()
	period := time.Second / readerRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		sm := r.read(i)
		// An open loop is timed from when the request was due, so a
		// stall shows as latency on every request it delayed.
		sm.latMS = float64(time.Since(due)) / 1e6
		out.samples = append(out.samples, sm)
	}
	out.elapsed = time.Since(start).Seconds()
	return out
}

// ---- one run ---------------------------------------------------------------------------

// phaseTimes is the wall time of each phase of a run.
type phaseTimes struct {
	setup, counted, window, oracle, layers float64
}

// runResult is everything one invocation measured.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	phases            phaseTimes
	samples           int // closed-loop ops behind the latency percentiles
}

// tally counts the ops of loops as attempted and their failures.
func (r *runResult) tally(loops ...loopResult) {
	for _, l := range loops {
		r.attempted += len(l.samples)
		for _, s := range l.samples {
			if s.failed {
				r.failed++
			}
		}
	}
}

// sessionsFor opens the workload's closed-loop sessions.
func sessionsFor(e *env, plans [][]op) ([]*remoteConn, []session, error) {
	conns := make([]*remoteConn, len(plans))
	sessions := make([]session, len(plans))
	for i := range plans {
		c, err := e.dial()
		if err != nil {
			for _, c := range conns[:i] {
				remoteClose(c)
			}
			return nil, nil, err
		}
		conns[i], sessions[i] = c, c
	}
	return conns, sessions, nil
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median.
const setupRepeats = 5

func run(cfg config) (runResult, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return runResult{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := w.sizes(cfg.tiny)
	res := runResult{metrics: make(map[string]float64)}
	report := func(format string, args ...any) {
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Set-up, repeated: its time is an end-to-end metric and a single
	// measurement of a couple of seconds is too noisy to gate on.
	setups := setupRepeats
	if cfg.trace || cfg.tiny {
		setups = 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		e, err = buildEnv(sz, cfg.seed, filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d-%d", w.name(), os.Getpid(), i)))
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	res.phases.setup = sum(setupS)
	report("set-up      %6.2fs  (%d×, median %.3fs; load %.3fs, history %.3fs, %d snapshots)",
		res.phases.setup, setups, median(setupS), e.loadS, e.historyS, len(e.snaps))

	rng := rand.New(rand.NewSource(cfg.seed))
	plans := w.plan(e, rng)
	conns, sessions, err := sessionsFor(e, plans)
	if err != nil {
		return res, err
	}
	defer func() {
		for _, c := range conns {
			remoteClose(c)
		}
	}()
	var rd *reader
	if cr, ok := w.(*commitRefresh); ok {
		rc, err := e.dial()
		if err != nil {
			return res, err
		}
		defer remoteClose(rc)
		rd = &reader{e: e, w: cr, s: rc, rng: rand.New(rand.NewSource(cfg.seed + 1))}
	}

	// Counted pass: every session runs a fixed list of ops once, one
	// session after the other. It warms the caches, and because the ops
	// and their order are fixed the pages served during it repeat exactly
	// for a seed, however the window's timing falls.
	t0 := time.Now()
	before, err := takeCounters(e)
	if err != nil {
		return res, err
	}
	counted := make([]loopResult, len(sessions))
	for i, s := range sessions {
		counted[i] = loop(e, w, s, i, plans[i], e.sz.cycle, 0)
	}
	if e.sz.view {
		// The view refreshes in the background; wait for it so its page
		// reads fall inside the counted pass every time.
		if err := e.local.Exec(`REFRESH RETRO VIEW `+viewName, nil); err != nil {
			return res, err
		}
	}
	// commit_refresh's reads ride beside the writer. Ten of them — the
	// window's proportion, 20/s beside some 260 refreshes/s — put their
	// page cost into pages_per_op; they run after the writer's ops so
	// that the pass stays the same work for a seed.
	var countedReads loopResult
	if rd != nil {
		for i := 0; i < 10; i++ {
			countedReads.samples = append(countedReads.samples, rd.read(i))
		}
	}
	after, err := takeCounters(e)
	if err != nil {
		return res, err
	}
	countedN := 0
	for _, l := range counted {
		countedN += len(l.samples)
	}
	pagesPerOp := float64(after.pagesServed()-before.pagesServed()) / float64(countedN)
	// Space is taken here too, after a fixed number of commits: at the
	// end of the window it would follow the window's throughput.
	amp, err := spaceAmp(e)
	if err != nil {
		return res, err
	}
	res.phases.counted = time.Since(t0).Seconds()
	report("counted pass%6.2fs  (%d ops, %.2f pages/op, space amplification %.3f)", res.phases.counted, countedN, pagesPerOp, amp)

	if cfg.trace {
		return runTraced(cfg, w, e, plans, sessions, rd, counted, countedReads, res, report)
	}

	// The measured window, tracing off.
	runtime.GC()
	t0 = time.Now()
	if before, err = takeCounters(e); err != nil {
		return res, err
	}
	loops, reads := runLoops(e, w, sessions, plans, seconds(cfg.seconds), rd)
	if after, err = takeCounters(e); err != nil {
		return res, err
	}
	res.phases.window = time.Since(t0).Seconds()
	pacedReads := len(reads.samples)
	reads.samples = append(countedReads.samples, reads.samples...)

	// Oracle, untimed.
	t0 = time.Now()
	all := append(append([]loopResult{}, counted...), loops...)
	checked, err := verify(e, w, rng, all, reads)
	if err != nil {
		return res, fmt.Errorf("oracle: %w", err)
	}
	res.phases.oracle = time.Since(t0).Seconds()

	e2e := endToEnd(loops, cfg.seconds, before, after, report)
	e2e["setup_s"] = median(setupS)
	e2e["pages_per_op"] = pagesPerOp
	e2e["space_amp"] = amp
	res.metrics = e2e
	res.tally(append(all, reads)...)
	for _, l := range loops {
		res.samples += len(l.samples)
	}
	report("window      %6.2fs  (%d closed-loop ops, %d paced reads)", res.phases.window, res.samples, pacedReads)
	for cl, lats := range latenciesByClass(loops) {
		report("  %-10s %5d ops  p50 %.3f ms", className[cl], len(lats), quantile(lats, 0.5))
	}
	report("oracle      %6.2fs  (%d ops re-derived, %d failed of %d attempted)", res.phases.oracle, checked, res.failed, res.attempted)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// slices is how many equal parts the window is cut into. Throughput and
// the latency percentiles are computed per part and the median part is
// reported, so a transient stall of the sandbox (another tenant, a
// page-cache flush) moves one part, not the metric.
const slices = 5

// endToEnd computes the window's end-to-end metrics.
func endToEnd(loops []loopResult, windowS float64, before, after counters, report func(string, ...any)) map[string]float64 {
	type part struct {
		lats      []float64
		ops, rows float64
	}
	parts := make([]part, slices)
	width := windowS / slices
	n := 0
	for _, l := range loops {
		n += len(l.samples)
		for _, s := range l.samples {
			if i := int(s.endS / width); i < slices {
				parts[i].lats = append(parts[i].lats, s.latMS)
			}
			if s.failed {
				continue
			}
			// An op counts toward each part by the share of its time it
			// spent there, so a part's throughput is not rounded to
			// whole ops (a part of mech_scan holds about fifty).
			startS := s.endS - s.latMS/1e3
			for i := range parts {
				overlap := min(s.endS, float64(i+1)*width) - max(startS, float64(i)*width)
				if overlap > 0 {
					share := overlap / (s.endS - startS)
					parts[i].ops += share
					parts[i].rows += share * float64(s.res.rows)
				}
			}
		}
	}
	var opsPerS, rowsPerS, p50s, p90s []float64
	for i := range parts {
		sort.Float64s(parts[i].lats)
		opsPerS = append(opsPerS, parts[i].ops/width)
		rowsPerS = append(rowsPerS, parts[i].rows/width)
		if len(parts[i].lats) > 0 { // a part shorter than one op completes none
			p50s = append(p50s, quantile(parts[i].lats, 0.50))
			p90s = append(p90s, quantile(parts[i].lats, 0.90))
		}
		report("  part %d: %8.2f ops/s  p50 %9.4f ms  p90 %9.4f ms", i+1, opsPerS[i], quantile(parts[i].lats, 0.50), quantile(parts[i].lats, 0.90))
	}
	return map[string]float64{
		"ops_per_s":       median(opsPerS),
		"rows_per_s":      median(rowsPerS),
		"lat_p50_ms":      median(p50s),
		"lat_p90_ms":      median(p90s),
		"alloc_kb_per_op": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(n),
	}
}

var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// spaceAmp is bytes stored per byte of live user data: the snapshot
// archive on disk plus the current-state pages, over the encoded rows
// of the eight TPC-H tables.
func spaceAmp(e *env) (float64, error) {
	var user int64
	for _, t := range tpchTables {
		_, b, err := tableDataBytes(e.local, t)
		if err != nil {
			return 0, err
		}
		user += b
	}
	stored := dbPagelogDiskBytes(e.db) + int64(dbCurrentPages(e.db))*pageSize
	return float64(stored) / float64(user), nil
}

// ---- small statistics ---------------------------------------------------------------------

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// quantile of an ascending slice, linearly interpolated; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// latenciesByClass groups the loops' op latencies by class, ascending.
func latenciesByClass(loops []loopResult) map[int][]float64 {
	by := make(map[int][]float64)
	for _, l := range loops {
		for _, s := range l.samples {
			by[s.class] = append(by[s.class], s.latMS)
		}
	}
	for _, lats := range by {
		sort.Float64s(lats)
	}
	return by
}

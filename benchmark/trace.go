package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The traced run. Spans are recorded by the benchmark around its calls
// into each layer's public functions, kept in memory and written as
// Chrome trace-event JSON at exit; spans inside the program (PR 10) are
// not the source of any number here.

// span is one timed call: name, start, end, the span that caused it and
// the op it belongs to.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent, op int           // span index of the parent (-1: none), op number
	tid        int           // session
}

type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	ops    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, op, tid int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op, tid: tid})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// timed runs fn inside a span and returns its duration in milliseconds.
func (t *tracer) timed(name string, parent, op, tid int, fn func() error) (float64, error) {
	id := t.begin(name, parent, op, tid)
	err := fn()
	return float64(t.end(id)) / 1e6, err
}

// write emits the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: map[string]int{"span": i, "parent": s.parent, "op": s.op},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedSession wraps a session so that every call into it is a span
// under the current op's span.
type tracedSession struct {
	session
	tr         *tracer
	tid        int
	parent, op int
}

// beginOp opens the span of the session's next op; endOp closes it.
func (t *tracedSession) beginOp(class string) {
	t.op = t.tr.newOp()
	t.parent = t.tr.begin("op."+class, -1, t.op, t.tid)
}

func (t *tracedSession) endOp() { t.tr.end(t.parent) }

func (t *tracedSession) call(name string) func() {
	id := t.tr.begin(name, t.parent, t.op, t.tid)
	return func() { t.tr.end(id) }
}

func (t *tracedSession) Exec(sqlText string, cb RowCallback, params ...Value) error {
	defer t.call("client.Exec")()
	return t.session.Exec(sqlText, cb, params...)
}

func (t *tracedSession) CommitWithSnapshot() (uint64, error) {
	defer t.call("client.CommitWithSnapshot")()
	return t.session.CommitWithSnapshot()
}

func (t *tracedSession) RecordSnapshot(id uint64, ts time.Time, label string) error {
	defer t.call("client.RecordSnapshot")()
	return t.session.RecordSnapshot(id, ts, label)
}

func (t *tracedSession) CollateData(qs, qq, table string) (*RunStats, error) {
	defer t.call("client.CollateData")()
	return t.session.CollateData(qs, qq, table)
}

func (t *tracedSession) AggregateDataInVariable(qs, qq, table, fn string) (*RunStats, error) {
	defer t.call("client.AggregateDataInVariable")()
	return t.session.AggregateDataInVariable(qs, qq, table, fn)
}

func (t *tracedSession) AggregateDataInTable(qs, qq, table, pairs string) (*RunStats, error) {
	defer t.call("client.AggregateDataInTable")()
	return t.session.AggregateDataInTable(qs, qq, table, pairs)
}

func (t *tracedSession) CollateDataIntoIntervals(qs, qq, table string) (*RunStats, error) {
	defer t.call("client.CollateDataIntoIntervals")()
	return t.session.CollateDataIntoIntervals(qs, qq, table)
}

// levels is one op's time at each successive entry point, in ms.
type levels struct {
	client float64 // the op through client.Conn over TCP
	rql    float64 // the same op through the in-process rql.Conn
	sql    float64 // its snapshot-bound statements through sql.Conn.ExecAsOf[Set], no mechanism
	retro  float64 // OpenSnapshot[Set] + SnapshotReader.Get over the op's read-set
	btree  float64 // storage+btree work: replayed on a scratch store (writes) or estimated from scratch probes (reads)
}

// replayState is what the level replays share.
type replayState struct {
	e      *env
	w      workload
	tr     *tracer
	client session
	probes *probeResults
	scr    *scratchTables

	lv         []levels
	perSnapMS  []float64 // one sql.Conn.ExecAsOf[Set] call
	openSnapUS []float64 // System.OpenSnapshot
	openSetMS  []float64 // System.OpenSnapshotSet
	samples    loopResult
}

func (r *replayState) reset() {
	if r.w.cold() {
		dbResetSnapshotCache(r.e.db)
	}
}

// replay runs o at each entry point in turn, every level in a span
// under one op span. Cache state is made the same before each level.
func (r *replayState) replay(o op, pos int) error {
	e, tr := r.e, r.tr
	opID := tr.newOp()
	root := tr.begin("replay."+className[o.class], -1, opID, 9)
	defer tr.end(root)
	var lv levels
	var res, res1 opResult
	var err error

	r.reset()
	lv.client, err = tr.timed("L0 client.Conn", root, opID, 9, func() (err error) {
		res, err = r.w.do(e, r.client, 0, o)
		return err
	})
	r.samples.samples = append(r.samples.samples, sample{class: o.class, pos: pos, latMS: lv.client, res: res, failed: err != nil, o: o})
	if err != nil {
		return err
	}
	r.reset()
	lv.rql, err = tr.timed("L1 rql.Conn", root, opID, 9, func() (err error) {
		res1, err = r.w.do(e, e.local, 8, o)
		return err
	})
	r.samples.samples = append(r.samples.samples, sample{class: o.class, pos: pos, latMS: lv.rql, res: res1, failed: err != nil, o: o})
	if err != nil {
		return err
	}

	switch o.class {
	case clRefresh:
		lv.btree, err = tr.timed("L2 storage+btree scratch", root, opID, 9, func() error {
			return r.scr.refresh(e.sz.perSnap)
		})
		if err != nil {
			return err
		}
	case clPoint, clRange:
		snapID := e.snaps[o.snap].id
		// Untimed: learn which pages the statement reads.
		recordReadSets(e.local, true)
		_, err = doAsOf(e.local, snapID, o)
		pages := lastReadSet(e.local)
		recordReadSets(e.local, false)
		if err != nil {
			return err
		}
		text, params := rangeSQL[len(`SELECT AS OF ? `):], []Value{intVal(o.keyLo), intVal(o.keyHi)}
		if o.class == clPoint {
			text, params = pointSQL[len(`SELECT AS OF ? `):], params[:1]
		}
		lv.sql, err = tr.timed("L2 sql.ExecAsOf", root, opID, 9, func() error {
			return execAsOf(e.local, "SELECT "+text, snapID, func([]string, []Value) error { return nil }, params...)
		})
		if err != nil {
			return err
		}
		r.perSnapMS = append(r.perSnapMS, lv.sql)
		var open time.Duration
		lv.retro, err = tr.timed("L3 retro.OpenSnapshot+Get", root, opID, 9, func() (err error) {
			open, err = openSnapshotGet(e.db, snapID, pages)
			return err
		})
		if err != nil {
			return err
		}
		r.openSnapUS = append(r.openSnapUS, float64(open)/1e3)
		lv.btree = float64(2*res.rows+1) * r.probes.btreeGetNS / 1e6
	default:
		// Mechanism ops. Only the iterations the mechanism executed (not
		// the ones delta pruning replayed from its cache) touch sql and
		// retro, so only those are replayed below the mechanism.
		ids := o.memberIDs(e)
		executed := ids
		if res.run != nil && len(res.run.Iterations) == len(ids) {
			executed = executed[:0:0]
			for _, it := range res.run.Iterations {
				if !it.Pruned {
					executed = append(executed, it.Snapshot)
				}
			}
		}
		discard := func([]string, []Value) error { return nil }
		pages := make(map[uint64][]pageID, len(executed))
		recordReadSets(e.local, true)
		set, err := openReaderSet(e.local, ids)
		if err != nil {
			return err
		}
		qqRows := 0
		for _, id := range executed {
			if err = execAsOfSet(e.local, o.qq, set, id, func([]string, []Value) error { qqRows++; return nil }); err != nil {
				break
			}
			pages[id] = lastReadSet(e.local)
		}
		closeReaderSet(set)
		recordReadSets(e.local, false)
		if err != nil {
			return err
		}

		r.reset()
		lv.sql, err = tr.timed("L2 sql.ExecAsOfSet", root, opID, 9, func() error {
			set, err := openReaderSet(e.local, ids)
			if err != nil {
				return err
			}
			defer closeReaderSet(set)
			for _, id := range executed {
				t0 := time.Now()
				if err := execAsOfSet(e.local, o.qq, set, id, discard); err != nil {
					return err
				}
				r.perSnapMS = append(r.perSnapMS, float64(time.Since(t0))/1e6)
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.reset()
		var open time.Duration
		lv.retro, err = tr.timed("L3 retro.OpenSnapshotSet+Get", root, opID, 9, func() (err error) {
			open, err = openSetGet(e.db, ids, pages)
			return err
		})
		if err != nil {
			return err
		}
		r.openSetMS = append(r.openSetMS, float64(open)/1e6)
		if scansOrders(o) {
			lv.btree = float64(len(executed)*e.orders0) * r.probes.btreeScanNS / 1e6
		} else {
			lv.btree = float64(2*qqRows+2*len(executed)) * r.probes.btreeGetNS / 1e6
		}
	}
	r.lv = append(r.lv, lv)
	return nil
}

// scansOrders reports whether the op's Qq reads the whole orders table
// (no usable index) rather than an order-key range.
func scansOrders(o op) bool {
	return o.class == clAggTable || o.qq == qqIO || (o.class == clCollate && o.stride == 1)
}

// medianLevels is the median over the replayed ops of each level.
func medianLevels(lv []levels) (client, rql, sql, retro, btree float64) {
	col := func(f func(levels) float64) float64 {
		v := make([]float64, len(lv))
		for i, l := range lv {
			v[i] = f(l)
		}
		return median(v)
	}
	return col(func(l levels) float64 { return l.client }), col(func(l levels) float64 { return l.rql }),
		col(func(l levels) float64 { return l.sql }), col(func(l levels) float64 { return l.retro }),
		col(func(l levels) float64 { return l.btree })
}

// shares turns the levels' medians into each layer group's self time
// (a level minus the next lower one) as a share of the op.
func shares(lv []levels) (clientWireServer, sqlCore, retro, storageBtree float64) {
	client, rql, _, ret, bt := medianLevels(lv)
	if client <= 0 {
		return 0, 0, 0, 0
	}
	pos := func(v float64) float64 { return max(v, 0) }
	cws := pos(client - rql)
	bt = min(bt, pos(rql-ret))
	sc := pos(rql - ret - bt)
	total := cws + sc + ret + bt
	return cws / total, sc / total, ret / total, bt / total
}

// histP50MS is the median of the server's request-latency histogram
// delta, interpolated inside its bucket.
func histP50MS(before, after ServerStats) float64 {
	var counts []uint64
	total := uint64(0)
	for i := range after.LatencyBuckets {
		c := after.LatencyBuckets[i] - before.LatencyBuckets[i]
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0
	}
	half, seen := float64(total)/2, 0.0
	for i, c := range counts {
		if seen+float64(c) >= half && c > 0 {
			lo, hi := 0.0, 0.0
			if i > 0 {
				lo = float64(after.LatencyBounds[i-1]) / 1e6
			}
			if i < len(after.LatencyBounds) {
				hi = float64(after.LatencyBounds[i]) / 1e6
			} else {
				hi = 2 * lo
			}
			return lo + (hi-lo)*(half-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pollViewLag watches, four times a second over the control connection,
// how many snapshots the retro view's cursor trails the newest
// acknowledged one. The returned function stops the watch and yields
// the largest lag seen.
func (w *commitRefresh) pollViewLag(e *env) (stop func() uint64) {
	var lagMax uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			views, err := remoteViews(e.ctl)
			if err != nil {
				continue // the counters taken after the window report a broken control connection
			}
			w.mu.Lock()
			last := e.snaps[len(e.snaps)-1].id
			w.mu.Unlock()
			for _, v := range views {
				if v.Name == viewName && last > v.LastSnap {
					lagMax = max(lagMax, last-v.LastSnap)
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return lagMax
	}
}

// runTraced is the body of a --trace 1 run after set-up and the counted
// pass: an untraced and a traced window (their difference is the tracing
// overhead), level replays of sampled ops, and the scratch probes.
func runTraced(cfg config, w workload, e *env, plans [][]op, sessions []session, rd *reader, counted []loopResult, countedReads loopResult,
	res runResult, report func(string, ...any)) (runResult, error) {
	m := res.metrics
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	part := seconds(cfg.seconds / 4)

	// Untraced window: the base for the tracing overhead.
	t0 := time.Now()
	base, baseReads := runLoops(e, w, sessions, plans, part, rd)
	baseOps := 0.0
	for _, l := range base {
		baseOps += float64(len(l.samples)) / l.elapsed
	}

	// Traced window, same shape, with spans; the counter deltas over it
	// give the count-based per-layer metrics.
	tr := newTracer()
	stopLag := func() uint64 { return 0 }
	if cr, ok := w.(*commitRefresh); ok {
		stopLag = cr.pollViewLag(e)
	}
	runtime.GC()
	before, err := takeCounters(e)
	if err != nil {
		return res, err
	}
	tracedSessions := make([]session, len(sessions))
	for i, s := range sessions {
		tracedSessions[i] = &tracedSession{session: s, tr: tr, tid: i}
	}
	traced, reads := runLoops(e, w, tracedSessions, plans, part, rd)
	lagMax := stopLag() // before the control connection is used again below
	after, err := takeCounters(e)
	if err != nil {
		return res, err
	}
	res.phases.window = time.Since(t0).Seconds()

	var lats []float64
	tracedOps, ops := 0.0, 0
	var eval, index, udf time.Duration
	resultRows, iters, pruned, replayed := 0, 0, 0, 0
	prefetched, prefetchHits, prefetchWasted, mapScanned := 0, 0, 0, 0
	for _, l := range traced {
		tracedOps += float64(len(l.samples)) / l.elapsed
		for _, s := range l.samples {
			ops++
			lats = append(lats, s.latMS)
			if run := s.res.run; run != nil {
				for _, it := range run.Iterations {
					eval += it.QueryEval
					index += it.IndexCreation
					udf += it.UDF
					mapScanned += it.MapScanned
				}
				resultRows += run.ResultRows
				iters += len(run.Iterations)
				pruned += run.PrunedIterations
				replayed += run.PrunedRowsReplayed
				prefetched += run.PipelinedPrefetches
				prefetchHits += run.PrefetchHits
				prefetchWasted += run.PrefetchWasted
			}
		}
	}
	sort.Float64s(lats)
	nOps := float64(ops)
	d := func(a, b uint64) float64 { return float64(b - a) }
	commits := d(before.store.Commits, after.store.Commits)
	groups := d(before.store.Groups, after.store.Groups)
	reads2 := d(before.retro.PagelogReads, after.retro.PagelogReads)
	hits := d(before.retro.CacheHits, after.retro.CacheHits)

	m["client.lat_p99_ms"] = quantile(lats, 0.99)
	var readerLats []float64
	for _, s := range reads.samples {
		readerLats = append(readerLats, s.latMS)
	}
	sort.Float64s(readerLats)
	m["client.reader_lat_p50_ms"] = quantile(readerLats, 0.5)
	m["client.reader_ops_per_s"] = ratio(float64(len(reads.samples)), reads.elapsed)
	m["server.hist_p50_ms"] = histP50MS(before.server, after.server)
	m["sql.eval_ms_per_op"] = float64(eval) / 1e6 / nOps
	m["sql.index_ms_per_op"] = float64(index) / 1e6 / nOps
	m["core.udf_ms_per_op"] = float64(udf) / 1e6 / nOps
	m["core.result_rows_per_op"] = float64(resultRows) / nOps
	by := latenciesByClass(traced)
	for _, cl := range []int{clCollate, clAggVar, clAggTable, clIntervals} {
		m["core.mech_ms_p50."+className[cl]] = quantile(by[cl], 0.5)
	}
	m["core.pruned_share"] = ratio(float64(pruned), float64(iters))
	m["core.rows_replayed_per_op"] = float64(replayed) / nOps
	m["core.prefetch_hit_ratio"] = ratio(float64(prefetchHits), float64(prefetched))
	m["core.prefetch_wasted_ratio"] = ratio(float64(prefetchWasted), float64(prefetched))
	m["core.view_refresh_per_commit"] = ratio(float64(after.views-before.views), d(before.retro.Snapshots, after.retro.Snapshots))
	m["core.view_lag_snapshots_max"] = float64(lagMax)
	m["retro.map_scanned_per_op"] = (d(before.retro.BatchMapScanned, after.retro.BatchMapScanned) + float64(mapScanned)) / nOps
	m["retro.cache_hit_ratio"] = ratio(hits, hits+reads2)
	m["retro.pagelog_reads_per_op"] = reads2 / nOps
	m["retro.device_busy_ms_per_op"] = d(before.retro.DeviceBusyNS, after.retro.DeviceBusyNS) / 1e6 / nOps
	m["retro.device_bytes_per_op"] = d(before.retro.DeviceBytesRead, after.retro.DeviceBytesRead) / nOps
	m["retro.seg_block_hit_ratio"] = ratio(d(before.retro.SegBlockHits, after.retro.SegBlockHits), reads2)
	m["retro.pagelog_writes_per_commit"] = ratio(d(before.retro.PagelogWrites, after.retro.PagelogWrites), commits)
	userBytes := 0.0
	for _, l := range traced {
		for _, s := range l.samples {
			userBytes += float64(s.res.bytes)
		}
	}
	m["retro.write_amp"] = ratio(d(before.retro.PagelogWrites, after.retro.PagelogWrites)*pageSize, userBytes)
	m["retro.flush_decisions_per_group"] = ratio(
		d(before.retro.DeviceFlushes, after.retro.DeviceFlushes)+d(before.retro.GroupFlushesSkipped, after.retro.GroupFlushesSkipped), groups)
	m["retro.seals"] = float64(after.retro.SegmentSeals)
	m["retro.disk_per_logical_byte"] = ratio(float64(after.retro.PagelogDiskBytes), float64(after.retro.PagelogLogicalBytes))
	m["storage.queue_wait_us_per_commit"] = ratio(d(before.store.QueueWaitNS, after.store.QueueWaitNS)/1e3, commits)
	m["storage.pages_written_per_commit"] = ratio(d(before.store.PagesWritten, after.store.PagesWritten), commits)
	m["storage.conflict_ratio"] = ratio(d(before.store.Conflicts, after.store.Conflicts), commits+d(before.store.Conflicts, after.store.Conflicts))
	m["storage.db_reads_per_op"] = d(before.store.DBReads, after.store.DBReads) / nOps
	m["tpch.load_s"] = e.loadS
	m["tpch.history_s"] = e.historyS
	m["obs.bench_trace_overhead_pct"] = 100 * ratio(baseOps-tracedOps, baseOps)
	m["rql.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	report("windows     %6.2fs  (untraced %.1f ops/s, traced %.1f ops/s, %d spans)", res.phases.window, baseOps, tracedOps, len(tr.spans))

	// Scratch probes first: the replays' btree estimates use them.
	t0 = time.Now()
	scr, err := newScratchTables(e.sz.sf, cfg.seed+7)
	if err != nil {
		return res, err
	}
	defer scr.close()
	var texts []string
	var rows [][]Value
	for _, p := range plans {
		for _, o := range p {
			if o.qq != "" {
				texts = append(texts, o.qq, o.qs(e))
			}
		}
	}
	if len(texts) == 0 {
		texts = []string{pointSQL, rangeSQL, insertSQL("orders", 9, e.sz.perSnap), `DELETE FROM orders WHERE o_orderkey < ?`}
	}
	for _, o := range scr.sample {
		rows = append(rows, o.Row)
	}
	probes, err := runProbes(scr, texts, rows)
	if err != nil {
		return res, err
	}
	probes.into(m)

	// Level replays, one session, a seeded sample of the schedule.
	rs := &replayState{e: e, w: w, tr: tr, client: sessions[0], probes: probes, scr: scr}
	order := rng.Perm(len(plans[0]))
	deadline := time.Now().Add(part)
	for i := 0; time.Now().Before(deadline) || i < len(w.classes()); i++ {
		pos := order[i%len(order)]
		if err := rs.replay(plans[0][pos], pos); err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
	}
	res.phases.layers = time.Since(t0).Seconds()

	clientMS, rqlMS, _, _, _ := medianLevels(rs.lv)
	m["server.overhead_ms_p50"] = clientMS - rqlMS
	m["sql.exec_asof_ms_p50"] = median(rs.perSnapMS)
	m["retro.open_snapshot_us_p50"] = median(rs.openSnapUS)
	m["retro.open_set_ms_p50"] = median(rs.openSetMS)
	if err := probeGets(e, m); err != nil {
		return res, err
	}
	m["share.client_wire_server"], m["share.sql_core"], m["share.retro"], m["share.storage_btree"] = shares(rs.lv)
	m["rql.peak_rss_mb"] = peakRSSMB()
	report("layers      %6.2fs  (%d ops replayed at every entry point, scratch probes)", res.phases.layers, len(rs.lv))

	// Oracle over everything that ran.
	t0 = time.Now()
	// In the order the ops ran: commit_refresh's final check matches
	// writes to snapshots by position.
	all := append(append(append([]loopResult{}, counted...), base...), traced...)
	all = append(all, rs.samples)
	allReads := loopResult{samples: append(append(countedReads.samples, baseReads.samples...), reads.samples...)}
	checked, err := verify(e, w, rng, all, allReads)
	if err != nil {
		return res, fmt.Errorf("oracle: %w", err)
	}
	res.phases.oracle = time.Since(t0).Seconds()
	res.tally(append(all, allReads)...)
	res.samples = ops
	report("oracle      %6.2fs  (%d ops re-derived, %d failed of %d attempted)", res.phases.oracle, checked, res.failed, res.attempted)

	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(cfg.tmp, "trace-"+w.name()+".json")
	}
	if err := tr.write(out); err != nil {
		return res, err
	}
	printBudget(w.name(), rs.lv, out)
	return res, nil
}

// printBudget prints the per-layer budget table of the replayed ops.
func printBudget(name string, lv []levels, traceFile string) {
	cws, sc, ret, bt := shares(lv)
	client, rql, sql, retro, btree := medianLevels(lv)
	fmt.Printf("per-layer budget, %s, %d ops replayed (median ms at each entry point):\n", name, len(lv))
	fmt.Printf("  L0 client.Conn over TCP        %10.4f\n", client)
	fmt.Printf("  L1 rql.Conn in process         %10.4f\n", rql)
	fmt.Printf("  L2 sql.Conn.ExecAsOf[Set]      %10.4f\n", sql)
	fmt.Printf("  L3 retro Open[Set]+Get         %10.4f\n", retro)
	fmt.Printf("  storage+btree (scratch)        %10.4f\n", btree)
	fmt.Printf("self-time shares: client+wire+server %.3f  sql+core %.3f  retro %.3f  storage+btree %.3f\n", cws, sc, ret, bt)
	fmt.Printf("spans written to %s\n", traceFile)
}

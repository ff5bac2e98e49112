package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rql"
	"rql/client"
	"rql/internal/obs"
)

// resetObs restores the process-global recorder state after a test.
func resetObs(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		obs.SetTracing(false)
		obs.SetSlowThreshold(0)
		obs.ResetSpans()
		obs.ResetSlowLog()
	})
	obs.SetTracing(false)
	obs.SetSlowThreshold(0)
	obs.ResetSpans()
	obs.ResetSlowLog()
}

// TestTraceEndToEnd is the tracing acceptance path: a traced rqld
// request produces one span tree reaching from the server request
// through the SQL layer, the mechanism iterations, and the snapshot
// fetch down to the device read — and
// the tree is fetchable over the wire by the trace ID echoed on
// RespDone.
func TestTraceEndToEnd(t *testing.T) {
	resetObs(t)
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)

	mustExec := func(sqlText string) {
		t.Helper()
		if err := c.Exec(sqlText, nil); err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
	}
	mustExec(`CREATE TABLE logged_in (user TEXT, country TEXT)`)
	mustExec(`INSERT INTO logged_in VALUES ('ann', 'USA'), ('bob', 'GER')`)
	if _, err := c.DeclareSnapshot("day-1"); err != nil {
		t.Fatal(err)
	}
	mustExec(`DELETE FROM logged_in WHERE user = 'ann'`)
	if _, err := c.DeclareSnapshot("day-2"); err != nil {
		t.Fatal(err)
	}

	if err := c.SetTracing(true); err != nil {
		t.Fatal(err)
	}
	// Cold cache so the mechanism's snapshot reads reach the Pagelog
	// and the device instead of stopping at cache hits.
	srv.DB().ResetSnapshotCache()

	mustExec(`SELECT CollateData(snap_id,
		'SELECT DISTINCT user, current_snapshot() AS sid FROM logged_in',
		'Result') FROM SnapIds`)

	trace := c.LastTrace()
	if trace == 0 {
		t.Fatal("traced statement should echo a non-zero trace ID on RespDone")
	}
	spans, err := c.TraceSpans(trace)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.Span{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("TraceSpans(%d) returned a span of trace %d", trace, s.Trace)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	// The SQL-UDF form drives iterations straight from the outer SELECT
	// (no run-level wrapper span — that one belongs to the Go mechanism
	// API), so the tree here is request → statement → iteration → fetch
	// → device read.
	for _, want := range []string{
		"server.exec", "sql.exec", "sql.select",
		"rql.iteration", "pagelog.fetch", "device.read",
	} {
		if len(byName[want]) == 0 {
			names := make([]string, 0, len(byName))
			for n := range byName {
				names = append(names, n)
			}
			t.Fatalf("trace misses %q spans; have %v", want, names)
		}
	}
	if n := len(byName["rql.iteration"]); n != 2 {
		t.Fatalf("%d rql.iteration spans, want 2 (one per snapshot)", n)
	}

	// The span tree must be connected: every parent the spans name is
	// in the same trace, up to the single root (the server request).
	ids := map[uint64]obs.Span{}
	for _, s := range spans {
		ids[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		if _, ok := ids[s.Parent]; !ok {
			t.Fatalf("span %q names parent %d which is not in the trace", s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1 (the server request)", roots)
	}

	// Tracing off: subsequent statements are untraced and say so.
	if err := c.SetTracing(false); err != nil {
		t.Fatal(err)
	}
	mustExec(`SELECT COUNT(*) FROM Result`)
	if got := c.LastTrace(); got != 0 {
		t.Fatalf("untraced statement echoed trace ID %d, want 0", got)
	}

	// Tracing must not change what a run bills: the same cold mechanism
	// request over the wire, untraced and then traced, reads the same
	// pages from the same places.
	type billed struct{ pagelogReads, cacheHits, dbReads, mapScanned int }
	coldRun := func(traced bool, table string) billed {
		t.Helper()
		if err := c.SetTracing(traced); err != nil {
			t.Fatal(err)
		}
		srv.DB().ResetSnapshotCache()
		run, err := c.CollateData(`SELECT snap_id FROM SnapIds`,
			`SELECT user, current_snapshot() AS sid FROM logged_in`, table)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(obs.TraceSpans(c.LastTrace())); traced != (n > 0) {
			t.Fatalf("traced=%v run left %d server spans under its client trace", traced, n)
		}
		tot := run.Total()
		return billed{tot.PagelogReads, tot.CacheHits, tot.DBReads, tot.MapScanned}
	}
	off := coldRun(false, "BilledOff")
	on := coldRun(true, "BilledOn")
	if off != on {
		t.Fatalf("tracing changed the billed counters: untraced %+v, traced %+v", off, on)
	}
	if off.pagelogReads == 0 || off.mapScanned == 0 {
		t.Fatalf("cold run billed no Pagelog reads or Maplog scans (%+v): the comparison checks nothing", off)
	}
}

// TestDebugEndpoint drives the HTTP debug handler: /metrics text,
// /traces as valid Chrome trace-event JSON, and /slow.
func TestDebugEndpoint(t *testing.T) {
	resetObs(t)
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)

	obs.SetTracing(true)
	obs.SetSlowThreshold(time.Nanosecond) // everything is slow

	if err := c.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`INSERT INTO t VALUES (1), (2)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`SELECT a FROM t ORDER BY a`, nil); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		srv.DebugHandler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics returned %d", code)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE rql_queries_served counter",
		"# TYPE rql_conns_active gauge",
		"rql_storage_commits", "rql_retro_pagelog_writes",
		"rql_tracing_enabled 1",
		`rql_request_latency_seconds_bucket{le="+Inf"}`,
		"rql_request_latency_seconds_sum", "rql_request_latency_seconds_count",
		`rql_commit_group_size_bucket{le="+Inf"}`,
		`rql_repl_role{role="primary"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics misses %q:\n%s", want, body)
		}
	}

	// The plain dump lives on /vars: the same list as `key value` lines,
	// labelled series under their dotted key.
	code, body = get("/vars")
	if code != 200 {
		t.Fatalf("/vars returned %d", code)
	}
	for _, want := range []string{
		"queries_served", "storage_commits", "retro_pagelog_writes",
		"tracing_enabled 1", "request_latency_seconds_le.inf", "repl_role.primary 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/vars misses %q:\n%s", want, body)
		}
	}

	code, body = get("/timeline")
	if code != 200 {
		t.Fatalf("/timeline returned %d", code)
	}
	var tl struct {
		PeriodNS int64       `json:"period_ns"`
		Points   []obs.Point `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("/timeline is not valid JSON: %v\n%s", err, body)
	}

	code, body = get("/traces")
	if code != 200 {
		t.Fatalf("/traces returned %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/traces is not valid trace-event JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/traces has no events")
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want complete events (X)", ev.Ph)
		}
		seen[ev.Name] = true
	}
	if !seen["server.exec"] || !seen["sql.exec"] {
		t.Fatalf("/traces misses the request spans; saw %v", seen)
	}

	code, body = get("/slow")
	if code != 200 {
		t.Fatalf("/slow returned %d", code)
	}
	if !strings.Contains(body, "SELECT a FROM t ORDER BY a") {
		t.Fatalf("/slow misses the traced statement:\n%s", body)
	}

	// The wire SLOW request reports the same log with the threshold.
	th, entries, err := c.SlowQueries()
	if err != nil {
		t.Fatal(err)
	}
	if th != time.Nanosecond {
		t.Fatalf("slow threshold over the wire = %v, want 1ns", th)
	}
	var found bool
	for _, e := range entries {
		if strings.Contains(e.SQL, "SELECT a FROM t ORDER BY a") {
			found = true
			if e.Rows != 2 {
				t.Fatalf("slow entry rows = %d, want 2", e.Rows)
			}
		}
	}
	if !found {
		t.Fatalf("slow log over the wire misses the statement: %+v", entries)
	}
}

// TestSlowLogMechanismRequest pins that a mechanism reaches the slow log
// as a mechanism however it was invoked: the request form (ReqMech, what
// client.CollateData sends) has no enclosing statement to bill, so the
// run logs itself — once, with the run's name and summed cost — and the
// SQL-form UDF statement still logs exactly one mechanism entry (the
// run's cost billed to the statement, not also logged beside it). The
// threshold is armed over the wire, the way the shell's .slow does it.
func TestSlowLogMechanismRequest(t *testing.T) {
	resetObs(t)
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)
	for _, q := range []string{
		`CREATE TABLE logged_in (user TEXT, country TEXT)`,
		`INSERT INTO logged_in VALUES ('ann', 'USA'), ('bob', 'GER')`,
	} {
		if err := c.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := c.DeclareSnapshot("day-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`DELETE FROM logged_in WHERE user = 'ann'`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareSnapshot("day-2"); err != nil {
		t.Fatal(err)
	}

	if th, _, err := c.SlowQueries(time.Nanosecond); err != nil || th != time.Nanosecond {
		t.Fatalf("arming the slow log over the wire: threshold %v, err %v", th, err)
	}
	mechEntries := func() []client.SlowEntry {
		t.Helper()
		_, entries, err := c.SlowQueries()
		if err != nil {
			t.Fatal(err)
		}
		var out []client.SlowEntry
		for _, e := range entries {
			if e.Mechanism != "" {
				out = append(out, e)
			}
		}
		return out
	}

	// Cold cache, so the run bills Pagelog reads.
	srv.db.ResetSnapshotCache()
	run, err := c.CollateData(`SELECT snap_id FROM SnapIds`, `SELECT user FROM logged_in`, "R1")
	if err != nil {
		t.Fatal(err)
	}
	got := mechEntries()
	if len(got) != 1 {
		t.Fatalf("request-form run left %d mechanism entries, want 1: %+v", len(got), got)
	}
	total := run.Total()
	if e := got[0]; e.Mechanism != "CollateData" || total.PagelogReads == 0 ||
		e.PagelogReads != int64(total.PagelogReads) || e.PrunedIters != int64(run.PrunedIterations) ||
		e.Rows != int64(run.ResultRows) || !strings.Contains(e.SQL, "CollateData(") || e.Duration <= 0 {
		t.Fatalf("request-form entry %+v does not carry the run %+v (total %+v)", e, run, total)
	}

	obs.ResetSlowLog()
	if err := c.Exec(`SELECT CollateData(snap_id, 'SELECT user FROM logged_in', 'R2') FROM SnapIds`, nil); err != nil {
		t.Fatal(err)
	}
	got = mechEntries()
	if len(got) != 1 || got[0].Mechanism != "CollateData" || !strings.HasPrefix(got[0].SQL, "SELECT CollateData(") {
		t.Fatalf("SQL-form statement left mechanism entries %+v, want its own one", got)
	}

	if th, _, err := c.SlowQueries(0); err != nil || th != 0 || obs.SlowThreshold() != 0 {
		t.Fatalf("disarming over the wire: threshold %v (server %v), err %v", th, obs.SlowThreshold(), err)
	}
}

// TestResetStats zeroes the counters over the wire and checks both the
// server's own counters and the piped-through database counters restart.
func TestResetStats(t *testing.T) {
	resetObs(t)
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	if err := c.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Value("queries_served") == 0 || ss.Value("storage_commits") == 0 || ss.Value("retro_snapshots") == 0 {
		t.Fatalf("counters should be non-zero before reset: %+v", ss)
	}
	bounds := ss.LatencyBounds

	if err := c.ResetStats(); err != nil {
		t.Fatal(err)
	}
	ss, err = c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"queries_served", "storage_commits", "retro_snapshots", "rows_streamed", "storage_pages_written"} {
		if v := ss.Value(name); v != 0 {
			t.Fatalf("%s = %d after reset, want 0", name, v)
		}
	}
	// The gauge survives: this session is still connected.
	if ss.Value("conns_active") == 0 {
		t.Fatal("conns_active is a gauge and must survive the reset")
	}
	// Bucket bounds still round-trip after reset.
	if len(bounds) == 0 || !reflect.DeepEqual(ss.LatencyBounds, bounds) {
		t.Fatalf("LatencyBounds = %v, want %v", ss.LatencyBounds, bounds)
	}

	// Counters keep counting after the reset.
	if err := c.Exec(`INSERT INTO t VALUES (2)`, nil); err != nil {
		t.Fatal(err)
	}
	ss, err = c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ss.Value("queries_served") == 0 || ss.Value("storage_commits") == 0 {
		t.Fatalf("counters should resume after reset: %+v", ss)
	}
}

// TestConcurrentScrapes hammers every debug endpoint from several
// goroutines while sessions execute statements, the timeline sampler
// ticks, and the recorder and slow log fill — the shape a production
// Prometheus scraper plus a dashboard poll produces. Run under -race
// this pins the lock discipline of the whole observability surface.
func TestConcurrentScrapes(t *testing.T) {
	resetObs(t)
	srv, addr := startServer(t, Config{TimelinePeriod: 2 * time.Millisecond})

	obs.SetTracing(true)
	obs.SetSlowThreshold(time.Nanosecond) // everything is slow

	seed := dial(t, addr)
	if err := seed.Exec(`CREATE TABLE cs (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.DeclareSnapshot("cs-seed"); err != nil {
		t.Fatal(err)
	}

	const (
		scrapers   = 4
		writers    = 2
		iterations = 50
	)
	paths := []string{"/metrics", "/timeline", "/vars", "/traces", "/slow"}
	errs := make(chan error, scrapers+writers)
	var wg sync.WaitGroup

	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				path := paths[(g+i)%len(paths)]
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				srv.DebugHandler().ServeHTTP(rec, req)
				if rec.Code != 200 {
					errs <- fmt.Errorf("%s returned %d", path, rec.Code)
					return
				}
				if path == "/metrics" {
					if err := obs.ValidateExposition(rec.Body.String()); err != nil {
						errs <- fmt.Errorf("concurrent /metrics invalid: %w", err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < iterations; i++ {
				if err := c.Exec(`INSERT INTO cs VALUES (?)`, nil, rql.Int(int64(g*iterations+i))); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
				if err := c.Exec(`SELECT COUNT(*) FROM cs`, nil); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The timeline accumulated samples while all that ran.
	period, points, err := seed.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if period <= 0 || len(points) == 0 {
		t.Fatalf("timeline should have sampled: period=%v points=%d", period, len(points))
	}
}

package server

import (
	"net"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/repl"
)

// TestMetricSurfaces checks, without naming any metric but its own,
// that everything a live server reports — a primary with an attached
// replica and a retro view, so the per-replica and per-view series
// exist — reaches all four surfaces from its one declaration: the STATS
// reply, /metrics (valid name, HELP, right TYPE), /vars, and rqlshell's
// .stats rendering. It also declares a metric of its own, in one line,
// and expects it on the same four surfaces with no other edit.
func TestMetricSurfaces(t *testing.T) {
	resetObs(t)
	pdb, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	primary := repl.NewPrimary(pdb, repl.PrimaryConfig{})
	defer primary.Close()
	srv := New(pdb, Config{})
	srv.SetPrimary(primary)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		srv.Shutdown()
		<-done
	}()
	node, err := startReplNode(lis.Addr().String(), "r1", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		node.stop()
		node.db.Close()
	}()

	// The one-line diff: a declaration, registered the way a layer
	// registers its own struct, and an increment.
	var extra struct {
		Probes obs.Counter `metric:"test_probes" help:"Declared by TestMetricSurfaces and nowhere else."`
	}
	srv.metrics.Register(&extra)
	extra.Probes.Add(41)

	c := dial(t, lis.Addr().String())
	for _, stmt := range []string{
		`CREATE TABLE t (a INTEGER)`,
		`CREATE RETRO VIEW live AS CollateData('SELECT a, current_snapshot() AS sid FROM t')`,
		`INSERT INTO t VALUES (1), (2)`,
	} {
		if err := c.Exec(stmt, nil); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if _, err := c.DeclareSnapshot("s1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := metricValues(srv.Metrics())
		if st["repl_replica_connected.r1"] == 1 && st["view_refreshes_total.live"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica or view never showed up in the metric list: %v", st)
		}
		time.Sleep(time.Millisecond)
	}

	want := srv.Metrics()
	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		rec := httptest.NewRecorder()
		srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s returned %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	prom, vars := get("/metrics"), get("/vars")
	if err := obs.ValidateExposition(prom); err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, prom)
	}
	var shell strings.Builder
	obs.WriteVars(&shell, ss.Metrics) // what rqlshell's .stats prints

	kinds := map[obs.Kind]int{}
	labelled := 0
	for _, m := range want {
		kinds[m.Kind]++
		got, ok := obs.Find(ss.Metrics, m.Key())
		if !ok || got.Kind != m.Kind {
			t.Errorf("%s: STATS reply has %+v (found %v), want kind %v", m.Key(), got, ok, m.Kind)
			continue
		}
		help := regexp.MustCompile(`(?m)^# HELP rql_` + m.Name + ` \S`)
		if !help.MatchString(prom) || !strings.Contains(prom, "# TYPE rql_"+m.Name+" "+m.Kind.String()+"\n") {
			t.Errorf("%s: /metrics lacks its HELP or its TYPE %v line", m.Name, m.Kind)
		}
		sample, line := "\nrql_"+m.Name+" ", "\n"+m.Key()+" "
		if m.Label != "" {
			labelled++
			sample = "\nrql_" + m.Name + "{" + m.Label + `="` + m.LabelValue + `"} `
		}
		if m.Kind == obs.KindHistogram {
			sample, line = "\nrql_"+m.Name+`_bucket{le="+Inf"} `, "\n"+m.Key()+"_le.inf "
			if !reflect.DeepEqual(got.Bounds, m.Bounds) || len(got.Counts) != len(m.Bounds)+1 {
				t.Errorf("%s: STATS histogram %+v, want bounds %v", m.Name, got, m.Bounds)
			}
		}
		if !strings.Contains("\n"+prom, sample) {
			t.Errorf("%s: /metrics has no sample %q", m.Key(), sample)
		}
		if !strings.Contains("\n"+vars, line) {
			t.Errorf("%s: /vars has no line %q", m.Key(), line)
		}
		if !strings.Contains("\n"+shell.String(), line) {
			t.Errorf("%s: .stats has no line %q", m.Key(), line)
		}
	}
	if kinds[obs.KindCounter] == 0 || kinds[obs.KindGauge] == 0 || kinds[obs.KindHistogram] < 2 || labelled < 8 {
		t.Fatalf("the walk should cover every kind and the per-replica and per-view series: kinds %v, %d labelled", kinds, labelled)
	}

	// No main-store commit ran since the snapshot, so the group-size
	// histogram is quiescent and crosses the wire exactly.
	sizes, _ := obs.Find(want, "commit_group_size")
	if got, _ := obs.Find(ss.Metrics, "commit_group_size"); !reflect.DeepEqual(got.Counts, sizes.Counts) || got.Sum != sizes.Sum || sizes.Sum == 0 {
		t.Errorf("commit_group_size over STATS = %+v, want %+v", got, sizes)
	}

	// The test's own metric, value and all.
	if got := ss.Value("test_probes"); got != 41 {
		t.Errorf("STATS test_probes = %d, want 41", got)
	}
	for surface, body := range map[string]string{"/metrics": prom, "/vars": vars, ".stats": shell.String()} {
		want := "test_probes 41\n"
		if surface == "/metrics" {
			want = "# TYPE rql_test_probes counter\nrql_test_probes 41\n"
		}
		if !strings.Contains(body, want) {
			t.Errorf("%s misses %q", surface, want)
		}
	}
	if v := ss.Value("invariant_violations"); v != 0 {
		t.Errorf("invariant_violations = %d, want 0", v)
	}
}

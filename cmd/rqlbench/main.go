// Command rqlbench regenerates the paper's evaluation (§5): every
// figure and table, printed as aligned text tables in the paper's own
// terms (ratio C, per-iteration cost breakdowns, result footprints).
// It runs the paper's sweeps and nothing else; client-visible
// performance (throughput, latency, per-layer cost) is measured by the
// benchmark/ harness.
//
// Usage:
//
//	rqlbench -list                 # show available experiments
//	rqlbench -exp fig6             # run one experiment
//	rqlbench -all                  # run everything (paper order)
//	rqlbench -all -sf 0.02         # larger scale factor
//	rqlbench -all -quick           # fast, shrunken sweeps
//	rqlbench -exp fig6 -trace-out=run.json   # record spans for Perfetto
//
//	# capture one stitched cross-node trace from a live cluster
//	rqlbench -cluster "primary:4048,replica:4049" -trace-out=cluster.json
//
// Absolute numbers are not comparable to the paper's testbed (see
// EXPERIMENTS.md); the shapes are.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rql/client"
	"rql/internal/bench"
	"rql/internal/obs"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		exp        = flag.String("exp", "", "run a single experiment by name (e.g. fig6)")
		all        = flag.Bool("all", false, "run every experiment")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor (1.0 = 1.5M orders)")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		latency    = flag.Duration("latency", 0, "modeled per-Pagelog-read latency (default 100µs)")
		seed       = flag.Int64("seed", 0, "data generation seed")
		traceOut   = flag.String("trace-out", "", "record spans during the run and write them as Chrome trace-event JSON to this file")
		clusterStr = flag.String("cluster", "", "comma-separated rqld addresses (primary,replica,...): run a small retrospective workload against the cluster and write the stitched cross-node trace to -trace-out")
	)
	flag.Parse()

	if *clusterStr != "" {
		if *traceOut == "" {
			fmt.Fprintln(os.Stderr, "rqlbench: -cluster needs -trace-out for the stitched trace file")
			os.Exit(2)
		}
		if err := clusterTrace(*clusterStr, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "rqlbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments {
			fmt.Printf("  %-8s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg := bench.Config{SF: *sf, Quick: *quick, ReadLatency: *latency, Seed: *seed}
	r := bench.NewRunner(cfg, os.Stdout)
	defer r.Close()

	if *traceOut != "" {
		obs.SetTracing(true)
		defer writeTrace(*traceOut)
	}

	start := time.Now()
	switch {
	case *all:
		if err := r.RunAll(); err != nil {
			fmt.Fprintln(os.Stderr, "rqlbench:", err)
			os.Exit(1)
		}
	case *exp != "":
		e := bench.FindExperiment(*exp)
		if e == nil {
			fmt.Fprintf(os.Stderr, "rqlbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		if err := e.Run(r); err != nil {
			fmt.Fprintln(os.Stderr, "rqlbench:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\n[%s total]\n", time.Since(start).Round(time.Millisecond))
}

// clusterTrace runs one small retrospective workload against a live
// cluster with tracing on — writes on the primary, a mechanism routed
// through the cluster so every leg shares one logical trace — then
// fetches that trace's spans from every member and writes them as one
// stitched Perfetto file with a process lane per node.
func clusterTrace(spec, path string) error {
	addrs := strings.Split(spec, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	cl, err := client.OpenCluster(client.ClusterConfig{
		Primary:  addrs[0],
		Replicas: addrs[1:],
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if err := cl.SetTracing(true); err != nil {
		return err
	}
	defer cl.SetTracing(false)

	exec := func(sqlText string) error { return cl.Exec(sqlText, nil) }
	if err := cl.EnsureSnapIds(); err != nil {
		return err
	}
	for _, q := range []string{
		`DROP TABLE IF EXISTS rqlbench_trace`,
		`CREATE TABLE rqlbench_trace (k INTEGER, v INTEGER)`,
		`INSERT INTO rqlbench_trace VALUES (1, 10), (2, 20), (3, 30), (4, 40)`,
	} {
		if err := exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	s1, err := cl.DeclareSnapshot("rqlbench-trace-1")
	if err != nil {
		return err
	}
	if err := exec(`UPDATE rqlbench_trace SET v = v + 1 WHERE k < 3`); err != nil {
		return err
	}
	s2, err := cl.DeclareSnapshot("rqlbench-trace-2")
	if err != nil {
		return err
	}

	// The mechanism leg routes to a replica when one covers the
	// horizon; the cluster pins the same trace id on every member it
	// touches, so the spans below stitch into one tree. The result
	// table lives in the serving node's side store, which a primary-
	// routed DROP can't reach — a unique name keeps reruns against a
	// long-lived cluster from colliding with an earlier run's table.
	qs := fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d`, s1, s2)
	run, err := cl.CollateData(qs,
		`SELECT k, current_snapshot() AS sid FROM rqlbench_trace`,
		fmt.Sprintf("rqlbench_trace_result_%d", time.Now().UnixNano()))
	if err != nil {
		return err
	}

	id := cl.LastTrace()
	nodes, err := cl.TraceSpans(id)
	if err != nil {
		return err
	}
	stitched := make([]obs.NodeSpans, 0, len(nodes))
	total := 0
	for _, n := range nodes {
		if len(n.Spans) == 0 {
			continue
		}
		stitched = append(stitched, n)
		total += len(n.Spans)
	}
	if total == 0 {
		return fmt.Errorf("trace %#x left no spans on any member (is tracing enabled server-side?)", id)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteStitchedTraceEvents(f, stitched); err != nil {
		return err
	}

	fmt.Printf("mechanism %s over %d snapshots, trace %#x:\n", run.Mechanism, len(run.Iterations), id)
	for _, n := range stitched {
		fmt.Printf("  %-24s %d spans\n", n.Node, len(n.Spans))
	}
	fmt.Printf("wrote stitched trace to %s\n", path)
	return nil
}

// writeTrace dumps the recorder ring as Chrome trace-event JSON
// (chrome://tracing, https://ui.perfetto.dev).
func writeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rqlbench: trace-out:", err)
		return
	}
	defer f.Close()
	if err := obs.WriteTraceEvents(f, obs.Spans()); err != nil {
		fmt.Fprintln(os.Stderr, "rqlbench: trace-out:", err)
		return
	}
	fmt.Printf("wrote trace to %s\n", path)
}

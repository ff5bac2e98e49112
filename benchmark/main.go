// Command benchmark is the repository's performance gate: a closed-loop
// load generator that drives an in-process rqld over loopback TCP and
// reports the end-to-end metrics and per-layer budget that
// BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric; BENCHMARK.json lists the same names.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"pages_per_op", "pages"},
	{"alloc_kb_per_op", "KiB"},
	{"space_amp", "ratio"},
}

var perLayerMetrics = []metricDef{
	{"client.lat_p99_ms", "ms"},
	{"client.reader_lat_p50_ms", "ms"},
	{"client.reader_ops_per_s", "1/s"},
	{"server.overhead_ms_p50", "ms"},
	{"server.hist_p50_ms", "ms"},
	{"wire.frame_ns", "ns"},
	{"wire.bytes_per_row", "B"},
	{"wire.allocs_per_row", "count"},
	{"record.encode_row_ns", "ns"},
	{"record.decode_row_ns", "ns"},
	{"record.allocs_per_decode", "count"},
	{"sql.parse_us_p50", "us"},
	{"sql.exec_asof_ms_p50", "ms"},
	{"sql.eval_ms_per_op", "ms"},
	{"sql.index_ms_per_op", "ms"},
	{"core.udf_ms_per_op", "ms"},
	{"core.result_rows_per_op", "rows"},
	{"core.mech_ms_p50.collate", "ms"},
	{"core.mech_ms_p50.aggvar", "ms"},
	{"core.mech_ms_p50.aggtable", "ms"},
	{"core.mech_ms_p50.intervals", "ms"},
	{"core.pruned_share", "ratio"},
	{"core.rows_replayed_per_op", "rows"},
	{"core.prefetch_hit_ratio", "ratio"},
	{"core.prefetch_wasted_ratio", "ratio"},
	{"core.view_refresh_per_commit", "ratio"},
	{"core.view_lag_snapshots_max", "count"},
	{"retro.open_snapshot_us_p50", "us"},
	{"retro.open_set_ms_p50", "ms"},
	{"retro.map_scanned_per_op", "count"},
	{"retro.cache_hit_ratio", "ratio"},
	{"retro.pagelog_reads_per_op", "pages"},
	{"retro.get_hit_ns_p50", "ns"},
	{"retro.get_miss_us_p50", "us"},
	{"retro.device_busy_ms_per_op", "ms"},
	{"retro.device_bytes_per_op", "B"},
	{"retro.seg_block_hit_ratio", "ratio"},
	{"retro.pagelog_writes_per_commit", "pages"},
	{"retro.write_amp", "ratio"},
	{"retro.flush_decisions_per_group", "ratio"},
	{"retro.seals", "count"},
	{"retro.disk_per_logical_byte", "ratio"},
	{"storage.commit_us_p50", "us"},
	{"storage.queue_wait_us_per_commit", "us"},
	{"storage.pages_written_per_commit", "pages"},
	{"storage.conflict_ratio", "ratio"},
	{"storage.db_reads_per_op", "pages"},
	{"btree.get_ns_p50", "ns"},
	{"btree.insert_ns_p50", "ns"},
	{"btree.scan_ns_per_entry", "ns"},
	{"tpch.load_s", "s"},
	{"tpch.history_s", "s"},
	{"obs.bench_trace_overhead_pct", "%"},
	{"rql.peak_rss_mb", "MiB"},
	{"rql.gc_pause_ms_total", "ms"},
	{"share.client_wire_server", "ratio"},
	{"share.sql_core", "ratio"},
	{"share.retro", "ratio"},
	{"share.storage_btree", "ratio"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line assembles the result line: every metric of the run's kind, by
// name, with its unit. A metric the run did not produce, or produced as
// NaN or ±Inf, makes the run incorrect rather than silently absent.
func line(res runResult, defs []metricDef) resultLine {
	out := resultLine{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s missing or not finite (%v)\n", d.name, v)
			out.Correct = false
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func printTable(res runResult, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
}

func main() {
	var cfg config
	var trace int
	var selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload: mech_scan, mech_sparse, asof_point or commit_refresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "seeds the TPC-H generator and every op and snapshot choice")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where the traced run writes its Chrome trace-event JSON (default $TMPDIR/trace-<workload>.json)")
	flag.IntVar(&selfcheck, "selfcheck", 0, "noise mode: run every workload N times on -seed and once on -seed+1, report spreads against BENCHMARK.json's bounds")
	flag.Parse()
	cfg.trace = trace != 0
	// Pagelog files and traces go under $TMPDIR, which run.sh points
	// inside the checkout.
	cfg.tmp = os.TempDir()

	if selfcheck > 0 {
		if err := runSelfcheck(cfg.seed, selfcheck); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	fmt.Printf("workload %s  seed %d  window %gs  trace %d  latency samples %d\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, res.samples)
	printTable(res, defs)
	out := line(res, defs)
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !out.Correct {
		os.Exit(1)
	}
}

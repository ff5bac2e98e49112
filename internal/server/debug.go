package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"rql/internal/obs"
	"rql/internal/wire"
)

// DebugHandler returns the rqld debug endpoint: Prometheus-format
// metrics, a plain-text counter dump, the telemetry timeline, the span
// ring as Chrome trace-event JSON (load the file in Perfetto /
// chrome://tracing), the slow-query log, tracing toggles, and the
// stdlib pprof profiles. It is served on its own mux — nothing is
// registered on http.DefaultServeMux — and is meant for a loopback or
// otherwise trusted listener (rqld's -debug-addr): the endpoint
// exposes query text and can toggle process-wide tracing.
//
//	GET /metrics           Prometheus text format (HELP/TYPE, histograms)
//	GET /vars              all counters as plain `name value` lines
//	GET /timeline          telemetry timeline ring, JSON
//	GET /traces            span ring, Chrome trace-event JSON
//	GET /traces?trace=ID   one trace only
//	GET /slow              slow-query log, text/plain
//	GET /trace/on|off      toggle the span recorder
//	/debug/pprof/...       stdlib profiles
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/vars", s.serveVars)
	mux.HandleFunc("/timeline", s.serveTimeline)
	mux.HandleFunc("/traces", serveTraces)
	mux.HandleFunc("/slow", serveSlow)
	mux.HandleFunc("/trace/on", func(w http.ResponseWriter, r *http.Request) {
		obs.SetTracing(true)
		fmt.Fprintln(w, "tracing on")
	})
	mux.HandleFunc("/trace/off", func(w http.ResponseWriter, r *http.Request) {
		obs.SetTracing(false)
		fmt.Fprintln(w, "tracing off")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug serves DebugHandler on addr until the listener fails
// (typically at process exit). It is a convenience for rqld's
// -debug-addr flag; errors are returned, not fatal.
func (s *Server) ServeDebug(addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}

// counterRows flattens a stats snapshot into ordered (name, value)
// pairs — the shared source for both /vars (verbatim) and /metrics
// (prefixed, typed). Gauge-like names are split out by varGauges.
func (s *Server) counterRows(st wire.ServerStats) []struct {
	k string
	v uint64
} {
	type kv = struct {
		k string
		v uint64
	}
	return []kv{
		{"conns_accepted", st.ConnsAccepted},
		{"conns_active", st.ConnsActive},
		{"queries_served", st.QueriesServed},
		{"rows_streamed", st.RowsStreamed},
		{"errors", st.Errors},
		{"storage_commits", st.Commits},
		{"storage_pages_written", st.PagesWritten},
		{"storage_db_reads", st.DBReads},
		{"retro_snapshots", st.Snapshots},
		{"retro_pagelog_writes", st.PagelogWrites},
		{"retro_pagelog_reads", st.PagelogReads},
		{"retro_cache_hits", st.CacheHits},
		{"retro_spt_builds", st.SPTBuilds},
		{"retro_pagelog_pages", uint64(st.PagelogPages)},
		{"retro_cached_pages", st.CachedPages},
		{"retro_spt_batch_builds", st.SPTBatchBuilds},
		{"retro_batch_snapshots", st.BatchSnapshots},
		{"retro_batch_map_scanned", st.BatchMapScanned},
		{"retro_clustered_reads", st.ClusteredReads},
		{"retro_clustered_pages", st.ClusteredPages},
		{"retro_delta_builds", st.DeltaBuilds},
		{"retro_delta_pages", st.DeltaPages},
		{"device_reads", st.DeviceReads},
		{"device_overlapped_reads", st.OverlappedReads},
		{"device_busy_ns", st.DeviceBusyNS},
		{"device_queue_depth", st.DeviceQueueDepth},
		{"commit_groups", st.CommitGroups},
		{"commit_conflicts", st.CommitConflicts},
		{"commit_conflict_batches", s.db.StorageStats().ConflictBatches},
		{"commit_queue_wait_ns", st.CommitQueueWaitNS},
		{"device_flushes", st.DeviceFlushes},
		{"device_bytes_read", st.DeviceBytesRead},
		{"retro_segments", st.Segments},
		{"retro_segment_pages", st.SegmentPages},
		{"retro_tail_pages", st.TailPages},
		{"retro_pagelog_logical_bytes", st.PagelogLogicalBytes},
		{"retro_pagelog_disk_bytes", st.PagelogDiskBytes},
		{"retro_segment_seals", st.SegmentSeals},
		{"retro_sealed_pages", st.SealedPages},
		{"retro_retention_drops", st.RetentionDrops},
		{"retro_retention_dropped_pages", st.RetentionDroppedPages},
		{"retro_seg_block_hits", st.SegBlockHits},
		{"group_flushes_skipped", st.GroupFlushesSkipped},
		{"views", st.Views},
		{"view_refreshes", st.ViewRefreshes},
		{"view_pruned_refreshes", st.ViewPrunedRefreshes},
		{"view_rows_pushed", st.ViewRowsPushed},
		{"view_subscribers", st.ViewSubscribers},
		{"tracing_enabled", boolMetric(obs.Enabled())},
		{"slow_threshold_ns", uint64(obs.SlowThreshold())},
	}
}

// varGauges names the counterRows entries that are point-in-time
// gauges, not cumulative counters; /metrics types them accordingly.
var varGauges = map[string]bool{
	"conns_active":                true,
	"retro_pagelog_pages":         true,
	"retro_cached_pages":          true,
	"device_queue_depth":          true,
	"retro_segments":              true,
	"retro_segment_pages":         true,
	"retro_tail_pages":            true,
	"retro_pagelog_logical_bytes": true,
	"retro_pagelog_disk_bytes":    true,
	"views":                       true,
	"view_subscribers":            true,
	"tracing_enabled":             true,
	"slow_threshold_ns":           true,
}

// serveVars writes every counter the STATS request reports, one
// `name value` per line, easy to diff. This is the pre-v8 /metrics
// format, kept verbatim (minus the malformed pseudo-label lines, which
// now carry their values in plain dotted names).
func (s *Server) serveVars(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, row := range s.counterRows(st) {
		fmt.Fprintf(w, "%s %d\n", row.k, row.v)
	}
	for i, c := range st.LatencyBuckets {
		if i < len(st.LatencyBounds) {
			fmt.Fprintf(w, "request_latency_le.%v %d\n", st.LatencyBounds[i], c)
		} else {
			fmt.Fprintf(w, "request_latency_le.inf %d\n", c)
		}
	}
	for i, c := range st.GroupSizeBuckets {
		if i < len(wire.GroupSizeBounds) {
			fmt.Fprintf(w, "commit_group_size_le.%d %d\n", wire.GroupSizeBounds[i], c)
		} else {
			fmt.Fprintf(w, "commit_group_size_le.inf %d\n", c)
		}
	}

	// Replication state: role and applied horizon always; per-replica
	// lag and bytes shipped on a primary, stream counters on a replica.
	rs := s.ReplStats()
	fmt.Fprintf(w, "repl_role %s\n", roleName(rs.Role))
	fmt.Fprintf(w, "repl_horizon %d\n", rs.Horizon)
	fmt.Fprintf(w, "repl_lsn %d\n", rs.LSN)
	if rs.Role == wire.RoleReplica {
		fmt.Fprintf(w, "repl_bytes_received %d\n", rs.BytesReceived)
		fmt.Fprintf(w, "repl_deltas_applied %d\n", rs.DeltasApplied)
		fmt.Fprintf(w, "repl_snapshots_applied %d\n", rs.SnapshotsApplied)
		fmt.Fprintf(w, "repl_bootstraps %d\n", rs.Bootstraps)
		fmt.Fprintf(w, "repl_reconnects %d\n", rs.Reconnects)
	}
	for _, rep := range rs.Replicas {
		fmt.Fprintf(w, "repl_replica_connected.%s %d\n", rep.ID, boolMetric(rep.Connected))
		fmt.Fprintf(w, "repl_replica_acked_snapshot.%s %d\n", rep.ID, rep.AckedSnap)
		fmt.Fprintf(w, "repl_replica_lag_snapshots.%s %d\n", rep.ID, replicaLag(rs.Horizon, rep.AckedSnap))
		fmt.Fprintf(w, "repl_replica_sent_bytes.%s %d\n", rep.ID, rep.SentBytes)
	}

	// Per-view maintenance counters, one block per materialized view.
	for _, v := range s.db.Views() {
		fmt.Fprintf(w, "view_last_snapshot.%s %d\n", v.Name, v.LastSnap)
		fmt.Fprintf(w, "view_rows.%s %d\n", v.Name, uint64(v.Rows))
		fmt.Fprintf(w, "view_refreshes.%s %d\n", v.Name, v.Refreshes)
		fmt.Fprintf(w, "view_pruned_refreshes.%s %d\n", v.Name, v.PrunedRefreshes)
		fmt.Fprintf(w, "view_rows_pushed.%s %d\n", v.Name, v.RowsPushed)
		fmt.Fprintf(w, "view_subscribers.%s %d\n", v.Name, uint64(v.Subscribers))
	}
}

// serveMetrics writes the Prometheus text exposition: every counter
// from /vars as a typed rql_-prefixed family, cumulative histograms
// for request latency and commit group size, the replication role as
// a labeled gauge, and per-replica / per-view families with proper
// `name{label="value"}` syntax.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var fams []obs.MetricFamily
	for _, row := range s.counterRows(st) {
		typ := obs.Counter
		if varGauges[row.k] {
			typ = obs.Gauge
		}
		fams = append(fams, obs.MetricFamily{
			Name:    "rql_" + row.k,
			Help:    varHelp[row.k],
			Type:    typ,
			Samples: []obs.Sample{{Value: float64(row.v)}},
		})
	}

	// Request latency: bucket bounds in seconds, per Prometheus
	// convention. Counts arrive disjoint from the stats snapshot; the
	// encoder accumulates them into the cumulative `le` series.
	latBounds := make([]float64, len(st.LatencyBounds))
	for i, b := range st.LatencyBounds {
		latBounds[i] = b.Seconds()
	}
	latCounts := make([]uint64, len(st.LatencyBuckets))
	for i, c := range st.LatencyBuckets {
		latCounts[i] = c
	}
	fams = append(fams, obs.MetricFamily{
		Name: "rql_request_latency_seconds",
		Help: "Wall time per request, all opcodes.",
		Type: obs.HistogramType,
		Histograms: []obs.HistogramSample{{
			Bounds: latBounds,
			Counts: latCounts,
			Sum:    s.stats.latencySum().Seconds(),
		}},
	})

	// Commit group size: every commit goes through the queue (a legacy
	// commit is a group of one), so the total of all group sizes is the
	// commit counter.
	gsBounds := make([]float64, len(wire.GroupSizeBounds))
	for i, b := range wire.GroupSizeBounds {
		gsBounds[i] = float64(b)
	}
	gsCounts := make([]uint64, len(st.GroupSizeBuckets))
	for i, c := range st.GroupSizeBuckets {
		gsCounts[i] = c
	}
	fams = append(fams, obs.MetricFamily{
		Name: "rql_commit_group_size",
		Help: "Committed transactions per commit group.",
		Type: obs.HistogramType,
		Histograms: []obs.HistogramSample{{
			Bounds: gsBounds,
			Counts: gsCounts,
			Sum:    float64(st.Commits),
		}},
	})

	rs := s.ReplStats()
	fams = append(fams, obs.MetricFamily{
		Name:    "rql_repl_role",
		Help:    "Replication role of this server (the set label is 1).",
		Type:    obs.Gauge,
		Samples: []obs.Sample{{Labels: []obs.Label{{Name: "role", Value: roleName(rs.Role)}}, Value: 1}},
	})
	fams = append(fams,
		obs.MetricFamily{Name: "rql_repl_horizon", Help: "Applied snapshot horizon.", Type: obs.Gauge,
			Samples: []obs.Sample{{Value: float64(rs.Horizon)}}},
		obs.MetricFamily{Name: "rql_repl_lsn", Help: "Applied log sequence number.", Type: obs.Gauge,
			Samples: []obs.Sample{{Value: float64(rs.LSN)}}},
	)
	if rs.Role == wire.RoleReplica {
		for _, m := range []struct {
			name, help string
			v          uint64
		}{
			{"rql_repl_bytes_received", "Bytes received on the replication stream.", rs.BytesReceived},
			{"rql_repl_deltas_applied", "Replicated commit deltas applied.", rs.DeltasApplied},
			{"rql_repl_snapshots_applied", "Replicated snapshots applied.", rs.SnapshotsApplied},
			{"rql_repl_bootstraps", "Full bootstraps performed.", rs.Bootstraps},
			{"rql_repl_reconnects", "Stream reconnects.", rs.Reconnects},
		} {
			fams = append(fams, obs.MetricFamily{Name: m.name, Help: m.help, Type: obs.Counter,
				Samples: []obs.Sample{{Value: float64(m.v)}}})
		}
	}
	if len(rs.Replicas) > 0 {
		var connected, acked, lag, sent []obs.Sample
		for _, rep := range rs.Replicas {
			l := []obs.Label{{Name: "replica", Value: rep.ID}}
			connected = append(connected, obs.Sample{Labels: l, Value: float64(boolMetric(rep.Connected))})
			acked = append(acked, obs.Sample{Labels: l, Value: float64(rep.AckedSnap)})
			lag = append(lag, obs.Sample{Labels: l, Value: float64(replicaLag(rs.Horizon, rep.AckedSnap))})
			sent = append(sent, obs.Sample{Labels: l, Value: float64(rep.SentBytes)})
		}
		fams = append(fams,
			obs.MetricFamily{Name: "rql_repl_replica_connected", Help: "Replica stream liveness.", Type: obs.Gauge, Samples: connected},
			obs.MetricFamily{Name: "rql_repl_replica_acked_snapshot", Help: "Last snapshot acked by the replica.", Type: obs.Gauge, Samples: acked},
			obs.MetricFamily{Name: "rql_repl_replica_lag_snapshots", Help: "Snapshots the replica trails the horizon by.", Type: obs.Gauge, Samples: lag},
			obs.MetricFamily{Name: "rql_repl_replica_sent_bytes", Help: "Bytes shipped to the replica.", Type: obs.Counter, Samples: sent},
		)
	}
	if views := s.db.Views(); len(views) > 0 {
		var lastSnap, rows, refreshes, pruned, pushed, subs []obs.Sample
		for _, v := range views {
			l := []obs.Label{{Name: "view", Value: v.Name}}
			lastSnap = append(lastSnap, obs.Sample{Labels: l, Value: float64(v.LastSnap)})
			rows = append(rows, obs.Sample{Labels: l, Value: float64(v.Rows)})
			refreshes = append(refreshes, obs.Sample{Labels: l, Value: float64(v.Refreshes)})
			pruned = append(pruned, obs.Sample{Labels: l, Value: float64(v.PrunedRefreshes)})
			pushed = append(pushed, obs.Sample{Labels: l, Value: float64(v.RowsPushed)})
			subs = append(subs, obs.Sample{Labels: l, Value: float64(v.Subscribers)})
		}
		fams = append(fams,
			obs.MetricFamily{Name: "rql_view_last_snapshot", Help: "Newest snapshot materialized into the view.", Type: obs.Gauge, Samples: lastSnap},
			obs.MetricFamily{Name: "rql_view_rows", Help: "Materialized rows in the view.", Type: obs.Gauge, Samples: rows},
			obs.MetricFamily{Name: "rql_view_refreshes_total", Help: "Incremental refreshes of the view.", Type: obs.Counter, Samples: refreshes},
			obs.MetricFamily{Name: "rql_view_pruned_refreshes_total", Help: "Refreshes satisfied by delta pruning.", Type: obs.Counter, Samples: pruned},
			obs.MetricFamily{Name: "rql_view_rows_pushed_total", Help: "Rows pushed to view subscribers.", Type: obs.Counter, Samples: pushed},
			obs.MetricFamily{Name: "rql_view_subscribers", Help: "Active view subscriptions.", Type: obs.Gauge, Samples: subs},
		)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteMetrics(w, fams); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// varHelp documents the counter families on /metrics. Entries are
// optional; families without one emit TYPE but no HELP.
var varHelp = map[string]string{
	"conns_accepted":        "Connections accepted since start or reset.",
	"conns_active":          "Currently open client sessions.",
	"queries_served":        "Statements and mechanism runs served.",
	"rows_streamed":         "Result rows streamed to clients.",
	"errors":                "Requests answered with an error frame.",
	"storage_commits":       "Transactions committed on the main store.",
	"retro_snapshots":       "Snapshots declared.",
	"retro_pagelog_reads":   "Billed Pagelog page reads.",
	"retro_cache_hits":      "Snapshot pages served from the cache.",
	"retro_spt_builds":      "Snapshot page tables built.",
	"device_busy_ns":        "Nanoseconds the modeled device spent serving reads.",
	"commit_groups":         "Commit-queue group drains.",
	"commit_conflicts":      "First-committer-wins conflicts.",
	"device_flushes":        "Device flush round-trips.",
	"view_refreshes":        "Incremental view refreshes across all views.",
	"tracing_enabled":       "1 while the span recorder is on.",
	"slow_threshold_ns":     "Slow-query log threshold (0 = disabled).",
	"group_flushes_skipped": "Commit groups that skipped the hot-tail flush.",
}

// serveTimeline writes the telemetry ring as JSON: sampling period and
// points oldest-first, each with per-second rates and gauges.
func (s *Server) serveTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.timeline == nil {
		json.NewEncoder(w).Encode(map[string]any{"period_ns": 0, "points": []obs.Point{}})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"period_ns": s.timeline.Period().Nanoseconds(),
		"points":    s.timeline.Points(),
	})
}

func boolMetric(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func roleName(role byte) string {
	if role == wire.RoleReplica {
		return "replica"
	}
	return "primary"
}

func replicaLag(horizon, acked uint64) uint64 {
	if horizon > acked {
		return horizon - acked
	}
	return 0
}

// serveTraces streams the span ring (or one trace, ?trace=ID) as Chrome
// trace-event JSON.
func serveTraces(w http.ResponseWriter, r *http.Request) {
	spans := obs.Spans()
	if q := r.URL.Query().Get("trace"); q != "" {
		var id uint64
		if _, err := fmt.Sscanf(q, "%d", &id); err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		spans = obs.TraceSpans(id)
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteTraceEvents(w, spans)
}

// serveSlow writes the slow-query log, slowest first, with the
// retrospective cost columns when the statement ran a mechanism.
func serveSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	th := obs.SlowThreshold()
	if th == 0 {
		fmt.Fprintln(w, "slow-query log disabled (threshold 0)")
		return
	}
	entries := obs.SlowEntries()
	fmt.Fprintf(w, "threshold %v, %d entries\n", th, len(entries))
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Duration > entries[j].Duration
	})
	for _, e := range entries {
		fmt.Fprintf(w, "%s  %10v  rows=%-6d trace=%d", e.When.Format("15:04:05.000"), e.Duration, e.Rows, e.Trace)
		if e.Mechanism != "" {
			fmt.Fprintf(w, "  mech=%s", e.Mechanism)
		}
		if e.PagelogReads != 0 {
			fmt.Fprintf(w, "  pagelog_reads=%d", e.PagelogReads)
		}
		if e.PrunedIters != 0 {
			fmt.Fprintf(w, "  pruned=%d", e.PrunedIters)
		}
		fmt.Fprintf(w, "  %s\n", e.SQL)
	}
}

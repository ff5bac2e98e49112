package server

import (
	"rql/internal/obs"
	"rql/internal/wire"
)

// serverStats declares the server's own metrics (see obs.Set). Sessions
// update the fields concurrently; Metrics samples them without
// coordination.
type serverStats struct {
	ConnsAccepted   obs.Counter   `metric:"conns_accepted" help:"Connections accepted since start or reset."`
	ConnsActive     obs.Gauge     `metric:"conns_active" help:"Currently open client sessions."`
	QueriesServed   obs.Counter   `metric:"queries_served" help:"Statements and mechanism runs served."`
	RowsStreamed    obs.Counter   `metric:"rows_streamed" help:"Result rows streamed to clients."`
	Errors          obs.Counter   `metric:"errors" help:"Requests answered with an error frame."`
	Panics          obs.Counter   `metric:"panics_total" help:"Requests that panicked; each ended its own session only."`
	Latency         obs.Histogram `metric:"request_latency_seconds" help:"Wall time per request, all opcodes." buckets:"100us,1ms,10ms,100ms,1s,10s"`
	TracingEnabled  obs.Gauge     `metric:"tracing_enabled" help:"1 while the span recorder is on."`
	SlowThresholdNS obs.Gauge     `metric:"slow_threshold_ns" help:"Slow-query log threshold (0 = disabled)."`
}

// Metrics samples every metric this server reports, in one list: its
// own, the database layers' (storage, retro, views), the replication
// state and the per-replica and per-view series. The STATS reply ships
// this list, and /metrics, /vars, the timeline and rqlshell's .stats
// all render it.
func (s *Server) Metrics() []obs.Metric {
	s.stats.TracingEnabled.Store(int64(boolMetric(obs.Enabled())))
	s.stats.SlowThresholdNS.Store(int64(obs.SlowThreshold()))
	ms := append(s.metrics.Snapshot(), s.db.Metrics()...)

	rs := s.ReplStats()
	ms = append(ms,
		obs.Metric{Name: "repl_role", Help: "Replication role of this server (the set label is 1).", Kind: obs.KindGauge,
			Label: "role", LabelValue: roleName(rs.Role), Value: 1},
		obs.Metric{Name: "repl_horizon", Help: "Applied snapshot horizon.", Kind: obs.KindGauge, Value: rs.Horizon},
		obs.Metric{Name: "repl_lsn", Help: "Applied log sequence number.", Kind: obs.KindGauge, Value: rs.LSN},
	)
	if rs.Role == wire.RoleReplica {
		ms = append(ms,
			obs.Metric{Name: "repl_bytes_received", Help: "Bytes received on the replication stream.", Value: rs.BytesReceived},
			obs.Metric{Name: "repl_deltas_applied", Help: "Replicated commit deltas applied.", Value: rs.DeltasApplied},
			obs.Metric{Name: "repl_snapshots_applied", Help: "Replicated snapshots applied.", Value: rs.SnapshotsApplied},
			obs.Metric{Name: "repl_bootstraps", Help: "Full bootstraps performed.", Value: rs.Bootstraps},
			obs.Metric{Name: "repl_reconnects", Help: "Stream reconnects.", Value: rs.Reconnects},
		)
	}
	add := func(label, value, name, help string, kind obs.Kind, v uint64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Kind: kind, Label: label, LabelValue: value, Value: v})
	}
	for _, rep := range rs.Replicas {
		lag := uint64(0)
		if rs.Horizon > rep.AckedSnap {
			lag = rs.Horizon - rep.AckedSnap
		}
		add("replica", rep.ID, "repl_replica_connected", "Replica stream liveness.", obs.KindGauge, boolMetric(rep.Connected))
		add("replica", rep.ID, "repl_replica_acked_snapshot", "Last snapshot acked by the replica.", obs.KindGauge, rep.AckedSnap)
		add("replica", rep.ID, "repl_replica_lag_snapshots", "Snapshots the replica trails the horizon by.", obs.KindGauge, lag)
		add("replica", rep.ID, "repl_replica_sent_bytes", "Bytes shipped to the replica.", obs.KindCounter, rep.SentBytes)
	}
	for _, v := range s.db.Views() {
		add("view", v.Name, "view_last_snapshot", "Newest snapshot materialized into the view.", obs.KindGauge, v.LastSnap)
		add("view", v.Name, "view_rows", "Materialized rows in the view.", obs.KindGauge, uint64(v.Rows))
		add("view", v.Name, "view_refreshes_total", "Incremental refreshes of the view.", obs.KindCounter, v.Refreshes)
		add("view", v.Name, "view_pruned_refreshes_total", "Refreshes satisfied by delta pruning.", obs.KindCounter, v.PrunedRefreshes)
		add("view", v.Name, "view_rows_pushed_total", "Rows pushed to view subscribers.", obs.KindCounter, v.RowsPushed)
		add("view", v.Name, "view_subscribers", "Active view subscriptions.", obs.KindGauge, uint64(v.Subscribers))
	}
	return ms
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

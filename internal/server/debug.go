package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"rql/internal/obs"
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

// serveVars writes every metric the STATS request reports as plain
// `key value` lines, easy to diff.
func (s *Server) serveVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	obs.WriteVars(w, s.Metrics())
}

// serveMetrics writes the same list as a Prometheus text exposition:
// typed rql_-prefixed families, cumulative histograms, and per-replica
// / per-view families with `name{label="value"}` syntax.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteMetrics(w, "rql_", s.Metrics()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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
		fmt.Fprintln(w, e)
	}
}

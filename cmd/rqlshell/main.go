// Command rqlshell is an interactive SQL shell over an RQL database:
// the full SQL surface including the Retro extensions (COMMIT WITH
// SNAPSHOT, SELECT AS OF) and the four RQL mechanism UDFs. It is always
// a client of the rqld session loop: by default it opens a private
// in-memory database and serves it to itself through an embedded server
// over an in-process pipe; with -connect it dials a remote rqld instead.
// Either way the shell holds one client.Conn, so every dot command works
// in both modes. A comma-separated -connect list opens a routing cluster
// client (first address is the primary, the rest are replicas): reads
// spread over the replicas, and every statement's legs share one
// distributed trace.
//
//	rqlshell                       # embedded server, in-memory database
//	rqlshell -connect localhost:7427
//	rqlshell -connect primary:7427,replica1:7428,replica2:7429
//
// Dot commands:
//
//	.help                 show help
//	.tables               list tables and indexes
//	.snapshots            list declared snapshots (SnapIds)
//	.snapshot [label]     commit the open transaction (or an empty one) WITH SNAPSHOT and record it in SnapIds
//	.stats                show last-statement stats and every metric (name value)
//	.stats reset          zero the cumulative counters
//	.views                list materialized retro views and their counters
//	.mech                 show the last RQL mechanism run's breakdown
//	.replicas             show the server's replication role and streams
//	.top                  live server telemetry (rates from /timeline)
//	.trace on|off         toggle the span recorder (cluster-wide)
//	.trace last           render the last statement's span tree; in
//	                      cluster mode, one tree per node that took part
//	.trace save <file>    write the last trace as Perfetto JSON (cluster
//	                      mode stitches all nodes into per-node lanes)
//	.slow [dur|off]       show the slow-query log, or set its threshold
//	.quit                 exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"rql"
	"rql/client"
	"rql/internal/obs"
	"rql/internal/server"
	"rql/internal/wire"
)

// statements is where SQL goes: the shell's one connection, or in
// cluster mode the Cluster that routes reads over the replicas.
type statements interface {
	Exec(sqlText string, cb rql.RowCallback, params ...rql.Value) error
	LastStats() rql.ExecStats
	LastTrace() uint64
	DeclareSnapshot(label string) (uint64, error)
}

// shellEnv is the shell's session. Every dot command that asks the
// server something goes to remote — in cluster mode the primary, so
// .stats, .top and .slow read the writer's counters.
type shellEnv struct {
	conn    statements
	remote  *client.Conn
	cluster *client.Cluster // non-nil with a comma-separated -connect
}

// never is the embedded server's idle and request deadline: a local
// shell is not disconnected for sitting at its prompt, and its queries
// run as long as they did in-process.
const never = 100 * 365 * 24 * time.Hour

func main() {
	connect := flag.String("connect", "", "connect to rqld at host:port instead of serving a private in-memory database; a comma-separated list (primary,replica,...) opens a routing cluster client")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "rqlshell:", err)
		os.Exit(1)
	}
	env := &shellEnv{}
	if addrs := strings.Split(*connect, ","); *connect != "" && len(addrs) > 1 {
		cl, err := client.OpenCluster(client.ClusterConfig{
			Primary:  strings.TrimSpace(addrs[0]),
			Replicas: trimAll(addrs[1:]),
		})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		env.conn, env.remote, env.cluster = cl, cl.Primary(), cl
		fmt.Printf("RQL shell — cluster client: primary %s, %d replica(s).\n",
			addrs[0], len(addrs)-1)
	} else if *connect != "" {
		rc, err := client.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		defer rc.Close()
		env.conn, env.remote = rc, rc
		fmt.Printf("RQL shell — connected to rqld at %s.\n", *connect)
	} else {
		db, err := rql.Open(rql.Options{})
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		srv := server.New(db, server.Config{IdleTimeout: never, RequestTimeout: never})
		defer srv.Shutdown()
		near, far := net.Pipe()
		srv.ServeConn(far)
		rc, err := client.NewConn(near)
		if err != nil {
			fatal(err)
		}
		defer rc.Close()
		env.conn, env.remote = rc, rc
		fmt.Println("RQL shell — in-memory database with Retro snapshots.")
	}
	if err := env.remote.EnsureSnapIds(); err != nil {
		fatal(err)
	}
	fmt.Println(`Type SQL terminated by ';', or ".help" for commands.`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("rql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	for prompt(); sc.Scan(); prompt() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			if !dotCommand(env, trimmed) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.HasSuffix(trimmed, ";") {
			continue
		}
		runSQL(env.conn, pending.String())
		pending.Reset()
	}
}

func runSQL(conn statements, sqlText string) {
	var cols []string
	var rows [][]string
	err := conn.Exec(sqlText, func(names []string, row []rql.Value) error {
		if cols == nil {
			cols = append([]string(nil), names...)
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		rows = append(rows, cells)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printTable(cols, rows)
	st := conn.LastStats()
	if st.RowsReturned > 0 || st.PagelogReads > 0 {
		fmt.Printf("(%d rows, %v)\n", st.RowsReturned, st.Duration.Round(10e3))
	}
}

func printTable(cols []string, rows [][]string) {
	if cols == nil {
		return
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println(strings.TrimRight(strings.Join(parts, " | "), " "))
	}
	line(cols)
	for _, r := range rows {
		line(r)
	}
}

func dotCommand(env *shellEnv, cmd string) bool {
	conn := env.conn
	fields := strings.Fields(cmd)
	switch fields[0] {
	case ".quit", ".exit":
		return false
	case ".help":
		fmt.Println(`SQL statements end with ';'. Retro/RQL extensions:
  BEGIN; ...; COMMIT WITH SNAPSHOT;            declare a snapshot
  SELECT AS OF <id> ... ;                      query a snapshot
  EXPLAIN SELECT ... ;                         show the query plan
  SELECT CollateData(snap_id, 'Qq', 'T') FROM SnapIds;
  SELECT AggregateDataInVariable(snap_id, 'Qq', 'T', 'min') FROM SnapIds;
  SELECT AggregateDataInTable(snap_id, 'Qq', 'T', '(c,max)') FROM SnapIds;
  SELECT CollateDataIntoIntervals(snap_id, 'Qq', 'T') FROM SnapIds;
  CREATE RETRO VIEW v AS CollateData('Qq');    incremental materialized view
  DROP RETRO VIEW v;
  EXPLAIN ANALYZE SELECT ... ;                 run + profile (per-iteration costs)
Dot commands: .tables .snapshots .snapshot [label] .stats [reset] .views
              .mech .replicas .top  .trace on|off|last|save <file>
              .slow [dur|off]  .quit`)
	case ".tables":
		objs, err := env.remote.Objects()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, o := range objs {
			store := "main"
			if o.Temp {
				store = "side (non-snapshotable)"
			}
			if o.Kind == "index" {
				fmt.Printf("  index %-24s on %-16s [%s]\n", o.Name, o.Table, store)
			} else {
				fmt.Printf("  table %-24s %19s [%s]\n", o.Name, "", store)
			}
		}
	case ".snapshots":
		runSQL(conn, `SELECT snap_id, snap_ts, label FROM SnapIds;`)
	case ".snapshot":
		label := ""
		if len(fields) > 1 {
			label = strings.Join(fields[1:], " ")
		}
		id, err := conn.DeclareSnapshot(label)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("declared snapshot %d\n", id)
		}
	case ".stats":
		if len(fields) > 1 && fields[1] == "reset" {
			if err := env.remote.ResetStats(); err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Println("counters reset")
			break
		}
		st := conn.LastStats()
		fmt.Println("last statement:", obs.FormatCost(&st))
		ss, err := env.remote.ServerStats()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		obs.WriteVars(os.Stdout, ss.Metrics)
	case ".views":
		infos, err := env.remote.Views()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if len(infos) == 0 {
			fmt.Println("no retro views (CREATE RETRO VIEW v AS CollateData('...');)")
			break
		}
		cols := []string{"view", "mechanism", "last_snap", "rows", "refreshes", "pruned", "pushed", "subs"}
		var rows [][]string
		for _, v := range infos {
			rows = append(rows, []string{
				v.Name, v.Mechanism,
				fmt.Sprint(v.LastSnap), fmt.Sprint(v.Rows),
				fmt.Sprint(v.Refreshes), fmt.Sprint(v.PrunedRefreshes),
				fmt.Sprint(v.RowsPushed), fmt.Sprint(v.Subscribers),
			})
		}
		printTable(cols, rows)
		for _, v := range infos {
			if v.LastError != "" {
				fmt.Printf("  %s last error: %s\n", v.Name, v.LastError)
			}
		}
	case ".mech":
		run, err := env.remote.LastRun()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if run == nil {
			fmt.Println("no mechanism has run yet")
			break
		}
		for _, line := range run.Report() {
			fmt.Println(line)
		}
	case ".replicas":
		rs, err := env.remote.ReplStats()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		switch rs.Role {
		case wire.RoleReplica:
			fmt.Printf("role: replica of %s\n", rs.Primary)
			fmt.Printf("applied: snapshot horizon %d, lsn %d\n", rs.Horizon, rs.LSN)
			fmt.Printf("stream: %d bytes received, %d deltas, %d snapshots applied, %d bootstrap(s), %d reconnect(s)\n",
				rs.BytesReceived, rs.DeltasApplied, rs.SnapshotsApplied, rs.Bootstraps, rs.Reconnects)
			if rs.LastError != "" {
				fmt.Printf("last error: %s\n", rs.LastError)
			}
		default:
			fmt.Printf("role: primary (snapshot horizon %d, lsn %d)\n", rs.Horizon, rs.LSN)
			if len(rs.Replicas) == 0 {
				fmt.Println("no replicas have subscribed")
				break
			}
			for _, rep := range rs.Replicas {
				state := "connected"
				if !rep.Connected {
					state = "disconnected"
				}
				lag := uint64(0)
				if rs.Horizon > rep.AckedSnap {
					lag = rs.Horizon - rep.AckedSnap
				}
				fmt.Printf("  %-24s %-12s acked snap %-6d (lag %d)  lsn %-8d sent %d bytes\n",
					rep.ID, state, rep.AckedSnap, lag, rep.AckedLSN, rep.SentBytes)
			}
		}
	case ".trace":
		if len(fields) < 2 {
			fmt.Println("usage: .trace on|off|last|save <file>")
			break
		}
		switch fields[1] {
		case "on", "off":
			// Cluster-wide: a routed query's legs land on whichever member
			// covers the snapshot, so every recorder must be on.
			setTracing := env.remote.SetTracing
			if env.cluster != nil {
				setTracing = env.cluster.SetTracing
			}
			if err := setTracing(fields[1] == "on"); err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("tracing %s\n", fields[1])
		case "last":
			id := conn.LastTrace()
			if id == 0 {
				fmt.Println("no traced statement yet (.trace on, then run SQL)")
				break
			}
			nodes, err := lastTraceSpans(env, id)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if len(nodes) == 0 {
				fmt.Printf("trace %d has no recorded spans (ring wrapped?)\n", id)
				break
			}
			fmt.Printf("trace %d:\n", id)
			for _, n := range nodes {
				if n.Node != "" {
					fmt.Printf("── %s ──\n", n.Node)
				}
				fmt.Print(obs.FormatTree(n.Spans))
			}
		case "save":
			if len(fields) < 3 {
				fmt.Println("usage: .trace save <file>")
				break
			}
			id := conn.LastTrace()
			if id == 0 {
				fmt.Println("no traced statement yet (.trace on, then run SQL)")
				break
			}
			nodes, err := lastTraceSpans(env, id)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if len(nodes) == 0 {
				fmt.Printf("trace %d has no recorded spans (ring wrapped?)\n", id)
				break
			}
			if err := saveTrace(fields[2], nodes); err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("wrote trace %d to %s (open in https://ui.perfetto.dev)\n", id, fields[2])
		default:
			fmt.Println("usage: .trace on|off|last|save <file>")
		}
	case ".top":
		period, pts, err := env.remote.Timeline()
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		printTop(period, pts)
	case ".slow":
		var set []time.Duration
		if len(fields) > 1 {
			var th time.Duration
			if fields[1] != "off" {
				var err error
				if th, err = time.ParseDuration(fields[1]); err != nil {
					fmt.Println("usage: .slow [duration|off] — e.g. .slow 50ms")
					break
				}
			}
			set = append(set, th)
		}
		th, entries, err := env.remote.SlowQueries(set...)
		switch {
		case err != nil:
			fmt.Println("error:", err)
		case th == 0 && set != nil:
			fmt.Println("slow-query log off")
		case th == 0:
			fmt.Println("slow-query log disabled (.slow <duration> to arm it)")
		case set != nil:
			fmt.Printf("logging statements slower than %v\n", th)
		default:
			fmt.Printf("threshold %v, %d entries\n", th, len(entries))
			for _, e := range entries {
				fmt.Println(" ", e)
			}
		}
	default:
		fmt.Println("unknown command; try .help")
	}
	return true
}

// trimAll trims whitespace around each address of a -connect list.
func trimAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.TrimSpace(s)
	}
	return out
}

// lastTraceSpans collects one trace's spans: from every cluster member
// (one named node each), or from the shell's one server (one unnamed
// node).
func lastTraceSpans(env *shellEnv, id uint64) ([]obs.NodeSpans, error) {
	if env.cluster != nil {
		return env.cluster.TraceSpans(id)
	}
	spans, err := env.remote.TraceSpans(id)
	if err != nil || len(spans) == 0 {
		return nil, err
	}
	return []obs.NodeSpans{{Spans: spans}}, nil
}

// saveTrace writes nodes as Chrome trace-event JSON for Perfetto: one
// process lane per node when stitching a cluster trace, a flat file for
// a single source.
func saveTrace(path string, nodes []obs.NodeSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(nodes) == 1 && nodes[0].Node == "" {
		return obs.WriteTraceEvents(f, nodes[0].Spans)
	}
	return obs.WriteStitchedTraceEvents(f, nodes)
}

// printTop renders the server's telemetry timeline (.top): the most
// recent sampling points as headline per-second rates, then the latest
// point's per-replica lag and per-view refresh rates.
func printTop(period time.Duration, pts []client.TimelinePoint) {
	if len(pts) == 0 {
		fmt.Printf("no telemetry yet (the server samples every %v; see rqld -timeline-period)\n", period)
		return
	}
	const show = 12
	start := 0
	if len(pts) > show {
		start = len(pts) - show
	}
	cols := []string{"time", "queries/s", "commits/s", "rows/s", "device busy %", "cache hit %"}
	var rows [][]string
	for _, p := range pts[start:] {
		reads, hits := p.Rates["retro_pagelog_reads"], p.Rates["retro_cache_hits"]
		hitPct := 0.0
		if reads+hits > 0 {
			hitPct = hits / (reads + hits) * 100
		}
		rows = append(rows, []string{
			p.When.Format("15:04:05"),
			fmt.Sprintf("%.1f", p.Rates["queries_served"]),
			fmt.Sprintf("%.1f", p.Rates["storage_commits"]),
			fmt.Sprintf("%.1f", p.Rates["rows_streamed"]),
			// Busy time is summed across concurrent demand reads, so
			// parallel lanes can exceed 100% of one wall-second.
			fmt.Sprintf("%.1f", p.Rates["device_busy_ns"]/1e9*100),
			fmt.Sprintf("%.1f", hitPct),
		})
	}
	fmt.Printf("telemetry: %d point(s), sampled every %v (newest %d shown)\n",
		len(pts), period, len(rows))
	printTable(cols, rows)
	last := pts[len(pts)-1]
	fmt.Printf("now: %d conn(s), %d view(s), snapshot horizon %d\n",
		int64(last.Gauges["conns_active"]),
		int64(last.Gauges["views"]),
		int64(last.Gauges["repl_horizon"]))
	printSeries(last.Gauges, "repl_replica_lag_snapshots.", "  replica %s: lag %.0f snapshot(s)\n")
	printSeries(last.Rates, "view_refreshes_total.", "  view %s: %.2f refresh/s\n")
}

// printSeries prints, in label order, every value of one labelled
// family (keys prefix + label value) with format(label, value).
func printSeries(vals map[string]float64, prefix, format string) {
	var labels []string
	for k := range vals {
		if l, ok := strings.CutPrefix(k, prefix); ok {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf(format, l, vals[prefix+l])
	}
}

// End-to-end tracing: watch one retrospective computation travel down
// the whole stack.
//
// The span recorder (internal/obs) is off by default and costs one
// atomic load per instrumentation site while off. Switched on, every
// layer contributes spans to a per-process ring: the SQL engine
// (parse/plan/execute), the mechanisms (one span per snapshot
// iteration, with its billed reads and row counts as attributes), the
// Retro layer (SPT construction, Pagelog fetches) and the device pool
// (one span per device command, including how long it waited in the
// queue). Spans of one statement form a connected tree under one trace
// ID; tracing never changes the billed counters the paper's figures
// are plotted from.
//
// This walkthrough builds the paper's LoggedIn example, traces the
// CollateData run from Figure 3, prints its span tree, and writes the
// whole ring as Chrome trace-event JSON — drag rql_trace.json into
// https://ui.perfetto.dev to see the same tree as nested slices. It
// also arms the slow-query log with a tiny threshold so the traced
// statements land there too.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rql"
	"rql/internal/obs"
)

func main() {
	db, err := rql.Open(rql.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	conn := db.Conn()

	exec := func(sql string) {
		if err := conn.Exec(sql, nil); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}

	exec(`CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)`)
	exec(`BEGIN`)
	exec(`INSERT INTO LoggedIn VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	declare(conn, "2008-11-09")
	exec(`BEGIN`)
	exec(`DELETE FROM LoggedIn WHERE l_userid = 'UserA'`)
	declare(conn, "2008-11-10")
	exec(`BEGIN`)
	exec(`INSERT INTO LoggedIn VALUES ('UserD', '2008-11-11 10:08:04', 'UK')`)
	declare(conn, "2008-11-11")

	// Arm the recorder and the slow-query log (any statement over 1µs
	// counts as slow here, so the demo statements all land in the log).
	rql.SetTracing(true)
	rql.SetSlowQueryThreshold(time.Microsecond)

	// A cold snapshot cache makes the mechanism's reads travel the full
	// path — Pagelog fetch, device command — instead of stopping at the
	// page cache, so those layers' spans show up in the tree.
	db.ResetSnapshotCache()

	exec(`SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn',
		'Result') FROM SnapIds`)

	trace := obs.LastTrace()
	fmt.Printf("trace %d — CollateData over 3 snapshots, top to bottom:\n\n", trace)
	fmt.Println(obs.FormatTree(obs.TraceSpans(trace)))

	// The same ring, exported for Perfetto / chrome://tracing.
	f, err := os.Create("rql_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteTraceEvents(f, obs.Spans()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote rql_trace.json — open it at https://ui.perfetto.dev")

	fmt.Printf("\nslow-query log (threshold %v):\n", time.Microsecond)
	for _, e := range obs.SlowEntries() {
		fmt.Printf("  %8v  %4d rows  trace=%d  %.60s\n", e.Duration.Round(time.Microsecond), e.Rows, e.Trace, e.SQL)
	}

	// Off again: the recorder is a toggle, not a mode — and with it off
	// the instrumented paths are nil-span no-ops.
	rql.SetTracing(false)
}

// declare commits the open transaction WITH SNAPSHOT and records the
// snapshot in SnapIds under label.
func declare(conn *rql.Conn, label string) {
	if _, err := conn.DeclareSnapshot(label); err != nil {
		log.Fatal(err)
	}
}

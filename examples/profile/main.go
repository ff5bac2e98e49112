// Profiling a retrospective query with EXPLAIN ANALYZE.
//
// EXPLAIN shows the plan the engine chose. EXPLAIN ANALYZE goes
// further: it executes the statement through that exact iterator tree
// — same planning pass, same read context, same billed counters as
// running it plainly — and appends what the execution cost. For a
// plain SELECT that is one EXECUTED summary line (rows, wall time,
// Pagelog reads, cache hits, SPT build time). For
// a statement that drives a retrospective mechanism, the report adds
// the paper's §4 cost model: a MECHANISM header (pruned iterations,
// replayed rows, delta intersections) and one ITERATION line per snapshot
// with its wall time split into SPT build, index creation, query
// evaluation, UDF time and I/O, plus the billed reads and rows.
//
// EXPLAIN ANALYZE is observation-only by construction: the property
// test TestExplainAnalyzeMatchesPlainRun pins its counters
// byte-identical to plain execution. The same per-run profile feeds
// the slow-query log, so a slow mechanism statement logs its
// mechanism name, pruning counts and Pagelog reads alongside the
// usual fields.
//
// This walkthrough builds the paper's LoggedIn example (Figure 1),
// profiles a plain retrospective SELECT and the Figure 3 CollateData
// run, and prints both reports.
package main

import (
	"fmt"
	"log"
	"time"

	"rql"
)

func main() {
	// The io column is modeled, not slept: every cache-missing Pagelog
	// read is billed 200µs here.
	db, err := rql.Open(rql.Options{SimulatedReadLatency: 200 * time.Microsecond})
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

	report := func(sql string) {
		fmt.Printf("rql> %s\n", sql)
		if err := conn.Exec(sql, func(_ []string, row []rql.Value) error {
			fmt.Println(row[0].Text())
			return nil
		}); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		fmt.Println()
	}

	// A plain retrospective read: the plan, then the EXECUTED summary.
	// Cold cache so the reads show up as Pagelog reads, not cache hits.
	db.ResetSnapshotCache()
	report(`EXPLAIN ANALYZE SELECT AS OF 1 l_userid FROM LoggedIn ORDER BY l_userid`)

	// The Figure 3 mechanism run: CollateData evaluates Qq on every
	// snapshot of the Qs set. The report adds the MECHANISM header and
	// one ITERATION line per snapshot with the §4 cost split.
	db.ResetSnapshotCache()
	report(`EXPLAIN ANALYZE SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn',
		'Result') FROM SnapIds`)

	// EXPLAIN ANALYZE ran the statement for real: Result exists.
	fmt.Println("rql> SELECT l_userid, sid FROM Result ORDER BY sid, l_userid")
	if err := conn.Exec(`SELECT l_userid, sid FROM Result ORDER BY sid, l_userid`,
		func(_ []string, row []rql.Value) error {
			fmt.Printf("  %-6s snapshot %d\n", row[0].Text(), row[1].Int())
			return nil
		}); err != nil {
		log.Fatal(err)
	}
}

// declare commits the open transaction WITH SNAPSHOT and records the
// snapshot in SnapIds under label.
func declare(conn *rql.Conn, label string) {
	if _, err := conn.DeclareSnapshot(label); err != nil {
		log.Fatal(err)
	}
}

// Quickstart: the paper's LoggedIn example (Figures 1–3) end to end —
// declare snapshots with COMMIT WITH SNAPSHOT, query one with SELECT AS
// OF, then run a multi-snapshot computation with CollateData, both
// through the Go API and through the SQL UDF form.
package main

import (
	"fmt"
	"log"

	"rql"
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
	show := func(title, sql string) {
		rows, err := conn.Query(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		fmt.Printf("\n%s\n  %s\n", title, sql)
		for _, r := range rows.Rows {
			fmt.Print("  ")
			for i, v := range r {
				if i > 0 {
					fmt.Print(" | ")
				}
				fmt.Print(v)
			}
			fmt.Println()
		}
	}

	exec(`CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)`)

	// Snapshot S1: UserA, UserB and UserC are logged in (Figure 1a).
	exec(`BEGIN`)
	exec(`INSERT INTO LoggedIn VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	s1 := declare(conn, "2008-11-09")

	// Snapshot S2: UserA logs out (Figure 1b).
	exec(`BEGIN`)
	exec(`DELETE FROM LoggedIn WHERE l_userid = 'UserA'`)
	declare(conn, "2008-11-10")

	// Snapshot S3: UserD logs in (Figure 1c).
	exec(`BEGIN`)
	exec(`INSERT INTO LoggedIn VALUES ('UserD', '2008-11-11 10:08:04', 'UK')`)
	declare(conn, "2008-11-11")

	// Retrospective query on a single snapshot vs the current state
	// (Figure 3, lines 9–10).
	show("Who was logged in at snapshot 1?", fmt.Sprintf(`SELECT AS OF %d * FROM LoggedIn`, s1))
	show("Who is logged in now?", `SELECT * FROM LoggedIn`)
	show("Declared snapshots", `SELECT snap_id, label FROM SnapIds`)

	// Multi-snapshot computation via the Go API (§2.1's example).
	if _, err := conn.CollateData(
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn`,
		"Result"); err != nil {
		log.Fatal(err)
	}
	show("CollateData: every user with the snapshots they appear in",
		`SELECT l_userid, sid FROM Result ORDER BY l_userid, sid`)

	// The same computation in pure SQL: the mechanism UDF interposed on
	// the snapshot-set query, the paper's §3 implementation structure.
	exec(`SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn',
		'Result2') FROM SnapIds`)
	show("Same result via the SQL UDF form",
		`SELECT COUNT(*) AS rows_collected FROM Result2`)

	// Count the snapshots in which UserB was logged in (§2.2).
	if _, err := conn.AggregateDataInVariable(
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT 1 FROM LoggedIn WHERE l_userid = 'UserB'`,
		"UserBSnaps", "sum"); err != nil {
		log.Fatal(err)
	}
	show("AggregateDataInVariable: snapshots with UserB logged in",
		`SELECT * FROM UserBSnaps`)
}

// declare commits the open transaction WITH SNAPSHOT and records the
// snapshot in SnapIds under label.
func declare(conn *rql.Conn, label string) uint64 {
	id, err := conn.DeclareSnapshot(label)
	if err != nil {
		log.Fatal(err)
	}
	return id
}

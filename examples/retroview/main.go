// Incremental materialized retro views: a mechanism as a standing
// computation instead of a batch run.
//
// CollateData answers "who was logged in at every snapshot" by
// recomputing all n snapshots each time it runs — O(n) per question.
// A monitoring workload asks the same question after every new
// snapshot, so the total cost is quadratic in the history. A retro
// view materializes the mechanism once and then extends the result
// table by exactly one delta-pruned iteration per COMMIT WITH
// SNAPSHOT: O(1) per new snapshot, with quiet snapshots replayed from
// the prune cache without evaluating the query at all.
//
// This walkthrough creates a view over a presence table, subscribes to
// its extension stream, declares 12 "minutes" of snapshots (a third of
// them quiet), and shows each pushed batch, the view's status counters,
// and a retrospective question answered straight from the materialized
// table.
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

	exec := func(sqlText string, params ...rql.Value) {
		if err := conn.Exec(sqlText, nil, params...); err != nil {
			log.Fatalf("%s: %v", sqlText, err)
		}
	}
	exec(`CREATE TABLE logged_in (user TEXT, region TEXT)`)

	// The view is created before any snapshot exists; it will follow the
	// history as it grows. All four mechanisms work as view bodies —
	// CollateData is the natural fit for presence-over-time.
	exec(`CREATE RETRO VIEW sessions AS
	      CollateData('SELECT user, region, current_snapshot() AS sid FROM logged_in')`)

	// Subscribe before writing: every extension the view materializes
	// from here on is pushed into the buffer. Over the wire this is
	// client.Conn.SubscribeView; in-process it is the same stream.
	sub, err := db.SubscribeView("sessions", 64)
	if err != nil {
		log.Fatal(err)
	}

	// Presence traffic: logins and logouts, with every third minute
	// quiet — nothing changed, but the monitoring schedule declares a
	// snapshot anyway. Those are the iterations delta pruning replays.
	type step struct{ in, out string }
	script := []step{
		{in: "ann"}, {in: "ben"}, {}, {in: "cal", out: "ann"},
		{in: "dee"}, {}, {out: "ben"}, {in: "ann"},
		{}, {out: "cal"}, {in: "eve"}, {},
	}
	regions := map[string]string{"ann": "EU", "ben": "US", "cal": "EU", "dee": "APAC", "eve": "US"}
	for minute, s := range script {
		exec(`BEGIN`)
		if s.in != "" {
			exec(`INSERT INTO logged_in VALUES (?, ?)`, rql.Text(s.in), rql.Text(regions[s.in]))
		}
		if s.out != "" {
			exec(`DELETE FROM logged_in WHERE user = ?`, rql.Text(s.out))
		}
		if _, err := conn.DeclareSnapshot(fmt.Sprintf("minute %d", minute+1)); err != nil {
			log.Fatal(err)
		}
	}

	// The background refresher follows commits on its own; REFRESH is
	// the synchronous form — it returns once the view has caught up.
	exec(`REFRESH RETRO VIEW sessions`)

	// Drain the stream: one batch per snapshot, in order, each carrying
	// the rows materialized for that snapshot. Cancel closes the channel
	// after the buffered batches.
	sub.Cancel()
	fmt.Println("pushed extensions:")
	for b := range sub.C {
		mark := "evaluated"
		if b.Pruned {
			mark = "pruned (replayed from cache)"
		}
		users := make([]string, 0, len(b.Rows))
		for _, r := range b.Rows {
			users = append(users, r[0].String())
		}
		fmt.Printf("  snap %-2d %-28s online=%v\n", b.Snap, mark, users)
	}

	// The .views status line (also served over the wire and as
	// per-view /metrics counters).
	for _, v := range db.Views() {
		fmt.Printf("\nview %s [%s]: cursor=%d rows=%d refreshes=%d pruned=%d pushed=%d\n",
			v.Name, v.Mechanism, v.LastSnap, v.Rows, v.Refreshes, v.PrunedRefreshes, v.RowsPushed)
	}

	// The materialized table is a plain table: retrospective questions
	// are now ordinary SQL, no mechanism run needed.
	fmt.Println("\nconcurrent EU sessions per minute:")
	rows, err := conn.Query(
		`SELECT sid, COUNT(*) AS n FROM sessions WHERE region = 'EU' GROUP BY sid`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows.Rows {
		fmt.Printf("  minute %-2d %d online\n", r[0].Int(), r[1].Int())
	}

	// Dropping the view removes the definition and the result table,
	// and ends every subscription.
	exec(`DROP RETRO VIEW sessions`)
}

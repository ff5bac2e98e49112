// Sessions: reconstructing record lifetimes with
// CollateDataIntoIntervals (§2.4) — the mechanism that converts
// page-level snapshots into the start/end interval representation
// temporal databases use.
//
// A chat service keeps only the currently-online users in a table and
// declares a snapshot every "minute". Later, an analyst reconstructs
// every user's sessions — including users who disconnected and came
// back — from the snapshot history alone.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rql"
)

func main() {
	db, err := rql.Open(rql.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	conn := db.Conn()

	if err := conn.Exec(`CREATE TABLE online (user TEXT, device TEXT)`, nil); err != nil {
		log.Fatal(err)
	}

	// Simulated presence traffic: each user flips online/offline with
	// some probability per tick; a snapshot is declared every tick.
	users := []string{"ann", "ben", "cal", "dee", "eve"}
	online := map[string]bool{}
	rng := rand.New(rand.NewSource(11))
	const ticks = 12
	for tick := 1; tick <= ticks; tick++ {
		if err := conn.Exec(`BEGIN`, nil); err != nil {
			log.Fatal(err)
		}
		for _, u := range users {
			switch {
			case !online[u] && rng.Float64() < 0.45: // connect
				online[u] = true
				if err := conn.Exec(`INSERT INTO online VALUES (?, ?)`, nil,
					rql.Text(u), rql.Text("mobile")); err != nil {
					log.Fatal(err)
				}
			case online[u] && rng.Float64() < 0.25: // disconnect
				online[u] = false
				if err := conn.Exec(`DELETE FROM online WHERE user = ?`, nil, rql.Text(u)); err != nil {
					log.Fatal(err)
				}
			}
		}
		if _, err := conn.DeclareSnapshot(fmt.Sprintf("minute %d", tick)); err != nil {
			log.Fatal(err)
		}
	}

	// Reconstruct session intervals from the snapshots.
	stats, err := conn.CollateDataIntoIntervals(
		`SELECT snap_id FROM SnapIds`,
		`SELECT user FROM online`,
		"Sessions")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d snapshots -> %d session intervals (result: %d bytes data, %d bytes index)\n\n",
		ticks, stats.ResultRows, stats.ResultDataBytes, stats.ResultIndexBytes)
	rows, err := conn.Query(
		`SELECT user, start_snapshot, end_snapshot,
		        end_snapshot - start_snapshot + 1 AS minutes
		 FROM Sessions ORDER BY user, start_snapshot`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("user  session             minutes")
	for _, r := range rows.Rows {
		fmt.Printf("%-5s [min %2v .. min %2v]  %v\n", r[0], r[1], r[2], r[3])
	}

	// Cross-check one user against raw per-snapshot membership.
	fmt.Println("\nraw presence of 'ann' per snapshot (CollateData):")
	if _, err := conn.CollateData(
		`SELECT snap_id FROM SnapIds`,
		`SELECT current_snapshot() AS snap FROM online WHERE user = 'ann'`,
		"AnnRaw"); err != nil {
		log.Fatal(err)
	}
	rows, err = conn.Query(`SELECT snap FROM AnnRaw ORDER BY snap`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("  online at minutes:")
	for _, r := range rows.Rows {
		fmt.Printf(" %v", r[0])
	}
	fmt.Println()
}

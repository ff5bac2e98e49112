// Delta pruning: skipping snapshots a retrospective query cannot tell
// apart.
//
// A monitoring schedule declares a snapshot every night whether or not
// the data changed, so most real snapshot sets contain long quiet
// stretches. A mechanism iteration whose query would read only pages
// that did not change since the previous member must produce the same
// rows — so the engine skips it: it records the page read-set of each
// executed iteration, tests the Maplog entries between the two
// snapshots against it (the delta oracle), and replays the cached
// result when none hits (re-tagging current_snapshot() columns).
//
// This walkthrough declares 24 nightly snapshots of which only every
// 4th follows a refresh, runs CollateData with pruning on and off, and
// shows the per-iteration breakdown and why a non-prunable query falls
// back.
package main

import (
	"fmt"
	"log"
	"time"

	"rql/internal/bench"
)

func main() {
	env, err := bench.NewEnv(bench.UW30, 1, bench.Config{SF: 0.002})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	conn := env.Conn

	// 24 nightly snapshots; the refresh job only ran every 4th night.
	if err := env.ExtendSparse(24, 4); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("history: %d snapshots, %d with refreshes, %d quiet\n\n",
		env.Last, (24+3)/4+1, 24-(24+3)/4)

	qs := `SELECT snap_id FROM SnapIds WHERE snap_id >= 2`
	qq := `SELECT o_orderkey, o_totalprice, current_snapshot() AS sid
	       FROM orders WHERE o_orderstatus = 'O'`

	// Pruning is on by default; time the same run both ways.
	start := time.Now()
	pruned, err := env.R.CollateData(conn, qs, qq, "OpenOrdersPruned")
	if err != nil {
		log.Fatal(err)
	}
	prunedWall := time.Since(start)

	env.R.SetDeltaPrune(false)
	start = time.Now()
	full, err := env.R.CollateData(conn, qs, qq, "OpenOrdersFull")
	if err != nil {
		log.Fatal(err)
	}
	fullWall := time.Since(start)
	env.R.SetDeltaPrune(true)

	fmt.Printf("pruned run:   %v — %d/%d iterations skipped, %d rows replayed from cache\n",
		prunedWall.Round(time.Microsecond), pruned.PrunedIterations,
		len(pruned.Iterations), pruned.PrunedRowsReplayed)
	fmt.Printf("unpruned run: %v — %d iterations executed in full (%s)\n\n",
		fullWall.Round(time.Microsecond), len(full.Iterations), full.PruneReason)

	// Both tables hold byte-identical results; prove it cheaply.
	var a, b int64
	count := func(table string, into *int64) {
		rows, err := conn.Query(`SELECT COUNT(*) FROM ` + table)
		if err != nil {
			log.Fatal(err)
		}
		*into = rows.Rows[0][0].Int()
	}
	count("OpenOrdersPruned", &a)
	count("OpenOrdersFull", &b)
	fmt.Printf("result rows: pruned %d, unpruned %d\n\n", a, b)

	fmt.Println("per-iteration breakdown (pruned run):")
	for _, it := range pruned.Iterations {
		mark := "executed"
		if it.Pruned {
			mark = "pruned"
		}
		fmt.Printf("  snap %-3d %-8s eval=%-12v rows=%-4d maplog entries tested=%d\n",
			it.Snapshot, mark, it.QueryEval.Round(time.Microsecond), it.QqRows, it.DeltaPages)
	}

	// A query the analyzer cannot prove snapshot-pure runs unpruned —
	// and the run stats say why.
	unsafe, err := env.R.CollateData(conn, qs,
		`SELECT o_orderkey FROM orders WHERE o_orderkey < current_snapshot() * 1000000`,
		"NotPrunable")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnon-prunable Qq fell back to full execution: %s\n", unsafe.PruneReason)
}

// Group commit: the batched, pipelined write path for concurrent
// sessions.
//
// The log is single-writer, but writers no longer serialize around a
// transaction-lifetime lock: BEGIN pins a snapshot-isolation baseline
// and stages the write set privately, COMMIT enqueues onto a commit
// queue, and a leader drains whole batches — conflict detection,
// consecutive LSNs, ONE device flush per group. This walkthrough shows
// both faces of that design:
//
//  1. Throughput: on a sleeping device (1ms per flush), 8 concurrent
//     writers commit several times faster than one writer alone,
//     because a group of commits shares one flush where the lone
//     writer's groups of one pay a flush each.
//  2. Isolation: two explicit transactions that write the same page
//     race at COMMIT; the first committer wins and the loser gets
//     rql.ErrWriteConflict to retry on a fresh snapshot.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"rql"
)

const (
	writers = 8
	ops     = 20
)

// run times n concurrent sessions committing INSERTs into private
// tables (disjoint pages — no conflicts, so the comparison isolates
// flush batching). Every commit declares a snapshot, so every commit
// archives pre-images and its group's flush is mandatory (a group that
// adds nothing to the Pagelog skips its flush).
func run(db *rql.DB, n int) time.Duration {
	setup := db.Conn()
	for w := 0; w < n; w++ {
		if err := setup.Exec(fmt.Sprintf(`CREATE TABLE w%d_%d (i INTEGER)`, n, w), nil); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := setup.DeclareSnapshot(""); err != nil {
		log.Fatal(err)
	}
	db.ResetStats()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn := db.Conn()
			for i := 0; i < ops; i++ {
				if err := conn.Exec(fmt.Sprintf(`BEGIN; INSERT INTO w%d_%d VALUES (%d); COMMIT WITH SNAPSHOT`, n, w, i), nil); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func main() {
	// SleepOnRead turns the modeled device latency into wall time, so a
	// commit group's flush genuinely costs 1ms — the regime where
	// batching flushes is visible on the clock.
	db, err := rql.Open(rql.Options{
		SleepOnRead:          true,
		SimulatedReadLatency: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// --- 1. Throughput: one writer vs eight -------------------------
	// One writer is the serial baseline: every commit is a group of one.
	soloWall := run(db, 1)
	ss := db.StorageStats()
	soloRate := float64(ss.Commits) / soloWall.Seconds()
	fmt.Printf("1 writer : %3d commits in %8s — %d flushes (one per commit), %.0f commits/s\n",
		ss.Commits, soloWall.Round(time.Millisecond), db.RetroStats().DeviceFlushes, soloRate)

	groupedWall := run(db, writers)
	ss = db.StorageStats()
	rate := float64(ss.Commits) / groupedWall.Seconds()
	fmt.Printf("%d writers: %3d commits in %8s — %d flushes (one per GROUP, mean size %.1f), %.0f commits/s\n",
		writers, ss.Commits, groupedWall.Round(time.Millisecond),
		db.RetroStats().DeviceFlushes, float64(ss.Commits)/float64(ss.Groups), rate)
	fmt.Printf("speedup: %.1fx the lone writer's commit rate; queue wait %s total\n\n",
		rate/soloRate, time.Duration(ss.QueueWaitNS).Round(time.Microsecond))

	// --- 2. Isolation: first committer wins -------------------------
	// Two transactions stage against the same baseline and write the
	// same table, hence the same leaf page. Neither blocks the other
	// while running; the race is settled at COMMIT.
	c1, c2 := db.Conn(), db.Conn()
	if err := c1.Exec(`CREATE TABLE balance (acct INTEGER, cents INTEGER)`, nil); err != nil {
		log.Fatal(err)
	}
	if err := c1.Begin(); err != nil {
		log.Fatal(err)
	}
	if err := c2.Begin(); err != nil {
		log.Fatal(err) // BEGIN takes no lock — this does not block on c1
	}
	mustExec(c1, `INSERT INTO balance VALUES (1, 100)`)
	mustExec(c2, `INSERT INTO balance VALUES (2, 200)`)
	if err := c1.Commit(); err != nil {
		log.Fatal(err)
	}
	err = c2.Commit()
	fmt.Printf("first COMMIT: ok; second COMMIT: %v (conflict aborted: %d)\n",
		err, db.StorageStats().Conflicts)
	if !errors.Is(err, rql.ErrWriteConflict) {
		log.Fatalf("expected rql.ErrWriteConflict, got %v", err)
	}

	// The loser retries on a fresh snapshot — its baseline now includes
	// the winner's commit, so the same write succeeds.
	if err := c2.Begin(); err != nil {
		log.Fatal(err)
	}
	mustExec(c2, `INSERT INTO balance VALUES (2, 200)`)
	if err := c2.Commit(); err != nil {
		log.Fatal(err)
	}
	rows := 0
	err = c1.Exec(`SELECT acct FROM balance`, func(cols []string, row []rql.Value) error {
		rows++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after retry: %d rows — both writers landed exactly once\n", rows)
}

func mustExec(c *rql.Conn, sql string) {
	if err := c.Exec(sql, nil); err != nil {
		log.Fatal(err)
	}
}

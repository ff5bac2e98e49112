package core

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
)

// Parallel execution of RQL mechanisms — the parallelization the paper
// leaves as future work (§7). The snapshot set is split into contiguous
// chunks, each run by its own lane on a worker goroutine with its own
// connection and snapshot readers (Retro snapshot queries are
// independent MVCC read transactions, so they parallelize naturally; the
// shared snapshot page cache even lets workers reuse each other's
// fetches). Each lane folds into memory; the partial results are then
// merged, in Qs order, into the lane that owns T.
//
// Correctness rests on the same algebra the sequential mechanisms
// require: aggregate functions must be commutative-associative monoids
// (§2.3), so a chunk's partial result folds into the preceding chunks'
// like one more iteration whose records carry the weight they
// accumulated — AVG, the paper's special case, through its auxiliary
// count. CollateDataIntoIntervals additionally exploits that chunks are
// contiguous in Qs order: a lifetime open at one chunk's tail continues
// into the lifetime the next chunk's head iteration opened for the same
// record (fold.merge).

// ParallelCollateData is CollateData with iterations fanned out across
// workers goroutines.
func (r *RQL) ParallelCollateData(qs, qq, table string, workers int) (*RunStats, error) {
	return r.run(r.db.Conn(), mechCall{kind: mechCollate, qq: qq, table: table}, qs, max(workers, 1), nil)
}

// ParallelAggregateDataInVariable is AggregateDataInVariable with
// per-chunk partial folds combined by the aggregate's monoid.
func (r *RQL) ParallelAggregateDataInVariable(qs, qq, table, aggFunc string, workers int) (*RunStats, error) {
	return r.run(r.db.Conn(), mechCall{mechAggVar, qq, table, aggFunc, true}, qs, max(workers, 1), nil)
}

// ParallelAggregateDataInTable is AggregateDataInTable with per-chunk
// in-memory partial aggregation merged by the per-column monoids.
func (r *RQL) ParallelAggregateDataInTable(qs, qq, table, pairs string, workers int) (*RunStats, error) {
	return r.run(r.db.Conn(), mechCall{mechAggTable, qq, table, pairs, true}, qs, max(workers, 1), nil)
}

// ParallelCollateDataIntoIntervals is CollateDataIntoIntervals with
// per-chunk interval construction and boundary stitching.
func (r *RQL) ParallelCollateDataIntoIntervals(qs, qq, table string, workers int) (*RunStats, error) {
	return r.run(r.db.Conn(), mechCall{kind: mechIntervals, qq: qq, table: table}, qs, max(workers, 1), nil)
}

// fanOut runs snaps as contiguous chunks on up to workers concurrent
// memory-backed lanes, merges them in memory, in Qs order, as they
// finish, and folds the result into ln: T is filled once, and an indexed
// T is built once. (Merging each lane straight into an indexed T — a
// B-tree probe and an index-maintaining update per row per lane — made
// the parallel lanes contend on T's index and left them slower than one
// merged build, most of all for CollateDataIntoIntervals.)
//
// CollateData alone does not wait for the merge: its fold keeps no state
// and its T is a multiset, so each lane hands T its rows at the end of
// every iteration. That overlaps the writes with evaluation and bounds a
// lane's memory by one iteration's output; inserting at merge time left
// the writes as a serial tail. T's row order is then unspecified, as for
// any multiset.
func (ln *lane) fanOut(snaps []uint64, workers int) error {
	if len(snaps) == 0 {
		return nil
	}
	// Result-table shape comes from the first snapshot, as in a
	// sequential run; the lanes then share it read-only.
	if err := ln.m.createResultTable(ln.conn, snaps[0]); err != nil {
		return err
	}
	if err := ln.table.open(ln.conn); err != nil {
		return err
	}
	var writeT sync.Mutex
	per := (len(snaps) + workers - 1) / workers
	lanes := make([]*lane, (len(snaps)+per-1)/per)
	done := make([]chan error, len(lanes))
	for i := range lanes {
		chunk := snaps[i*per : min((i+1)*per, len(snaps))]
		// Worker iteration spans attach to the run's span directly (a
		// child only reads its parent's immutable IDs, so sharing it
		// across goroutines is race-free).
		conn := ln.m.rql.db.Conn()
		conn.SetTraceSpan(ln.conn.TraceSpan())
		w := ln.m.memLane(conn)
		if ln.m.kind == mechCollate {
			buf := w.fold.store.(*memStore)
			w.fold.endIter = func(*IterationCost) error {
				writeT.Lock()
				defer writeT.Unlock()
				for _, row := range buf.rows {
					if _, err := ln.table.insert(row); err != nil {
						return err
					}
				}
				buf.rows = buf.rows[:0]
				return nil
			}
		}
		lanes[i], done[i] = w, make(chan error, 1)
		go func() {
			// A panic under a worker (a registered function called by
			// Qq, say) fails the run instead of the process.
			defer func() {
				if p := recover(); p != nil {
					fmt.Fprintf(os.Stderr, "rql: mechanism lane: panic: %v\n%s", p, debug.Stack())
					done[i] <- fmt.Errorf("rql: mechanism lane panicked: %v", p)
				}
			}()
			done[i] <- w.steps(chunk)
		}()
	}
	// Every lane is waited for, failed run or not.
	var err error
	for i, w := range lanes {
		if werr := <-done[i]; err == nil {
			err = werr
		}
		if err == nil && i > 0 {
			err = lanes[0].merge(w)
		}
	}
	if err == nil {
		err = ln.merge(lanes[0])
	}
	return err
}

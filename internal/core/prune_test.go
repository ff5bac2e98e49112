package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/sql"
)

// pruneHistory builds a randomized RF1/RF2-style refresh history with
// the shapes that stress delta pruning: snapshots with zero intervening
// writes (empty deltas), back-to-back heavy refreshes, and quiet
// stretches touching only keys outside the usual query ranges.
func pruneHistory(t *testing.T, seed int64, snapshots int) (*RQL, *sql.Conn) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	present := map[int]bool{}
	for s := 0; s < snapshots; s++ {
		mustExec(t, c, `BEGIN`)
		var writes int
		switch rng.Intn(4) {
		case 0:
			writes = 0 // zero-write snapshot: empty delta
		case 1:
			writes = 12 + rng.Intn(8) // heavy refresh burst
		default:
			writes = 1 + rng.Intn(4)
		}
		for n := 0; n < writes; n++ {
			k := rng.Intn(14)
			if present[k] && rng.Intn(3) == 0 {
				mustExec(t, c, fmt.Sprintf(`DELETE FROM m WHERE k = %d`, k))
				present[k] = false
			} else if !present[k] {
				mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`,
					k, k%3, rng.Intn(100)))
				present[k] = true
			} else {
				mustExec(t, c, fmt.Sprintf(`UPDATE m SET v = %d WHERE k = %d`, rng.Intn(100), k))
			}
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, time.Unix(int64(s), 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	return r, c
}

// runMech drives kind's canonical invocation of qq (sequential or
// parallel) into table.
func runMech(t *testing.T, r *RQL, c *sql.Conn, kind mechKind, qs, qq, table string, parallel bool) *RunStats {
	t.Helper()
	return runFixture(t, r, c, mechFixture{kind: kind, qq: qq, extra: mechExtra[kind]}, qs, table, parallel)
}

// runFixture drives one mechanism through the Go-level API into table.
func runFixture(t *testing.T, r *RQL, c *sql.Conn, fx mechFixture, qs, table string, parallel bool) *RunStats {
	t.Helper()
	var (
		rs  *RunStats
		err error
	)
	const workers = 4
	switch fx.kind {
	case mechCollate:
		if parallel {
			rs, err = r.ParallelCollateData(qs, fx.qq, table, workers)
		} else {
			rs, err = r.CollateData(c, qs, fx.qq, table)
		}
	case mechAggVar:
		if parallel {
			rs, err = r.ParallelAggregateDataInVariable(qs, fx.qq, table, fx.extra, workers)
		} else {
			rs, err = r.AggregateDataInVariable(c, qs, fx.qq, table, fx.extra)
		}
	case mechAggTable:
		if parallel {
			rs, err = r.ParallelAggregateDataInTable(qs, fx.qq, table, fx.extra, workers)
		} else {
			rs, err = r.AggregateDataInTable(c, qs, fx.qq, table, fx.extra)
		}
	case mechIntervals:
		if parallel {
			rs, err = r.ParallelCollateDataIntoIntervals(qs, fx.qq, table, workers)
		} else {
			rs, err = r.CollateDataIntoIntervals(c, qs, fx.qq, table)
		}
	}
	if err != nil {
		t.Fatalf("%s (parallel=%v): %v", fx.kind, parallel, err)
	}
	return rs
}

// Pruned ≡ unpruned: with delta pruning on, every mechanism — sequential
// and parallel, over every Qs order — leaves the same T as with it off
// (both are checked against the never-pruning UDF form), over randomized
// refresh schedules — and actually prunes (the zero-write snapshots
// guarantee empty deltas; a duplicated member is trivially prunable; the
// delta between two members is direction-independent).
func TestDeltaPruneEquivalence(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		r, c := pruneHistory(t, seed, 30)
		makeQsOrders(t, c)
		members := len(queryRows(t, c, `SELECT snap_id FROM SnapIds`))
		for _, from := range qsOrders {
			qs := "SELECT snap_id FROM " + from
			for _, fx := range allFixtures {
				for _, parallel := range []bool{false, true} {
					label := fmt.Sprintf("%s_%s_p%v_s%d", fx.tag(), from, parallel, seed)
					onT, offT := "On_"+label, "Off_"+label

					r.SetDeltaPrune(true)
					prs := runFixture(t, r, c, fx, qs, onT, parallel)
					r.SetDeltaPrune(false)
					urs := runFixture(t, r, c, fx, qs, offT, parallel)
					assertSameResult(t, c, fx, from, onT, offT)

					if prs.PrunedIterations == 0 {
						t.Errorf("%s: pruned run skipped no iterations (reason=%q)", label, prs.PruneReason)
					}
					if from == "QsDup" && !parallel && prs.PrunedIterations < members {
						t.Errorf("%s: pruned %d iterations, want >= %d (every duplicate)", label, prs.PrunedIterations, members)
					}
					if prs.PruneReason != "" {
						t.Errorf("%s: pruning unexpectedly disabled: %s", label, prs.PruneReason)
					}
					if urs.PrunedIterations != 0 || urs.PruneReason == "" {
						t.Errorf("%s: unpruned run stats inconsistent: %+v", label, urs)
					}
					// Pruned iterations must be free of page I/O and carry
					// replayed rows in QqRows.
					for _, it := range prs.Iterations {
						if it.Pruned && (it.PagelogReads != 0 || it.CacheHits != 0 || it.DBReads != 0 || it.MapScanned != 0) {
							t.Errorf("%s: pruned iteration %d did page work: %+v", label, it.Snapshot, it)
						}
					}
				}
			}
		}
		r.SetDeltaPrune(true)
	}
}

// A Qq the analyzer cannot prove prune-safe must run unpruned — and
// say why.
func TestDeltaPruneUnsafeQqFallsBack(t *testing.T) {
	r, c := pruneHistory(t, 52, 8)
	qs := `SELECT snap_id FROM SnapIds`
	cases := []struct {
		qq     string
		reason string
	}{
		{`SELECT AS OF 1 k FROM m`, "AS OF"},
		{`SELECT k FROM m WHERE v < current_snapshot()`, "current_snapshot"},
		{`SELECT snap_id FROM SnapIds`, "non-snapshotable"},
	}
	for i, tc := range cases {
		rs, err := r.CollateData(c, qs, tc.qq, fmt.Sprintf("Unsafe%d", i))
		if err != nil {
			t.Fatalf("%q: %v", tc.qq, err)
		}
		if rs.PrunedIterations != 0 {
			t.Errorf("%q: pruned despite unsafe Qq", tc.qq)
		}
		if !strings.Contains(rs.PruneReason, tc.reason) {
			t.Errorf("%q: reason = %q, want mention of %q", tc.qq, rs.PruneReason, tc.reason)
		}
	}
}

// The analyzer's accept/reject matrix.
func TestPruneInfoAnalyzer(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, v INTEGER)`)
	mustExec(t, c, `CREATE TEMP TABLE side_t (x INTEGER)`)
	db.RegisterFunc(sql.FuncDef{Name: "myudf", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *sql.FuncContext, a []record.Value) (record.Value, error) { return a[0], nil }})

	safe := []string{
		`SELECT k FROM m`,
		`SELECT k, current_snapshot() FROM m`,
		`SELECT round(v, 2), -k % 3 FROM m WHERE k BETWEEN 1 AND 5`,
		`SELECT a.k FROM m a, m b WHERE a.k = b.v`,
		`SELECT COUNT(*), MAX(v) FROM m GROUP BY k HAVING COUNT(*) > 1`,
	}
	for _, q := range safe {
		if info := c.PruneInfo(q); !info.OK {
			t.Errorf("%q rejected: %s", q, info.Reason)
		}
	}
	unsafe := []string{
		`SELECT AS OF 3 k FROM m`,
		`SELECT k FROM m WHERE v = current_snapshot()`,
		`SELECT current_snapshot() + 1 FROM m`,
		`SELECT k FROM side_t`,
		`SELECT myudf(k) FROM m`,
		`SELECT k FROM m; SELECT v FROM m`,
		`INSERT INTO m VALUES (1, 2)`,
		`SELECT k FROM m, side_t WHERE k = x`,
	}
	for _, q := range unsafe {
		if info := c.PruneInfo(q); info.OK {
			t.Errorf("%q accepted, want rejection", q)
		}
	}
	// Snap columns are located for replay re-tagging.
	info := c.PruneInfo(`SELECT k, current_snapshot(), v, current_snapshot() FROM m`)
	if !info.OK || len(info.SnapCols) != 2 || info.SnapCols[0] != 1 || info.SnapCols[1] != 3 {
		t.Errorf("SnapCols = %+v", info)
	}
}

// Runs and views ask the same delta oracle, so over one history with
// quiet snapshots a Go-level run and a retro view of the same
// invocation prune exactly the same snapshots, for every mechanism.
func TestRunsAndViewsPruneAlike(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	// No refresher goroutine: each view catches up in one synchronous
	// REFRESH RETRO VIEW below.
	m, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m)
	db.SetSnapshotHook(m.AnnounceSnapshot)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	const snapshots = 30
	subs := make([]*ViewSub, len(allFixtures))
	for i, fx := range allFixtures {
		mustExec(t, c, fmt.Sprintf(`CREATE RETRO VIEW V%d AS %s`, i, fx.ddl()))
		if subs[i], err = m.Subscribe(fmt.Sprintf("V%d", i), snapshots); err != nil {
			t.Fatal(err)
		}
	}
	viewHistory(t, c, rand.New(rand.NewSource(5)), map[int]bool{}, snapshots)

	for i, fx := range allFixtures {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V%d`, i))
		viewPruned := make(map[uint64]bool)
		for len(subs[i].C) > 0 {
			b := <-subs[i].C
			viewPruned[b.Snap] = b.Pruned
		}
		rs := runFixture(t, r, c, fx, `SELECT snap_id FROM SnapIds`, fmt.Sprintf("R%d", i), false)
		if len(rs.Iterations) != snapshots || len(viewPruned) != snapshots {
			t.Fatalf("%s: run stepped %d snapshots, view %d, want %d each", fx.tag(), len(rs.Iterations), len(viewPruned), snapshots)
		}
		pruned := 0
		for _, it := range rs.Iterations {
			if it.Pruned != viewPruned[it.Snapshot] {
				t.Errorf("%s: snapshot %d: run pruned=%v, view pruned=%v", fx.tag(), it.Snapshot, it.Pruned, viewPruned[it.Snapshot])
			}
			if it.Pruned {
				pruned++
			}
		}
		if pruned == 0 {
			t.Errorf("%s: nothing pruned over a history with quiet snapshots", fx.tag())
		}
	}
}

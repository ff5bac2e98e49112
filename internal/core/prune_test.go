package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rql/internal/record"
	"rql/internal/sql"
)

// pruneHistory builds a randomized RF1/RF2-style refresh history over
// table m, made in shape m, with the shapes that stress delta pruning:
// snapshots with zero intervening writes (empty deltas), back-to-back
// heavy refreshes, and quiet stretches touching only keys outside the
// usual query ranges.
func pruneHistory(t *testing.T, m mTable, seed int64, snapshots int) (*RQL, *sql.Conn) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()
	present := m.create(t, c)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	m.history(t, c, rand.New(rand.NewSource(seed)), present, snapshots)
	return r, c
}

// inRange is a k range over a few of wideM's table leaves. An index
// scan fetches its rows in ascending rowid order, each fetch landing in
// the leaf the previous one held.
const inRange = ` FROM m WHERE k >= 96 AND k < 144`

// rangeFixtures read wideM through its index, over inRange.
var rangeFixtures = []mechFixture{
	{mechCollate, `SELECT k, v, current_snapshot() AS sid` + inRange, "", `SELECT k, v, sid FROM %s`},
	{mechAggVar, `SELECT SUM(v)` + inRange, "sum", `SELECT * FROM %s`},
}

// rangeContent is what rangeFixtures read at snapshot snap.
func rangeContent(t *testing.T, c *sql.Conn, snap uint64) string {
	t.Helper()
	var rows []string
	err := c.ExecAsOf(`SELECT k, v`+inRange, snap, func(_ []string, row []record.Value) error {
		rows = append(rows, fmt.Sprint(row[0].Int(), row[1].Int()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(rows, ";")
}

// assertChangedRangeRuns checks the iterations of a sequential run of a
// range fixture over Qs in ascending order: a member whose range content
// differs from the previous member's read a table leaf that changed, so
// it must run, not be pruned. It fails when the history changed the
// range nowhere, which would leave nothing checked.
func assertChangedRangeRuns(t *testing.T, c *sql.Conn, label string, iters []IterationCost) {
	t.Helper()
	changed := 0
	for i := 1; i < len(iters); i++ {
		if rangeContent(t, c, iters[i].Snapshot) == rangeContent(t, c, iters[i-1].Snapshot) {
			continue
		}
		changed++
		if iters[i].Pruned {
			t.Errorf("%s: snapshot %d changed the range's rows but was pruned", label, iters[i].Snapshot)
		}
	}
	if changed == 0 {
		t.Errorf("%s: the history never changed the range", label)
	}
}

// runMech drives kind's canonical invocation of qq into table.
func runMech(t *testing.T, r *RQL, c *sql.Conn, kind mechKind, qs, qq, table string) *RunStats {
	t.Helper()
	return runFixture(t, r, c, mechFixture{kind: kind, qq: qq, extra: mechExtra[kind]}, qs, table)
}

// runFixture drives one mechanism through the Go-level API into table.
func runFixture(t *testing.T, r *RQL, c *sql.Conn, fx mechFixture, qs, table string) *RunStats {
	t.Helper()
	var (
		rs  *RunStats
		err error
	)
	switch fx.kind {
	case mechCollate:
		rs, err = r.CollateData(c, qs, fx.qq, table)
	case mechAggVar:
		rs, err = r.AggregateDataInVariable(c, qs, fx.qq, table, fx.extra)
	case mechAggTable:
		rs, err = r.AggregateDataInTable(c, qs, fx.qq, table, fx.extra)
	case mechIntervals:
		rs, err = r.CollateDataIntoIntervals(c, qs, fx.qq, table)
	}
	if err != nil {
		t.Fatalf("%s: %v", fx.kind, err)
	}
	return rs
}

// Pruned ≡ unpruned: with delta pruning on, every mechanism, over every
// Qs order, leaves the same T as with it off
// (both are checked against the never-pruning UDF form), over randomized
// refresh schedules — and actually prunes (the zero-write snapshots
// guarantee empty deltas; a duplicated member is trivially prunable; the
// delta between two members is direction-independent). The range
// fixtures over wideM do the same through an index scan whose fetches
// skip re-reading the table leaves they hold, and a member whose range
// changed is never pruned.
func TestDeltaPruneEquivalence(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		pruneEquivalence(t, narrowM, seed, allFixtures)
	}
	for seed := int64(44); seed < 46; seed++ {
		pruneEquivalence(t, wideM, seed, rangeFixtures)
	}
}

func pruneEquivalence(t *testing.T, m mTable, seed int64, fixtures []mechFixture) {
	t.Helper()
	r, c := pruneHistory(t, m, seed, 30)
	makeQsOrders(t, c)
	members := len(queryRows(t, c, `SELECT snap_id FROM SnapIds`))
	for _, from := range qsOrders {
		qs := "SELECT snap_id FROM " + from
		for _, fx := range fixtures {
			label := fmt.Sprintf("%s_%s_s%d", fx.tag(), from, seed)
			onT, offT := "On_"+label, "Off_"+label

			r.SetDeltaPrune(true)
			prs := runFixture(t, r, c, fx, qs, onT)
			r.SetDeltaPrune(false)
			urs := runFixture(t, r, c, fx, qs, offT)
			assertSameResult(t, c, fx, from, onT, offT)

			if prs.PrunedIterations == 0 {
				t.Errorf("%s: pruned run skipped no iterations (reason=%q)", label, prs.PruneReason)
			}
			if from == "QsDup" && prs.PrunedIterations < members {
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
			if m == wideM && from == "SnapIds" {
				assertChangedRangeRuns(t, c, label, prs.Iterations)
			}
		}
	}
	r.SetDeltaPrune(true)
}

// A Qq the analyzer cannot prove prune-safe must run unpruned — and
// say why.
func TestDeltaPruneUnsafeQqFallsBack(t *testing.T) {
	r, c := pruneHistory(t, narrowM, 52, 8)
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
// invocation prune exactly the same snapshots, for every mechanism, and
// for the range fixtures over wideM, read through an index scan that
// lands each fetch in the table leaf it holds.
func TestRunsAndViewsPruneAlike(t *testing.T) {
	runsAndViewsPruneAlike(t, narrowM, 5, allFixtures)
	runsAndViewsPruneAlike(t, wideM, 6, rangeFixtures)
}

func runsAndViewsPruneAlike(t *testing.T, mt mTable, seed int64, fixtures []mechFixture) {
	t.Helper()
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
	present := mt.create(t, c)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	const snapshots = 30
	subs := make([]*ViewSub, len(fixtures))
	for i, fx := range fixtures {
		mustExec(t, c, fmt.Sprintf(`CREATE RETRO VIEW V%d AS %s`, i, fx.ddl()))
		if subs[i], err = m.Subscribe(fmt.Sprintf("V%d", i), snapshots); err != nil {
			t.Fatal(err)
		}
	}
	mt.history(t, c, rand.New(rand.NewSource(seed)), present, snapshots)

	for i, fx := range fixtures {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V%d`, i))
		viewPruned := make(map[uint64]bool)
		for len(subs[i].C) > 0 {
			b := <-subs[i].C
			viewPruned[b.Snap] = b.Pruned
		}
		rs := runFixture(t, r, c, fx, `SELECT snap_id FROM SnapIds`, fmt.Sprintf("R%d", i))
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
		if mt == wideM {
			assertChangedRangeRuns(t, c, fx.tag(), rs.Iterations)
		}
	}
}

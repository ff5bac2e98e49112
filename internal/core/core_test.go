package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/sql"
)

// fixture builds the paper's LoggedIn example (Figures 1-3): three
// snapshots of a login table.
func fixture(t *testing.T) (*RQL, *sql.Conn) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()

	mustExec(t, c, `CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}

	ts := time.Date(2008, 11, 9, 23, 59, 59, 0, time.UTC)
	declare := func(day int) {
		t.Helper()
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, ts.AddDate(0, 0, day), ""); err != nil {
			t.Fatal(err)
		}
	}

	// S1: A, B, C logged in.
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO LoggedIn VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	declare(0)
	// S2: A logs out; C's time refreshed per Figure 1b.
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `DELETE FROM LoggedIn WHERE l_userid = 'UserA'`)
	mustExec(t, c, `UPDATE LoggedIn SET l_time = '2008-11-09 21:33:12' WHERE l_userid = 'UserC'`)
	declare(1)
	// S3: D logs in.
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO LoggedIn VALUES ('UserD', '2008-11-11 10:08:04', 'UK')`)
	declare(2)
	return r, c
}

func mustExec(t testing.TB, c *sql.Conn, sqlText string, params ...record.Value) {
	t.Helper()
	if err := c.Exec(sqlText, nil, params...); err != nil {
		t.Fatalf("Exec(%q): %v", sqlText, err)
	}
}

func queryRows(t *testing.T, c *sql.Conn, sqlText string) []string {
	t.Helper()
	rows, err := c.Query(sqlText)
	if err != nil {
		t.Fatalf("Query(%q): %v", sqlText, err)
	}
	var out []string
	for _, r := range rows.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func expectSet(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	seen := map[string]int{}
	for _, g := range got {
		seen[g]++
	}
	for _, w := range want {
		if seen[w] == 0 {
			t.Fatalf("missing %q in %v", w, got)
		}
		seen[w]--
	}
}

func TestSnapIdsTable(t *testing.T) {
	_, c := fixture(t)
	expectSet(t, queryRows(t, c, `SELECT snap_id, snap_ts FROM SnapIds`),
		"1|2008-11-09 23:59:59", "2|2008-11-10 23:59:59", "3|2008-11-11 23:59:59")
}

// The paper's §2.1 example: collect all user ids with the snapshot they
// appear in.
func TestCollateData(t *testing.T) {
	r, c := fixture(t)
	stats, err := r.CollateData(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn`,
		"Result")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_userid, sid FROM Result`),
		"UserA|1", "UserB|1", "UserC|1",
		"UserB|2", "UserC|2",
		"UserB|3", "UserC|3", "UserD|3")
	if len(stats.Iterations) != 3 {
		t.Errorf("iterations = %d", len(stats.Iterations))
	}
	if got := stats.Total().ResultInserts; got != 8 {
		t.Errorf("ResultInserts = %d, want 8", got)
	}
	if stats.ResultRows != 8 {
		t.Errorf("ResultRows = %d, want 8", stats.ResultRows)
	}
	if stats.ResultDataBytes == 0 {
		t.Error("ResultDataBytes not measured")
	}
}

// The SQL-UDF form of the same computation (paper §3).
func TestCollateDataViaSQLUDF(t *testing.T) {
	r, c := fixture(t)
	mustExec(t, c, `SELECT CollateData(snap_id,
		'SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn',
		'Result') FROM SnapIds`)
	expectSet(t, queryRows(t, c, `SELECT COUNT(*) FROM Result`), "8")
	if r.LastRun() == nil || len(r.LastRun().Iterations) != 3 {
		t.Errorf("LastRun not recorded: %+v", r.LastRun())
	}
}

// Qs can restrict and order the snapshot set.
func TestQsSubsets(t *testing.T) {
	r, c := fixture(t)
	_, err := r.CollateData(c,
		`SELECT snap_id FROM SnapIds WHERE snap_id >= 2`,
		`SELECT DISTINCT l_userid FROM LoggedIn`,
		"R2")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT COUNT(*) FROM R2`), "5")
}

// §2.2 example 1: count the snapshots in which UserB is logged in.
func TestAggregateDataInVariableSum(t *testing.T) {
	r, c := fixture(t)
	stats, err := r.AggregateDataInVariable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT 1 FROM LoggedIn WHERE l_userid = 'UserB'`,
		"Result", "sum")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT * FROM Result`), "3")
	if stats.ResultRows != 1 {
		t.Errorf("ResultRows = %d", stats.ResultRows)
	}
}

// §2.2 example 2: the first snapshot in which UserD appears.
func TestAggregateDataInVariableMin(t *testing.T) {
	r, c := fixture(t)
	_, err := r.AggregateDataInVariable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserD'`,
		"Result", "min")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT * FROM Result`), "3")
}

func TestAggregateDataInVariableAvgAndOthers(t *testing.T) {
	r, c := fixture(t)
	cases := []struct {
		agg  string
		want string
	}{
		{"avg", "2.6666666666666665"}, // counts per snapshot: 3, 2, 3
		{"max", "3"},
		{"min", "2"},
		{"sum", "8"},
		{"count", "8"}, // count combines by summation across snapshots
	}
	for i, tc := range cases {
		tbl := fmt.Sprintf("R_%s_%d", tc.agg, i)
		_, err := r.AggregateDataInVariable(c,
			`SELECT snap_id FROM SnapIds`,
			`SELECT COUNT(*) FROM LoggedIn`,
			tbl, tc.agg)
		if err != nil {
			t.Fatalf("%s: %v", tc.agg, err)
		}
		got := queryRows(t, c, `SELECT * FROM `+tbl)
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: got %v, want %s", tc.agg, got, tc.want)
		}
	}
}

func TestAggregateDataInVariableErrors(t *testing.T) {
	r, c := fixture(t)
	// Multi-row Qq is rejected.
	if _, err := r.AggregateDataInVariable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R", "min"); err == nil {
		t.Error("multi-row Qq should fail")
	}
	// Multi-column Qq is rejected.
	if _, err := r.AggregateDataInVariable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_userid, l_time FROM LoggedIn`, "R2", "min"); err == nil {
		t.Error("multi-column Qq should fail")
	}
	// Unknown aggregate.
	if _, err := r.AggregateDataInVariable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT COUNT(*) FROM LoggedIn`, "R3", "median"); err == nil {
		t.Error("unknown aggregate should fail")
	}
}

// §2.3 example 1: first login time per user.
func TestAggregateDataInTableMin(t *testing.T) {
	r, c := fixture(t)
	stats, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT l_userid, l_time FROM LoggedIn`,
		"Result", "(l_time,min)")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_userid, l_time FROM Result`),
		"UserA|2008-11-09 13:23:44",
		"UserB|2008-11-09 15:45:21",
		"UserC|2008-11-09 15:45:21", // the min over C's two times
		"UserD|2008-11-11 10:08:04")
	tot := stats.Total()
	if tot.ResultSearch == 0 {
		t.Error("hot iterations should search the result table")
	}
	if stats.ResultIndexBytes == 0 {
		t.Error("the result index footprint should be measured")
	}
}

// §2.3 example 2: max simultaneous logins per country.
func TestAggregateDataInTableMaxCount(t *testing.T) {
	r, c := fixture(t)
	_, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`,
		"Result", "(c,max)")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_country, c FROM Result`),
		"USA|2", "UK|2")
}

// Multiple aggregations in one pass (Figure 11's second aggregation),
// accepting the paper's reversed "(MAX,cn)" pair order.
func TestAggregateDataInTableMultipleAggs(t *testing.T) {
	r, c := fixture(t)
	_, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS cn, AVG(rowid % 3) AS av
		 FROM LoggedIn GROUP BY l_country`,
		"Result", "(MAX,cn):(av,max)")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_country, cn FROM Result`),
		"USA|2", "UK|2")
}

// AVG across snapshots (the paper's non-monoid special case).
func TestAggregateDataInTableAvg(t *testing.T) {
	r, c := fixture(t)
	_, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`,
		"Result", "(c,avg)")
	if err != nil {
		t.Fatal(err)
	}
	// USA counts per snapshot: 2, 1, 1 -> avg 4/3; UK: 1, 1, 2 -> 4/3.
	rows := queryRows(t, c, `SELECT l_country, c FROM Result`)
	for _, row := range rows {
		if !strings.HasSuffix(row, "1.3333333333333333") {
			t.Errorf("unexpected avg row %q", row)
		}
	}
	if len(rows) != 2 {
		t.Errorf("rows: %v", rows)
	}
}

// Equivalence (paper §2.3): AggregateDataInTable computes what
// CollateData + a SQL aggregation computes, with a smaller footprint.
func TestAggTableEquivalentToCollatePlusSQL(t *testing.T) {
	r, c := fixture(t)
	aggStats, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`,
		"AggResult", "(c,max)")
	if err != nil {
		t.Fatal(err)
	}
	collStats, err := r.CollateData(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`,
		"CollResult")
	if err != nil {
		t.Fatal(err)
	}
	a := queryRows(t, c, `SELECT l_country, MAX(c) FROM AggResult GROUP BY l_country ORDER BY l_country`)
	b := queryRows(t, c, `SELECT l_country, MAX(c) FROM CollResult GROUP BY l_country ORDER BY l_country`)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Errorf("AggT %v != CollateData+SQL %v", a, b)
	}
	if aggStats.ResultRows >= collStats.ResultRows {
		t.Errorf("AggT result (%d rows) should be smaller than CollateData result (%d rows)",
			aggStats.ResultRows, collStats.ResultRows)
	}
}

// §2.4 example: the interval during which each user was logged in.
func TestCollateDataIntoIntervals(t *testing.T) {
	r, c := fixture(t)
	stats, err := r.CollateDataIntoIntervals(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`,
		"Result")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_userid, start_snapshot, end_snapshot FROM Result`),
		"UserA|1|1",
		"UserB|1|3",
		"UserC|1|3",
		"UserD|3|3")
	if stats.ResultRows != 4 {
		t.Errorf("ResultRows = %d", stats.ResultRows)
	}
}

// A record that disappears and reappears gets two interval rows.
func TestIntervalsReappearance(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE t (u TEXT)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	step := func(stmts string) {
		t.Helper()
		mustExec(t, c, `BEGIN`)
		if stmts != "" {
			mustExec(t, c, stmts)
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, time.Unix(0, 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	step(`INSERT INTO t VALUES ('x')`) // S1: present
	step(`DELETE FROM t`)              // S2: absent
	step(`INSERT INTO t VALUES ('x')`) // S3: present again
	step(``)                           // S4: still present

	if _, err := r.CollateDataIntoIntervals(c,
		`SELECT snap_id FROM SnapIds`, `SELECT u FROM t`, "R"); err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT u, start_snapshot, end_snapshot FROM R`),
		"x|1|1", "x|3|4")
}

// Skipping snapshots in Qs breaks interval continuity on purpose: the
// lifetime lookup matches only records alive in the previous iteration.
func TestIntervalsWithSkippedSnapshots(t *testing.T) {
	r, c := fixture(t)
	_, err := r.CollateDataIntoIntervals(c,
		`SELECT snap_id FROM SnapIds WHERE snap_id != 2`,
		`SELECT l_userid FROM LoggedIn`,
		"R")
	if err != nil {
		t.Fatal(err)
	}
	expectSet(t, queryRows(t, c, `SELECT l_userid, start_snapshot, end_snapshot FROM R`),
		"UserA|1|1", "UserB|1|3", "UserC|1|3", "UserD|3|3")
}

func TestMechanismArgErrors(t *testing.T) {
	r, c := fixture(t)
	if _, err := r.AggregateDataInTable(c, `SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R", "(nope,max)"); err == nil {
		t.Error("unknown pair column should fail")
	}
	if _, err := r.AggregateDataInTable(c, `SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R", "(l_userid,max)"); err == nil {
		t.Error("aggregating every column should fail")
	}
	if _, err := r.AggregateDataInTable(c, `SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R", "bogus"); err == nil {
		t.Error("bad pair syntax should fail")
	}
	if _, err := r.CollateData(c, `SELECT snap_id, snap_ts FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R"); err == nil {
		t.Error("multi-column Qs should fail")
	}
	if _, err := r.CollateData(c, `SELECT snap_id FROM SnapIds`,
		`SELECT nope FROM LoggedIn`, "R"); err == nil {
		t.Error("bad Qq should fail")
	}
	// A failed run must not leave a committed result table behind...
	// (the result table may exist but must be empty or absent).
	rows, err := c.Query(`SELECT COUNT(*) FROM R`)
	if err == nil && rows.Rows[0][0].Int() != 0 {
		t.Errorf("failed run left %v rows in R", rows.Rows[0][0])
	}
}

func TestIterationCostBreakdown(t *testing.T) {
	r, c := fixture(t)
	stats, err := r.CollateData(c,
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_userid FROM LoggedIn`, "R")
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range stats.Iterations {
		if it.Snapshot != uint64(i+1) {
			t.Errorf("iteration %d snapshot %d", i, it.Snapshot)
		}
		if it.QqRows == 0 {
			t.Errorf("iteration %d: no Qq rows", i)
		}
		if it.UDF <= 0 {
			t.Errorf("iteration %d: UDF time not measured", i)
		}
		if it.Total() <= 0 {
			t.Errorf("iteration %d: total cost not positive", i)
		}
	}
	cold, hot := stats.Cold(), stats.Hot()
	if cold.Snapshot != 1 {
		t.Errorf("cold iteration: %+v", cold)
	}
	if hot.QqRows == 0 {
		t.Errorf("hot average: %+v", hot)
	}
}

func TestRewrite(t *testing.T) {
	got, err := Rewrite(
		`SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserB'`, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT AS OF 7 DISTINCT 7 FROM LoggedIn WHERE l_userid = 'UserB'`
	if got != want {
		t.Errorf("Rewrite = %q, want %q", got, want)
	}

	// Inside string literals nothing is touched.
	got, err = Rewrite(`SELECT 'current_snapshot() select' FROM t`, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `'current_snapshot() select'`) {
		t.Errorf("string literal was rewritten: %q", got)
	}
	if !strings.HasPrefix(got, "SELECT AS OF 3 ") {
		t.Errorf("AS OF not inserted: %q", got)
	}

	// Spacing variants of the call.
	got, _ = Rewrite(`SELECT current_snapshot ( ) FROM t`, 5)
	if !strings.Contains(got, "SELECT AS OF 5 5 FROM t") {
		t.Errorf("spaced call not rewritten: %q", got)
	}

	if _, err := Rewrite(`UPDATE t SET a = 1`, 1); err == nil {
		t.Error("non-SELECT should fail")
	}
}

// The textual rewrite (paper §3) and the ExecAsOf binding produce
// identical results.
func TestRewriteEquivalentToExecAsOf(t *testing.T) {
	_, c := fixture(t)
	qq := `SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn`
	for snap := uint64(1); snap <= 3; snap++ {
		rewritten, err := Rewrite(qq, snap)
		if err != nil {
			t.Fatal(err)
		}
		a := queryRows(t, c, rewritten)
		var b []string
		err = c.ExecAsOf(qq, snap, func(cols []string, row []record.Value) error {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			b = append(b, strings.Join(parts, "|"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(a, ";") != strings.Join(b, ";") {
			t.Errorf("snap %d: rewrite %v != binding %v", snap, a, b)
		}
	}
}

func TestMonoidLaws(t *testing.T) {
	vals := []record.Value{
		record.Null(), record.Int(-3), record.Int(0), record.Int(7),
		record.Float(2.5), record.Float(-1.25),
	}
	for _, m := range []*Monoid{MonoidMin, MonoidMax, MonoidSum, MonoidCount} {
		for _, a := range vals {
			// Identity.
			if record.Compare(m.Combine(a, m.Identity), a) != 0 && !a.IsNull() {
				t.Errorf("%s: identity law fails for %v", m.Name, a)
			}
			for _, b := range vals {
				// Commutativity.
				ab := m.Combine(a, b)
				ba := m.Combine(b, a)
				if record.Compare(ab, ba) != 0 {
					t.Errorf("%s: commutativity fails for %v,%v", m.Name, a, b)
				}
				for _, cv := range vals {
					// Associativity.
					l := m.Combine(m.Combine(a, b), cv)
					r := m.Combine(a, m.Combine(b, cv))
					if record.Compare(l, r) != 0 {
						t.Errorf("%s: associativity fails for %v,%v,%v", m.Name, a, b, cv)
					}
				}
			}
		}
	}
	// AVG is deliberately not a monoid.
	defer func() {
		if recover() == nil {
			t.Error("avg sentinel Op should panic")
		}
	}()
	monoidAvgSentinel.Op(record.Int(1), record.Int(2))
}

func TestDeclareSnapshotHelper(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE t (a)`)
	id, err := DeclareSnapshot(c, time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC), "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("snapshot id = %d", id)
	}
	expectSet(t, queryRows(t, c, `SELECT snap_id, label FROM SnapIds`), "1|baseline")
}

// The §3 ablation: the sort-merge AggregateDataInTable variant computes
// the same result as the index-based mechanism.
func TestSortMergeAggTableEquivalence(t *testing.T) {
	r, c := fixture(t)
	qq := `SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`
	if _, err := r.AggregateDataInTable(c,
		`SELECT snap_id FROM SnapIds`, qq, "IdxR", "(c,max)"); err != nil {
		t.Fatal(err)
	}
	sm, err := r.AggregateDataInTableSortMerge(c,
		`SELECT snap_id FROM SnapIds`, qq, "SmR", "(c,max)")
	if err != nil {
		t.Fatal(err)
	}
	a := queryRows(t, c, `SELECT l_country, c FROM IdxR ORDER BY l_country`)
	b := queryRows(t, c, `SELECT l_country, c FROM SmR ORDER BY l_country`)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Errorf("sort-merge %v != index-based %v", b, a)
	}
	if len(sm.Iterations) != 3 || !strings.Contains(sm.Mechanism, "sort-merge") {
		t.Errorf("sort-merge stats: %+v", sm)
	}
	// The rewrite makes hot iterations carry inserts+updates of the
	// whole table.
	hot := sm.Iterations[len(sm.Iterations)-1]
	if hot.ResultInserts+hot.ResultUpdates == 0 {
		t.Error("sort-merge hot iteration did no result work")
	}
}

func TestSortMergeAvg(t *testing.T) {
	r, c := fixture(t)
	qq := `SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country`
	if _, err := r.AggregateDataInTableSortMerge(c,
		`SELECT snap_id FROM SnapIds`, qq, "SmAvg", "(c,avg)"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, c, `SELECT l_country, c FROM SmAvg`)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	for _, row := range rows {
		if !strings.HasSuffix(row, "1.3333333333333333") {
			t.Errorf("unexpected avg row %q", row)
		}
	}
}

// TestSumMonoidPromotesOnOverflow: combining integer partial sums or
// counts whose total does not fit in 64 bits gives REAL, not a wrapped
// integer — in the monoid and in AggregateDataInVariable's result.
func TestSumMonoidPromotesOnOverflow(t *testing.T) {
	const maxInt = int64(9223372036854775807)
	for _, tc := range []struct {
		m    *Monoid
		a, b record.Value
		want string
	}{
		{MonoidSum, record.Int(maxInt), record.Int(1), "9.223372036854776e+18 REAL"},
		{MonoidSum, record.Int(-maxInt - 1), record.Int(-1), "-9.223372036854776e+18 REAL"},
		{MonoidCount, record.Int(maxInt), record.Int(maxInt), "1.8446744073709552e+19 REAL"},
		{MonoidSum, record.Int(maxInt - 1), record.Int(1), "9223372036854775807 INTEGER"},
		{MonoidSum, record.Int(-maxInt), record.Int(-1), "-9223372036854775808 INTEGER"},
		{MonoidSum, record.Int(maxInt), record.Float(1), "9.223372036854776e+18 REAL"},
	} {
		v := tc.m.Combine(tc.a, tc.b)
		if got := fmt.Sprintf("%v %v", v, v.Type()); got != tc.want {
			t.Errorf("%s(%v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}

	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE big (a INTEGER)`)
	for _, a := range []int64{maxInt, 1} {
		mustExec(t, c, `DELETE FROM big`)
		mustExec(t, c, `INSERT INTO big VALUES (?)`, record.Int(a))
		if _, err := DeclareSnapshot(c, time.Unix(0, 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, form := range []string{"go", "udf"} {
		table := "sum_" + form
		if form == "go" {
			_, err = r.AggregateDataInVariable(c, `SELECT snap_id FROM SnapIds`, `SELECT a FROM big`, table, "sum")
		} else {
			err = c.Exec(`SELECT AggregateDataInVariable(snap_id, 'SELECT a FROM big', '`+table+`', 'sum') FROM SnapIds`, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query(`SELECT * FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		if v := rows.Rows[0][0]; v.Type() != record.TypeFloat || v.Float() != 9.223372036854775808e18 {
			t.Errorf("%s: AggregateDataInVariable sum = %v (%v), want REAL 9.223372036854776e+18", form, v, v.Type())
		}
	}
}

package sql

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rql/internal/record"
	"rql/internal/retro"
)

func testConn(t *testing.T) *Conn {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// Every suite built on testConn runs with scan buffers poisoned
	// between rows: a result that depends on a row kept without a copy,
	// or on a column the planner did not mark as read, comes out wrong.
	db.poisonScans = true
	return db.Conn()
}

// mustExec runs statements, failing the test on error.
func mustExec(t *testing.T, c *Conn, sql string, params ...record.Value) {
	t.Helper()
	if err := c.Exec(sql, nil, params...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

// q runs a query and renders each row as "v1|v2|...".
func q(t *testing.T, c *Conn, sql string, params ...record.Value) []string {
	t.Helper()
	rows, err := c.Query(sql, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	out := make([]string, 0, len(rows.Rows))
	for _, r := range rows.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func expectRows(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// expectSet compares rows ignoring order.
func expectSet(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	set := make(map[string]int)
	for _, g := range got {
		set[g]++
	}
	for _, w := range want {
		if set[w] == 0 {
			t.Fatalf("missing row %q in %v", w, got)
		}
		set[w]--
	}
}

func TestCreateInsertSelect(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER)`)
	mustExec(t, c, `INSERT INTO users (name, age) VALUES ('alice', 30), ('bob', 25)`)
	expectRows(t, q(t, c, `SELECT id, name, age FROM users ORDER BY id`),
		"1|alice|30", "2|bob|25")
	expectRows(t, q(t, c, `SELECT name FROM users WHERE age > 26`), "alice")
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM users`), "2")
}

func TestSelectStar(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE p (a, b)`)
	mustExec(t, c, `INSERT INTO p VALUES (1, 'x')`)
	expectRows(t, q(t, c, `SELECT * FROM p`), "1|x")
	expectRows(t, q(t, c, `SELECT p.* FROM p`), "1|x")
	expectRows(t, q(t, c, `SELECT rowid, * FROM p`), "1|1|x")
}

func TestExpressions(t *testing.T) {
	c := testConn(t)
	cases := map[string]string{
		`SELECT 1 + 2 * 3`:             "7",
		`SELECT (1 + 2) * 3`:           "9",
		`SELECT 10 / 4`:                "2",
		`SELECT 10.0 / 4`:              "2.5",
		`SELECT 7 % 3`:                 "1",
		`SELECT 1 / 0`:                 "NULL",
		`SELECT -5`:                    "-5",
		`SELECT 1 < 2`:                 "1",
		`SELECT 2 <= 1`:                "0",
		`SELECT 'abc' = 'abc'`:         "1",
		`SELECT 1 != 2`:                "1",
		`SELECT 1 <> 2`:                "1",
		`SELECT NULL IS NULL`:          "1",
		`SELECT 1 IS NOT NULL`:         "1",
		`SELECT NULL = NULL`:           "NULL",
		`SELECT 2 BETWEEN 1 AND 3`:     "1",
		`SELECT 4 NOT BETWEEN 1 AND 3`: "1",
		`SELECT 2 IN (1, 2, 3)`:        "1",
		`SELECT 5 NOT IN (1, 2, 3)`:    "1",
		`SELECT round(2.567, 2)`:       "2.57",
		`SELECT NOT 0`:                 "1",
		`SELECT 1 AND 1`:               "1",
		`SELECT 0 OR 1`:                "1",
		`SELECT NULL AND 0`:            "0",
		`SELECT NULL OR 1`:             "1",
		`SELECT NULL AND 1`:            "NULL",
		`SELECT TRUE`:                  "1",
		`SELECT FALSE`:                 "0",
		// % computes on the operands cast to integers, as SQLite does:
		// a divisor that casts to 0 yields NULL, not a divide-by-zero.
		`SELECT 5 % 0.5`:  "NULL",
		`SELECT 5 % -0.9`: "NULL",
		`SELECT 5.5 % 0`:  "NULL",
		`SELECT 7 % 2.5`:  "1",
		`SELECT -7.5 % 2`: "-1",
		`SELECT 7 % -3`:   "1",
	}
	for sql, want := range cases {
		got := q(t, c, sql)
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %q", sql, got, want)
		}
	}
}

func TestParams(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (?, ?)`, record.Int(5), record.Text("five"))
	expectRows(t, q(t, c, `SELECT b FROM t WHERE a = ?`, record.Int(5)), "five")
	if err := c.Exec(`SELECT ? + 1`, nil); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestUpdateDelete(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	mustExec(t, c, `UPDATE t SET b = 'TWO', a = a * 10 WHERE a = 2`)
	expectSet(t, q(t, c, `SELECT a, b FROM t`), "1|one", "20|TWO", "3|three")
	mustExec(t, c, `DELETE FROM t WHERE a >= 3`)
	expectSet(t, q(t, c, `SELECT a FROM t`), "1")
	mustExec(t, c, `DELETE FROM t`)
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t`), "0")
}

func TestGroupByAggregates(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE sales (region TEXT, amount INTEGER)`)
	mustExec(t, c, `INSERT INTO sales VALUES
		('east', 10), ('east', 20), ('west', 5), ('west', 7), ('west', 9)`)
	expectSet(t, q(t, c, `SELECT region, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount)
		FROM sales GROUP BY region`),
		"east|2|30|10|20|15", "west|3|21|5|9|7")
	expectRows(t, q(t, c, `SELECT region, SUM(amount) AS s FROM sales GROUP BY region HAVING s > 25`),
		"east|30")
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM sales WHERE amount > 100`), "0")
	expectRows(t, q(t, c, `SELECT SUM(amount) FROM sales WHERE amount > 100`), "NULL")
	expectRows(t, q(t, c, `SELECT COUNT(DISTINCT region) FROM sales`), "2")
}

func TestBareColumnWithMinMax(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (k, v)`)
	mustExec(t, c, `INSERT INTO t VALUES ('a', 1), ('b', 9), ('c', 4)`)
	// SQLite semantics: the bare column comes from the row that holds
	// the extreme.
	expectRows(t, q(t, c, `SELECT k, MAX(v) FROM t`), "b|9")
	expectRows(t, q(t, c, `SELECT k, MIN(v) FROM t`), "a|1")
}

func TestOrderByLimit(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b')`)
	expectRows(t, q(t, c, `SELECT a FROM t ORDER BY a`), "1", "2", "3")
	expectRows(t, q(t, c, `SELECT a FROM t ORDER BY a DESC`), "3", "2", "1")
	expectRows(t, q(t, c, `SELECT a FROM t ORDER BY 1 DESC LIMIT 2`), "3", "2")
	expectRows(t, q(t, c, `SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 1`), "2")
	expectRows(t, q(t, c, `SELECT b FROM t ORDER BY a`), "a", "b", "c")
	// ORDER BY an alias.
	expectRows(t, q(t, c, `SELECT a * 10 AS x FROM t ORDER BY x`), "10", "20", "30")
	// ORDER BY a column not in the projection.
	expectRows(t, q(t, c, `SELECT b FROM t ORDER BY a DESC`), "c", "b", "a")
}

func TestDistinct(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'x'), (1, 'x'), (2, 'y'), (1, 'z')`)
	expectSet(t, q(t, c, `SELECT DISTINCT a, b FROM t`), "1|x", "2|y", "1|z")
	expectSet(t, q(t, c, `SELECT DISTINCT a FROM t`), "1", "2")
}

func TestJoins(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE dept (id INTEGER PRIMARY KEY, dname TEXT)`)
	mustExec(t, c, `CREATE TABLE emp (name TEXT, dept_id INTEGER)`)
	mustExec(t, c, `INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')`)
	mustExec(t, c, `INSERT INTO emp VALUES ('ann', 1), ('ben', 1), ('cal', 2), ('dee', NULL)`)

	// Comma join with WHERE (the paper's Qq_cpu shape).
	expectSet(t, q(t, c, `SELECT name, dname FROM emp, dept WHERE dept_id = id`),
		"ann|eng", "ben|eng", "cal|ops")
	// Qualified columns and aliases.
	expectSet(t, q(t, c, `SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.id AND d.id = 1`),
		"ann|eng", "ben|eng")
	// Three-way self-join, each table joined by an equality.
	expectSet(t, q(t, c, `SELECT a.name, b.name FROM emp a, dept, emp b
		WHERE a.dept_id = dept.id AND b.dept_id = dept.id AND a.name < b.name`), "ann|ben")
	// A table no equality joins to the tables before it is a plan error:
	// the dialect has no cross join.
	for _, sql := range []string{
		`SELECT COUNT(*) FROM emp a, emp b, dept`,
		`SELECT name FROM emp, dept WHERE dept_id < id`,
	} {
		if err := c.Exec(sql, nil); err == nil || !strings.Contains(err.Error(), "no equality condition") {
			t.Errorf("%s: %v, want a plan error", sql, err)
		}
	}
}

func TestJoinUsesNativeIndex(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE big (k INTEGER, payload TEXT)`)
	mustExec(t, c, `CREATE INDEX big_k ON big (k)`)
	mustExec(t, c, `CREATE TABLE probe (k INTEGER)`)
	for i := 0; i < 50; i++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO big VALUES (%d, 'p%d')`, i, i))
	}
	mustExec(t, c, `INSERT INTO probe VALUES (7), (13)`)
	expectSet(t, q(t, c, `SELECT payload FROM probe, big WHERE probe.k = big.k`), "p7", "p13")
	// The native-index path must not record auto-index time.
	if c.LastStats().AutoIndex != 0 {
		t.Errorf("native index join recorded AutoIndex=%v", c.LastStats().AutoIndex)
	}

	// Without the index, the transient index (hash) path is used and timed.
	mustExec(t, c, `DROP INDEX big_k`)
	expectSet(t, q(t, c, `SELECT payload FROM probe, big WHERE probe.k = big.k`), "p7", "p13")
	if c.LastStats().AutoIndex == 0 {
		t.Errorf("auto-index join did not record AutoIndex time")
	}
}

func TestIndexedPointAndRangeScans(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b TEXT)`)
	mustExec(t, c, `CREATE INDEX t_a ON t (a)`)
	for i := 0; i < 100; i++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d')`, i, i))
	}
	expectRows(t, q(t, c, `SELECT b FROM t WHERE a = 42`), "v42")
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t WHERE a >= 90`), "10")
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t WHERE a > 90`), "9")
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t WHERE a < 10 AND a >= 5`), "5")
	expectRows(t, q(t, c, `SELECT b FROM t WHERE a = -1`))
}

func TestUniqueIndex(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `CREATE UNIQUE INDEX t_a ON t (a)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'x')`)
	err := c.Exec(`INSERT INTO t VALUES (1, 'y')`, nil)
	if !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("duplicate insert: %v", err)
	}
	// The failed statement must not leave partial state.
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t`), "1")
	mustExec(t, c, `INSERT INTO t VALUES (2, 'y')`)
}

// TestUniqueIndexLongFormRowid: a rowid at or beyond 2^53 is encoded in
// an index key's 18-byte long form, not the 10 bytes of a smaller one.
// The unique check, the index access paths and the index join must all
// find where it starts.
func TestUniqueIndexLongFormRowid(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE u (id INTEGER PRIMARY KEY, x INTEGER)`)
	mustExec(t, c, `CREATE UNIQUE INDEX ux ON u (x)`)
	mustExec(t, c, `INSERT INTO u VALUES (5, 7)`)
	if err := c.Exec(`INSERT INTO u VALUES (1152921504606846976, 7)`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("duplicate under a 2^60 rowid: %v", err)
	}
	mustExec(t, c, `INSERT INTO u VALUES (1152921504606846976, 8)`)
	mustExec(t, c, `INSERT INTO u VALUES (-1152921504606846976, 9)`)
	if err := c.Exec(`INSERT INTO u VALUES (6, 8)`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("duplicate of a key held under a 2^60 rowid: %v", err)
	}
	if err := c.Exec(`UPDATE u SET x = 7 WHERE id = -1152921504606846976`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("update onto an existing key under a -2^60 rowid: %v", err)
	}
	mustExec(t, c, `CREATE TABLE v (x INTEGER)`)
	mustExec(t, c, `INSERT INTO v VALUES (9), (8)`)
	for _, tc := range []struct {
		sql, plan string
		want      []string
	}{
		{`SELECT id FROM u WHERE x = 8`, "USING INDEX", []string{"1152921504606846976"}},
		{`SELECT id, x FROM u WHERE x >= 8 ORDER BY x`, "USING INDEX", []string{"1152921504606846976|8", "-1152921504606846976|9"}},
		{`SELECT v.x, u.id FROM v, u WHERE v.x = u.x ORDER BY v.x`, "NATIVE INDEX", []string{"8|1152921504606846976", "9|-1152921504606846976"}},
	} {
		if plan := strings.Join(q(t, c, "EXPLAIN "+tc.sql), "\n"); !strings.Contains(plan, tc.plan) {
			t.Errorf("%s: plan does not use the index:\n%s", tc.sql, plan)
		}
		expectRows(t, q(t, c, tc.sql), tc.want...)
	}
}

func TestPrimaryKeys(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT PRIMARY KEY)`)
	mustExec(t, c, `INSERT INTO t VALUES (10, 'a')`)
	mustExec(t, c, `INSERT INTO t (name) VALUES ('b')`)
	expectSet(t, q(t, c, `SELECT id, name FROM t`), "10|a", "11|b")
	if err := c.Exec(`INSERT INTO t VALUES (10, 'c')`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("duplicate rowid alias: %v", err)
	}
	if err := c.Exec(`INSERT INTO t VALUES (12, 'a')`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("duplicate text pk: %v", err)
	}
}

func TestNotNull(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a TEXT NOT NULL)`)
	if err := c.Exec(`INSERT INTO t VALUES (NULL)`, nil); !errors.Is(err, ErrNotNull) {
		t.Errorf("NULL into NOT NULL: %v", err)
	}
}

func TestAffinity(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (i INTEGER, r REAL, s TEXT)`)
	mustExec(t, c, `INSERT INTO t VALUES ('42', '2.5', 99)`)
	// Integer division shows i is an integer, r / 2 that r is real, and
	// the comparison that s stayed text.
	expectRows(t, q(t, c, `SELECT i / 5, r / 2, s = '99', s = 99 FROM t`), "8|1.25|1|0")
}

func TestDropTable(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	mustExec(t, c, `CREATE INDEX t_a ON t (a)`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	mustExec(t, c, `DROP TABLE t`)
	if err := c.Exec(`SELECT * FROM t`, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("select from dropped table: %v", err)
	}
	mustExec(t, c, `DROP TABLE IF EXISTS t`)
	if err := c.Exec(`DROP TABLE t`, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("drop missing table: %v", err)
	}
	// Name can be reused.
	mustExec(t, c, `CREATE TABLE t (x)`)
	mustExec(t, c, `INSERT INTO t VALUES (9)`)
	expectRows(t, q(t, c, `SELECT x FROM t`), "9")
}

func TestInsertFromSelect(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE a (x)`)
	mustExec(t, c, `CREATE TABLE b (x)`)
	mustExec(t, c, `INSERT INTO a VALUES (1), (2)`)
	mustExec(t, c, `INSERT INTO b SELECT x * 100 FROM a`)
	expectSet(t, q(t, c, `SELECT x FROM b`), "100", "200")
	// Self-referencing insert materializes the source first.
	mustExec(t, c, `INSERT INTO a SELECT x FROM a`)
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM a`), "4")
}

func TestTempTablesShadowAndDoNotSnapshot(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	mustExec(t, c, `INSERT INTO t VALUES ('main')`)
	mustExec(t, c, `CREATE TEMP TABLE t2 (a)`)
	mustExec(t, c, `INSERT INTO t2 VALUES ('temp')`)
	expectRows(t, q(t, c, `SELECT a FROM t2`), "temp")

	// Declare a snapshot; then modify both tables.
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)
	snap := c.LastSnapshot()
	if snap != 1 {
		t.Fatalf("snapshot id = %d", snap)
	}
	mustExec(t, c, `INSERT INTO t VALUES ('after')`)
	mustExec(t, c, `INSERT INTO t2 VALUES ('after')`)

	// AS OF sees the main table at the snapshot but the side store is
	// non-snapshotable: its current contents are visible.
	expectRows(t, q(t, c, fmt.Sprintf(`SELECT AS OF %d a FROM t`, snap)), "main")
	rows, err := c.Query(fmt.Sprintf(`SELECT AS OF %d a FROM t2 ORDER BY a`, snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Errorf("temp table under AS OF should show current rows, got %v", rows.Rows)
	}
}

func TestSnapshotQueries(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE logged_in (l_userid TEXT, l_time TEXT, l_country TEXT)`)

	// The paper's Figure 3 script.
	mustExec(t, c, `INSERT INTO logged_in VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)                                                 // S1
	mustExec(t, c, `BEGIN; DELETE FROM logged_in WHERE l_userid = 'UserA'; COMMIT WITH SNAPSHOT`) // S2
	mustExec(t, c, `BEGIN;
		INSERT INTO logged_in (l_userid, l_time, l_country) VALUES ('UserD', '2008-11-11 10:08:04', 'UK');
		COMMIT WITH SNAPSHOT`) // S3

	expectSet(t, q(t, c, `SELECT AS OF 1 l_userid FROM logged_in`), "UserA", "UserB", "UserC")
	expectSet(t, q(t, c, `SELECT AS OF 2 l_userid FROM logged_in`), "UserB", "UserC")
	expectSet(t, q(t, c, `SELECT AS OF 3 l_userid FROM logged_in`), "UserB", "UserC", "UserD")
	expectSet(t, q(t, c, `SELECT l_userid FROM logged_in`), "UserB", "UserC", "UserD")

	// current_snapshot() resolves inside AS OF queries and is NULL outside.
	expectRows(t, q(t, c, `SELECT AS OF 2 DISTINCT current_snapshot() FROM logged_in`), "2")
	expectRows(t, q(t, c, `SELECT current_snapshot()`), "NULL")

	// ExecAsOf binds SELECTs like an AS OF rewrite (paper §3).
	var ids []string
	err := c.ExecAsOf(`SELECT l_userid FROM logged_in WHERE l_userid = 'UserA'`, 1,
		func(cols []string, row []record.Value) error {
			ids = append(ids, row[0].String())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "UserA" {
		t.Errorf("ExecAsOf: %v", ids)
	}

	// Writes under a snapshot binding are rejected.
	if err := c.ExecAsOf(`INSERT INTO logged_in VALUES ('x','y','z')`, 1, nil); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write under AS OF: %v", err)
	}
	// AS OF over a missing snapshot fails cleanly.
	if err := c.Exec(`SELECT AS OF 99 * FROM logged_in`, nil); !errors.Is(err, retro.ErrNoSnapshot) {
		t.Errorf("AS OF 99: %v", err)
	}
}

func TestSnapshotSeesSchemaAsOf(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE a (x)`)
	mustExec(t, c, `INSERT INTO a VALUES (1)`)
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`) // S1
	mustExec(t, c, `CREATE TABLE b (y)`)
	mustExec(t, c, `DROP TABLE a`)
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`) // S2

	// Snapshot 1: table a exists, b does not.
	expectRows(t, q(t, c, `SELECT AS OF 1 x FROM a`), "1")
	if err := c.Exec(`SELECT AS OF 1 y FROM b`, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("b should not exist in snapshot 1: %v", err)
	}
	// Snapshot 2: reversed.
	if err := c.Exec(`SELECT AS OF 2 x FROM a`, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("a should not exist in snapshot 2: %v", err)
	}
	expectRows(t, q(t, c, `SELECT AS OF 2 COUNT(*) FROM b`), "0")
}

func TestExplicitTransactions(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	// Uncommitted writes visible within the transaction.
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t`), "1")
	mustExec(t, c, `ROLLBACK`)
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t`), "0")

	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO t VALUES (2)`)
	mustExec(t, c, `COMMIT`)
	expectRows(t, q(t, c, `SELECT a FROM t`), "2")

	if err := c.Exec(`COMMIT`, nil); !errors.Is(err, ErrNoTx) {
		t.Errorf("commit without begin: %v", err)
	}
	mustExec(t, c, `BEGIN`)
	if err := c.Exec(`BEGIN`, nil); !errors.Is(err, ErrTxOpen) {
		t.Errorf("nested begin: %v", err)
	}
	mustExec(t, c, `ROLLBACK`)
}

func TestUDFRegistrationAndAux(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)

	// A UDF that counts its invocations within one statement via Aux.
	c.db.RegisterFunc(FuncDef{
		Name: "invocation_no", MinArgs: 0, MaxArgs: 0,
		Fn: func(fc *FuncContext, _ []record.Value) (record.Value, error) {
			n := fc.Aux(func() any { return new(int) }).(*int)
			*n++
			return record.Int(int64(*n)), nil
		},
	})
	expectRows(t, q(t, c, `SELECT invocation_no() FROM t`), "1", "2", "3")
	// Fresh statement, fresh state.
	expectRows(t, q(t, c, `SELECT invocation_no() FROM t`), "1", "2", "3")

	// A UDF that executes nested SQL through its connection (the
	// sqlite3_exec pattern the RQL mechanisms are built on).
	c.db.RegisterFunc(FuncDef{
		Name: "record_row", MinArgs: 1, MaxArgs: 1,
		Fn: func(fc *FuncContext, args []record.Value) (record.Value, error) {
			err := fc.Conn().Exec(`INSERT INTO side_log VALUES (?)`, nil, args[0])
			return record.Int(1), err
		},
	})
	mustExec(t, c, `CREATE TEMP TABLE side_log (v)`)
	mustExec(t, c, `SELECT record_row(a) FROM t`)
	expectSet(t, q(t, c, `SELECT v FROM side_log`), "1", "2", "3")

	if err := c.Exec(`SELECT no_such_fn(1)`, nil); err == nil ||
		!strings.Contains(err.Error(), "no such function") {
		t.Errorf("unknown function: %v", err)
	}
}

func TestMultiStatementExec(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2);`)
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t`), "2")
}

func TestRowCallbackAbort(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	stop := errors.New("stop")
	n := 0
	err := c.Exec(`SELECT a FROM t`, func(cols []string, row []record.Value) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 2 {
		t.Errorf("callback abort: err=%v n=%d", err, n)
	}
}

func TestBulkInsert(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b TEXT)`)
	rows := make([][]record.Value, 1000)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), record.Text(fmt.Sprintf("r%d", i))}
	}
	if err := c.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	expectRows(t, q(t, c, `SELECT COUNT(*), MIN(a), MAX(a) FROM t`), "1000|0|999")
}

func TestColumnNameOutput(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 2)`)
	rows, err := c.Query(`SELECT a, b AS bee, a + b, COUNT(*) AS cnt FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "bee", "a + b", "cnt"}
	for i, w := range want {
		if rows.Cols[i] != w {
			t.Errorf("col %d: %q want %q", i, rows.Cols[i], w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	c := testConn(t)
	bad := []string{
		``,
		`SELEC 1`,
		`SELECT FROM`,
		`SELECT 'unterminated`,
		`SELECT 1 +`,
		`INSERT INTO`,
		`CREATE TABLE t (`,
		`SELECT * FROM t WHERE`,
		`DROP banana t`,
		// Syntax outside the dialect.
		`SELECT x FROM (SELECT a AS x FROM t) sub`,
		`SELECT a FROM t JOIN u ON t.a = u.a`,
		`SELECT a FROM t LEFT JOIN u ON t.a = u.a`,
		`SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END FROM t`,
		`SELECT CAST(a AS TEXT) FROM t`,
		`SELECT a FROM t WHERE b LIKE 'x%'`,
		`SELECT 'a' || 'b'`,
		`CREATE TABLE d AS SELECT a FROM t`,
	}
	for _, sql := range bad {
		if _, err := ParseAll(sql); err == nil {
			t.Errorf("no parse error for %q", sql)
		}
		if err := c.Exec(sql, nil); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	cases := []string{
		`SELECT nope FROM t`,
		`SELECT * FROM missing`,
		`SELECT t.a, x.a FROM t`,
		`INSERT INTO t (nope) VALUES (1)`,
		`INSERT INTO t VALUES (1, 2)`,
		`UPDATE t SET nope = 1`,
		`CREATE INDEX i ON t (nope)`,
		`CREATE TABLE t (b)`,
		`SELECT MAX(MIN(a)) FROM t`,
		`SELECT MAX(a, 1) FROM t`,
		`SELECT total(a) FROM t`,
		`SELECT abs(a) FROM t`,
		`SELECT a FROM t ORDER BY 5`,
		`SELECT a FROM t GROUP BY 5`,
	}
	for _, sql := range cases {
		if err := c.Exec(sql, nil); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestStatsReporting(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	for i := 0; i < 200; i++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)
	mustExec(t, c, `DELETE FROM t WHERE a < 100`) // push pages to the Pagelog
	c.db.Retro().ResetCache()

	mustExec(t, c, `SELECT AS OF 1 COUNT(*) FROM t`)
	st := c.LastStats()
	if st.PagelogReads == 0 {
		t.Errorf("cold AS OF scan should read the Pagelog: %+v", st)
	}
	if st.RowsReturned != 1 {
		t.Errorf("RowsReturned = %d", st.RowsReturned)
	}
	if st.Duration <= 0 {
		t.Errorf("Duration not measured")
	}

	// A warm re-run hits the snapshot cache instead.
	mustExec(t, c, `SELECT AS OF 1 COUNT(*) FROM t`)
	st2 := c.LastStats()
	if st2.PagelogReads != 0 || st2.CacheHits == 0 {
		t.Errorf("warm AS OF scan: %+v", st2)
	}
}

func TestAggregateMixedNumericAndNulls(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (v)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2.5), (NULL), (3)`)
	expectRows(t, q(t, c, `SELECT SUM(v), COUNT(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t`),
		"6.5|3|4|2.1666666666666665|1|3")
	// Integer-only SUM stays an integer: it divides as one.
	mustExec(t, c, `CREATE TABLE i (v)`)
	mustExec(t, c, `INSERT INTO i VALUES (1), (2)`)
	expectRows(t, q(t, c, `SELECT SUM(v) / 2 FROM i`), "1")
	// Float appears -> SUM turns real.
	mustExec(t, c, `INSERT INTO i VALUES (0.5)`)
	expectRows(t, q(t, c, `SELECT SUM(v) / 2 FROM i`), "1.75")
}

func TestNullComparisonSemantics(t *testing.T) {
	c := testConn(t)
	cases := map[string]string{
		`SELECT NULL IN (1, 2)`:       "NULL",
		`SELECT 1 IN (NULL)`:          "NULL",
		`SELECT 1 IN (1, NULL)`:       "1",
		`SELECT 1 NOT IN (2, NULL)`:   "NULL",
		`SELECT NULL BETWEEN 1 AND 2`: "NULL",
		`SELECT -NULL`:                "NULL",
		`SELECT NOT NULL`:             "NULL",
		`SELECT NULL + 1`:             "NULL",
	}
	for sql, want := range cases {
		got := q(t, c, sql)
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", sql, got, want)
		}
	}
	// WHERE treats NULL as not-true.
	mustExec(t, c, `CREATE TABLE t (v)`)
	mustExec(t, c, `INSERT INTO t VALUES (NULL), (1)`)
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM t WHERE v`), "1")
}

func TestGroupByOrdinalAndAlias(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 10), (1, 20), (2, 30)`)
	expectSet(t, q(t, c, `SELECT a * 10 AS tens, SUM(b) FROM t GROUP BY 1`), "10|30", "20|30")
	expectSet(t, q(t, c, `SELECT a AS k, COUNT(*) FROM t GROUP BY k`), "1|2", "2|1")
}

func TestHavingWithoutSelectAggregate(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (g, v)`)
	mustExec(t, c, `INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3)`)
	expectRows(t, q(t, c, `SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1`), "a")
	// ORDER BY an aggregate not in the projection.
	expectRows(t, q(t, c, `SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC`), "a", "b")
}

func TestCaseInsensitiveNames(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE Users (Name TEXT)`)
	mustExec(t, c, `INSERT INTO USERS (NAME) VALUES ('x')`)
	expectRows(t, q(t, c, `select name from users`), "x")
	expectRows(t, q(t, c, `SELECT uSeRs.NaMe FROM Users`), "x")
}

func TestLimitWithoutOrderStreams(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	for i := 0; i < 10; i++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	got := q(t, c, `SELECT a FROM t LIMIT 3 OFFSET 2`)
	if len(got) != 3 || got[0] != "2" {
		t.Errorf("streamed limit/offset: %v", got)
	}
	expectRows(t, q(t, c, `SELECT a FROM t LIMIT 0`))
}

func TestExplain(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE big (k INTEGER, v TEXT)`)
	mustExec(t, c, `CREATE TABLE probe (k INTEGER)`)
	mustExec(t, c, `INSERT INTO probe VALUES (1)`)
	mustExec(t, c, `INSERT INTO big VALUES (1, 'x')`)

	plan := strings.Join(q(t, c, `EXPLAIN SELECT v FROM probe, big WHERE probe.k = big.k AND v = 'x'`), "\n")
	if !strings.Contains(plan, "AUTOMATIC COVERING INDEX") {
		t.Errorf("plan should use the automatic index:\n%s", plan)
	}
	mustExec(t, c, `CREATE INDEX big_k ON big (k)`)
	plan = strings.Join(q(t, c, `EXPLAIN SELECT v FROM probe, big WHERE probe.k = big.k`), "\n")
	if !strings.Contains(plan, "NATIVE INDEX big_k") {
		t.Errorf("plan should use the native index:\n%s", plan)
	}
	plan = strings.Join(q(t, c, `EXPLAIN SELECT k, COUNT(*) FROM big WHERE k = 1 GROUP BY k ORDER BY k LIMIT 5`), "\n")
	for _, want := range []string{"AGGREGATE", "SORT + LIMIT", "SEARCH TABLE big USING INDEX (EQUALITY)"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	plan = strings.Join(q(t, c, `EXPLAIN SELECT DISTINCT v FROM big`), "\n")
	if !strings.Contains(plan, "DISTINCT") || !strings.Contains(plan, "SCAN TABLE") {
		t.Errorf("distinct plan:\n%s", plan)
	}
	plan = strings.Join(q(t, c, `EXPLAIN SELECT 1`), "\n")
	if !strings.Contains(plan, "CONSTANT ROW") {
		t.Errorf("constant plan:\n%s", plan)
	}
}

func TestExplainAnalyze(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE big (k INTEGER, v TEXT)`)
	mustExec(t, c, `INSERT INTO big VALUES (1, 'x'), (2, 'y'), (3, 'z')`)

	report := q(t, c, `EXPLAIN ANALYZE SELECT v FROM big WHERE k > 1`)
	joined := strings.Join(report, "\n")
	if !strings.Contains(joined, "SCAN TABLE") {
		t.Errorf("report misses the plan:\n%s", joined)
	}
	if !strings.Contains(joined, "EXECUTED rows=2") {
		t.Errorf("report misses the execution summary:\n%s", joined)
	}
	// LastStats reports the executed statement's own rows — identical to
	// a plain run — not the report lines streamed to the client.
	if got := c.LastStats().RowsReturned; got != 2 {
		t.Errorf("LastStats().RowsReturned = %d, want 2", got)
	}
	if strings.Contains(joined, "MECHANISM") {
		t.Errorf("no mechanism ran, but the report says one did:\n%s", joined)
	}

	// Lower-case and mixed-case forms parse; ANALYZE stays usable as an
	// ordinary identifier since it is not reserved.
	if _, err := c.Query(`explain analyze select 1`); err != nil {
		t.Fatalf("lower-case explain analyze: %v", err)
	}
	mustExec(t, c, `CREATE TABLE analyze (analyze INTEGER)`)
	mustExec(t, c, `INSERT INTO analyze VALUES (7)`)
	expectRows(t, q(t, c, `SELECT analyze FROM analyze`), "7")
}

// TestIntegerOverflow: 64-bit integer arithmetic never wraps. +, -, *
// and unary minus that overflow compute in REAL, as SQLite's do, and
// SUM() of integers that overflows fails the statement.
func TestIntegerOverflow(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE big (a INTEGER)`)
	mustExec(t, c, `INSERT INTO big VALUES (9223372036854775807), (1)`)
	for _, tc := range []struct{ expr, want string }{
		{`9223372036854775807 + 1`, "9.223372036854776e+18 REAL"},
		{`(-9223372036854775807 - 1) - 1`, "-9.223372036854776e+18 REAL"},
		{`4611686018427387904 * 2`, "9.223372036854776e+18 REAL"},
		{`-3037000500 * 3037000500`, "-9.22337203700025e+18 REAL"},
		{`-(-9223372036854775807 - 1)`, "9.223372036854776e+18 REAL"},
		{`(-9223372036854775807 - 1) / -1`, "9.223372036854776e+18 REAL"},
		{`9223372036854775806 + 1`, "9223372036854775807 INTEGER"},
		{`-9223372036854775807 - 1`, "-9223372036854775808 INTEGER"},
		{`3037000499 * 3037000499`, "9223372030926249001 INTEGER"},
		{`(-9223372036854775807 - 1) % -1`, "0 INTEGER"},
	} {
		rows, err := c.Query(`SELECT ` + tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		v := rows.Rows[0][0]
		if got := fmt.Sprintf("%v %v", v, v.Type()); got != tc.want {
			t.Errorf("SELECT %s = %s, want %s", tc.expr, got, tc.want)
		}
	}
	if _, err := c.Query(`SELECT SUM(a) FROM big`); err == nil || !strings.Contains(err.Error(), "integer overflow") {
		t.Errorf("SUM over an overflowing integer column: err = %v, want integer overflow", err)
	}
	expectRows(t, q(t, c, `SELECT SUM(a - 1) FROM big`), "9223372036854775806")
}

package rql_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
)

// TestDialect records the SQL dialect end to end: each construct the
// engine keeps runs over AS OF a declared snapshot and returns what
// SQLite would, and each construct outside the dialect fails with an
// error — not a panic, and not a different query.
func TestDialect(t *testing.T) {
	_, conn := openTestDB(t)
	exec := func(q string) {
		t.Helper()
		if err := conn.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec(`CREATE TABLE orders (okey INTEGER, cust INTEGER, price REAL, note TEXT)`)
	exec(`CREATE TABLE cust (ckey INTEGER, region TEXT)`)
	exec(`CREATE TABLE cheap (okey INTEGER, price REAL)`)
	exec(`INSERT INTO orders VALUES (1, 10, 10.5, 'a'), (2, 10, 20.25, NULL), (3, 20, 7.75, 'c'), (4, 30, 3.0, NULL), (5, 20, 100.0, 'e')`)
	exec(`INSERT INTO cust VALUES (10, 'north'), (20, 'south'), (30, 'east')`)
	exec(`INSERT INTO cheap SELECT okey, price FROM orders WHERE price < 10`)
	exec(`CREATE UNIQUE INDEX cust_key ON cust (ckey)`)
	err := conn.Exec(`INSERT INTO cust VALUES (20, 'west')`, nil)
	if !errors.Is(err, sql.ErrUniqueIndex) {
		t.Fatalf("duplicate key under a UNIQUE index: %v, want ErrUniqueIndex", err)
	}
	snap, err := conn.DeclareSnapshot("dialect")
	if err != nil {
		t.Fatal(err)
	}
	// What AS OF must not see.
	exec(`DELETE FROM orders WHERE okey > 2`)
	exec(`UPDATE cust SET region = 'moved'`)
	exec(`DROP TABLE cheap`)

	rows := func(q string) string {
		t.Helper()
		res, err := conn.Query(fmt.Sprintf(q, snap))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var out []string
		for _, r := range res.Rows {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			out = append(out, strings.Join(cells, "|"))
		}
		return strings.Join(out, " ")
	}
	for _, tc := range []struct{ sql, want string }{
		{`SELECT AS OF %d okey FROM orders WHERE okey = 1 OR NOT price > 5 ORDER BY 1`, "1 4"},
		{`SELECT AS OF %d okey FROM orders WHERE note IS NULL ORDER BY okey`, "2 4"},
		{`SELECT AS OF %d okey FROM orders WHERE note IS NOT NULL ORDER BY okey`, "1 3 5"},
		{`SELECT AS OF %d okey FROM orders WHERE cust IN (10, 30) ORDER BY okey`, "1 2 4"},
		{`SELECT AS OF %d okey FROM orders WHERE cust NOT IN (10, 30) ORDER BY okey`, "3 5"},
		{`SELECT AS OF %d okey FROM orders WHERE price BETWEEN 7.75 AND 20.25 ORDER BY okey`, "1 2 3"},
		{`SELECT AS OF %d okey FROM orders WHERE price NOT BETWEEN 7.75 AND 20.25 ORDER BY okey`, "4 5"},
		{`SELECT AS OF %d okey, -okey %% 3, okey %% 2.5, okey %% 0.5, round(price / 3, 2) FROM orders ORDER BY okey`,
			"1|-1|1|NULL|3.5 2|-2|0|NULL|6.75 3|0|1|NULL|2.58 4|-1|0|NULL|1 5|-2|1|NULL|33.33"},
		{`SELECT AS OF %d region, COUNT(*), SUM(price), current_snapshot() FROM orders o, cust c
			WHERE o.cust = c.ckey GROUP BY 1 ORDER BY 1`,
			fmt.Sprintf("east|1|3|%[1]d north|2|30.75|%[1]d south|2|107.75|%[1]d", snap)},
		{`SELECT AS OF %d okey, price FROM cheap ORDER BY okey`, "3|7.75 4|3"},
	} {
		if got := rows(tc.sql); got != tc.want {
			t.Errorf("%s\n got %q\nwant %q", tc.sql, got, tc.want)
		}
	}
	// Plain EXPLAIN shows the access path the Figure 9 join takes over
	// the snapshot: the filtered cust table drives, and orders, which
	// has no index on the join column, gets the automatic one.
	if plan := rows(`EXPLAIN SELECT AS OF %d SUM(price) FROM orders, cust WHERE ckey = cust AND region = 'north'`); !strings.Contains(plan, "AUTOMATIC COVERING INDEX") {
		t.Errorf("EXPLAIN does not name the automatic index:\n%s", plan)
	}
	// cheap exists only in the snapshot, so this plans over it.
	if plan := rows(`EXPLAIN SELECT AS OF %d okey FROM cheap`); !strings.Contains(plan, "SCAN TABLE") {
		t.Errorf("EXPLAIN over the snapshot:\n%s", plan)
	}

	for _, q := range []string{
		`SELECT AS OF %d x FROM (SELECT okey AS x FROM orders) s`,
		`SELECT AS OF %d okey FROM orders JOIN cust ON cust = ckey`,
		`SELECT AS OF %d okey FROM orders INNER JOIN cust ON cust = ckey`,
		`SELECT AS OF %d okey FROM orders LEFT JOIN cust ON cust = ckey`,
		`SELECT AS OF %d okey FROM orders LEFT OUTER JOIN cust ON cust = ckey`,
		`SELECT AS OF %d okey FROM orders CROSS JOIN cust`,
		`SELECT AS OF %d COUNT(*) FROM orders, cust`,
		`SELECT AS OF %d COUNT(*) FROM orders, cust WHERE cust < ckey`,
		`SELECT AS OF %d CASE WHEN okey = 1 THEN 'one' ELSE 'other' END FROM orders`,
		`SELECT AS OF %d CASE okey WHEN 1 THEN 'one' END FROM orders`,
		`SELECT AS OF %d CAST(price AS INTEGER) FROM orders`,
		`SELECT AS OF %d cast(price, 'INTEGER') FROM orders`,
		`SELECT AS OF %d okey FROM orders WHERE note LIKE 'a%%'`,
		`SELECT AS OF %d okey FROM orders WHERE note NOT LIKE 'a%%'`,
		`SELECT AS OF %d note || 'x' FROM orders`,
		`SELECT AS OF %d total(price) FROM orders`,
		`SELECT AS OF %d abs(price) FROM orders`,
		`SELECT AS OF %d length(note) FROM orders`,
		`SELECT AS OF %d lower(note) FROM orders`,
		`SELECT AS OF %d upper(note) FROM orders`,
		`SELECT AS OF %d substr(note, 1, 1) FROM orders`,
		`SELECT AS OF %d coalesce(note, 'z') FROM orders`,
		`SELECT AS OF %d ifnull(note, 'z') FROM orders`,
		`SELECT AS OF %d nullif(okey, 1) FROM orders`,
		`SELECT AS OF %d typeof(okey) FROM orders`,
		`SELECT AS OF %d printf('%%d', okey) FROM orders`,
		`SELECT AS OF %d min(okey, 3) FROM orders`,
		`SELECT AS OF %d max(okey, 3) FROM orders`,
		`INSERT INTO orders SELECT AS OF %d * FROM orders`,
		`CREATE TABLE copy%d AS SELECT okey FROM orders`,
	} {
		q = fmt.Sprintf(q, snap)
		if err := conn.Exec(q, nil); err == nil {
			t.Errorf("%s: no error", q)
		}
	}
	// AS OF names a declared snapshot by its integer id, as a literal or
	// a parameter. Anything else is an error naming the value: not the
	// current state (0, text) and not a neighbouring snapshot (a REAL, a
	// numeric string).
	for _, tc := range []struct {
		q     string
		param []record.Value
		named string
	}{
		{`SELECT AS OF 0 okey FROM orders`, nil, "AS OF 0"},
		{`SELECT AS OF 'x' okey FROM orders`, nil, "AS OF 'x'"},
		{fmt.Sprintf(`SELECT AS OF %d.9 okey FROM orders`, snap), nil, fmt.Sprintf("AS OF %d.9", snap)},
		{fmt.Sprintf(`SELECT AS OF '%d' okey FROM orders`, snap), nil, fmt.Sprintf("AS OF '%d'", snap)},
		{`SELECT AS OF ? okey FROM orders`, []record.Value{record.Int(0)}, "AS OF 0"},
		{`SELECT AS OF ? okey FROM orders`, []record.Value{record.Int(-1)}, "AS OF -1"},
		{`SELECT AS OF ? okey FROM orders`, []record.Value{record.Text("x")}, "AS OF 'x'"},
		{`SELECT AS OF ? okey FROM orders`, []record.Value{record.Float(float64(snap) + 0.9)}, fmt.Sprintf("AS OF %d.9", snap)},
		{`SELECT AS OF ? okey FROM orders`, []record.Value{record.Null()}, "AS OF NULL"},
	} {
		err := conn.Exec(tc.q, nil, tc.param...)
		if !errors.Is(err, retro.ErrNoSnapshot) || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("%s %v: %v, want an error naming %q that wraps retro.ErrNoSnapshot", tc.q, tc.param, err, tc.named)
		}
	}
	if err := conn.Exec(fmt.Sprintf(`SELECT * FROM copy%d`, snap), nil); err == nil {
		t.Error("CREATE TABLE … AS SELECT created a table")
	}
	if got := rows(`SELECT okey FROM orders ORDER BY okey -- %d`); got != "1 2" {
		t.Errorf("the rejected INSERT … SELECT wrote rows: orders = %q, want \"1 2\"", got)
	}

	// Any quoted identifier survives the catalog: an index over a column
	// named "a,b" keeps its one column, and a column named "c|d" keeps
	// its name, its type and its (absent) constraints.
	exec(`CREATE TABLE k (p INTEGER, "a,b" INTEGER)`)
	exec(`CREATE INDEX ik ON k ("a,b")`)
	exec(`INSERT INTO k VALUES (1, 2), (2, 5)`)
	exec(`UPDATE k SET "a,b" = 3 WHERE p = 1`)
	exec(`DELETE FROM k WHERE "a,b" = 5`)
	if got := rows(`SELECT p, "a,b" FROM k WHERE "a,b" = 3 -- %d`); got != "1|3" {
		t.Errorf(`k after writes through index ik: %q, want "1|3"`, got)
	}
	exec(`CREATE TABLE h ("c|d" INTEGER, e TEXT)`)
	exec(`INSERT INTO h VALUES (NULL, 'x'), ('7', 'y')`)
	if got := rows(`SELECT "c|d", e FROM h ORDER BY e -- %d`); got != "NULL|x 7|y" {
		t.Errorf(`h."c|d": %q, want "NULL|x 7|y"`, got)
	}
}

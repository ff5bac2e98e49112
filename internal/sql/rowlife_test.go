package sql

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rql/internal/record"
)

// rowLifeFixture loads three tables with text and numeric columns; item
// is indexed on its join column, the others are not.
func rowLifeFixture(t testing.TB, c *Conn) {
	t.Helper()
	exec := func(sql string, params ...record.Value) {
		t.Helper()
		if err := c.Exec(sql, nil, params...); err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	exec(`CREATE TABLE cust (id INTEGER PRIMARY KEY, name TEXT, region TEXT, tier INTEGER)`)
	exec(`CREATE TABLE ord (okey INTEGER, cust INTEGER, status TEXT, price REAL, day TEXT, note TEXT)`)
	exec(`CREATE TABLE item (okey INTEGER, line INTEGER, sku TEXT, qty INTEGER)`)
	exec(`CREATE INDEX item_okey ON item (okey)`)
	exec(`BEGIN`)
	for i := 1; i <= 12; i++ {
		exec(`INSERT INTO cust VALUES (?, ?, ?, ?)`, record.Int(int64(i)),
			record.Text(fmt.Sprintf("cust-%02d", i)), record.Text([]string{"north", "south", "east"}[i%3]), record.Int(int64(i%4)))
	}
	for i := 1; i <= 60; i++ {
		exec(`INSERT INTO ord VALUES (?, ?, ?, ?, ?, ?)`, record.Int(int64(i)), record.Int(int64(1+i*7%12)),
			record.Text([]string{"O", "F", "P"}[i%3]), record.Float(float64(i*37%500)+0.5),
			record.Text(fmt.Sprintf("1996-%02d-%02d", 1+i%12, 1+i%28)), record.Text(strings.Repeat("n", i%9)))
		for l := 1; l <= 1+i%3; l++ {
			exec(`INSERT INTO item VALUES (?, ?, ?, ?)`, record.Int(int64(i)), record.Int(int64(l)),
				record.Text(fmt.Sprintf("sku-%d", (i*l)%17)), record.Int(int64(l*i%11)))
		}
	}
	exec(`COMMIT`)
}

// rowLifeQueries are the shapes in which an operator outlives the row
// it was handed, or reads columns the select list does not name.
var rowLifeQueries = []string{
	// ORDER BY on columns that are not projected.
	`SELECT okey FROM ord ORDER BY price DESC, okey`,
	`SELECT name FROM cust ORDER BY region, tier, id LIMIT 5 OFFSET 2`,
	`SELECT DISTINCT status, cust FROM ord ORDER BY 1, 2`,
	`SELECT DISTINCT region FROM cust`,
	// GROUP BY: the bare columns come from the group's representative
	// row, which for a lone MAX is the row that set it.
	`SELECT cust, note, MAX(price) FROM ord GROUP BY cust ORDER BY cust`,
	`SELECT status, day, COUNT(*), AVG(price) FROM ord GROUP BY status ORDER BY status`,
	`SELECT COUNT(*) FROM ord WHERE status = 'O'`,
	`SELECT cust, SUM(price) AS total FROM ord GROUP BY cust HAVING total > 500 ORDER BY cust`,
	// Automatic-index join, native-index join, and both chained.
	`SELECT c.name, o.okey, o.day FROM cust c, ord o WHERE c.id = o.cust AND o.status = 'F' ORDER BY o.okey`,
	`SELECT o.okey, i.sku, i.qty FROM ord o, item i WHERE o.okey = i.okey AND o.price > 300 ORDER BY o.okey, i.line`,
	`SELECT c.name, o.okey, i.sku FROM cust c, ord o, item i WHERE c.id = o.cust AND o.okey = i.okey AND c.tier = 1 ORDER BY o.okey, i.line`,
	// Aggregation over a join, star projections.
	`SELECT c.region, o.status, COUNT(*) FROM cust c, ord o WHERE c.id = o.cust AND c.tier = 0 AND o.okey < 30 GROUP BY c.region, o.status ORDER BY 1, 2`,
	`SELECT * FROM item WHERE okey = 7`,
	`SELECT c.*, o.okey FROM cust c, ord o WHERE c.id = o.cust AND o.okey >= 58 ORDER BY o.okey`,
	`SELECT rowid, sku FROM item WHERE okey >= 10 AND okey < 13 ORDER BY rowid`,
}

// TestPoisonedScanBuffersChangeNothing runs every query shape, and the
// statements that materialize a SELECT or a match set, on a plain
// database and on one whose scans poison their row buffer between rows:
// the results must be identical (and not vacuous).
func TestPoisonedScanBuffersChangeNothing(t *testing.T) {
	results := func(poison bool) map[string][]string {
		c := testConn(t)
		c.db.poisonScans = poison
		rowLifeFixture(t, c)
		out := make(map[string][]string)
		for _, sql := range rowLifeQueries {
			out[sql] = q(t, c, sql)
		}
		mustExec(t, c, `CREATE TABLE big (okey INTEGER, note TEXT, price REAL)`)
		mustExec(t, c, `INSERT INTO big SELECT okey, note, price FROM ord WHERE price > 250`)
		out["insert select"] = q(t, c, `SELECT * FROM big ORDER BY okey`)
		mustExec(t, c, `INSERT INTO big SELECT o.okey + 1000, c.name, o.price FROM ord o, cust c WHERE o.cust = c.id AND o.status = 'P'`)
		out["insert join select"] = q(t, c, `SELECT * FROM big ORDER BY okey`)
		mustExec(t, c, `UPDATE item SET qty = qty + line, sku = okey * 10 + line WHERE okey < 30`)
		mustExec(t, c, `DELETE FROM item WHERE qty > 9`)
		out["update, delete"] = q(t, c, `SELECT okey, line, sku, qty FROM item ORDER BY okey, line`)
		out["index after update"] = q(t, c, `SELECT sku FROM item WHERE okey = 12 ORDER BY line`)
		return out
	}
	plain, poisoned := results(false), results(true)
	for name, want := range plain {
		if len(want) == 0 {
			t.Errorf("%s: no rows; the comparison is vacuous", name)
		}
		if got := poisoned[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n   plain: %v\npoisoned: %v", name, want, got)
		}
		for _, row := range want {
			if strings.Contains(row, "poisoned") {
				t.Fatalf("%s: poison in the plain run: %v", name, want)
			}
		}
	}
}

// scanMasks plans a SELECT and returns, per base-table access path in
// plan order, the names of the columns it will decode.
func scanMasks(t *testing.T, c *Conn, sqlText string) []string {
	t.Helper()
	stmt, err := Parse(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := c.newReadCtx(nil, 0, nil, &ExecStats{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.close()
	it, _, err := planSelect(stmt.(*SelectStmt), ec)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []string
	name := func(tbl string, r scanRow) {
		table := ec.mainSchema.table(tbl)
		var cols []string
		for k, col := range table.Cols {
			if r.need[k] {
				cols = append(cols, col.Name)
			}
		}
		out = append(out, tbl+"("+strings.Join(cols, ",")+")")
	}
	var walk func(any)
	walk = func(it any) {
		switch x := it.(type) {
		case *finalIter:
			walk(x.pairs)
		case *passPairIter:
			walk(x.src)
		case *distinctPairIter:
			walk(x.src)
		case *projectPairIter:
			walk(x.src)
		case *aggregateIter:
			walk(x.src)
		case *filterIter:
			walk(x.src)
		case *indexJoinIter:
			walk(x.outer)
			name(x.table.Name, x.inner)
		case *indexScanIter:
			name(x.table.Name, x.row)
		case *tableScanIter:
			// The scan does not know its table; the fixture's tables
			// differ in width.
			name(map[int]string{4: "cust", 6: "ord"}[len(x.row.vals)-1], x.row)
		default:
			t.Fatalf("scanMasks: unexpected plan node %T", it)
		}
	}
	walk(it)
	return out
}

// TestScanMaskIsTight pins what the planner asks each access path to
// decode: exactly the columns some expression of the statement reads.
func TestScanMaskIsTight(t *testing.T) {
	c := testConn(t)
	rowLifeFixture(t, c)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`SELECT COUNT(*) FROM ord WHERE status = 'O'`, []string{"ord(status)"}},
		{`SELECT cust, COUNT(*), AVG(price) FROM ord GROUP BY cust`, []string{"ord(cust,price)"}},
		{`SELECT okey FROM ord WHERE day < '1996-03-01' ORDER BY price`, []string{"ord(okey,price,day)"}},
		{`SELECT rowid FROM ord`, []string{"ord()"}},
		{`SELECT * FROM cust`, []string{"cust(id,name,region,tier)"}},
		{`SELECT sku FROM item WHERE okey = 3`, []string{"item(okey,sku)"}},
		// The native-index join reads the inner key from the index, not
		// from the row.
		{`SELECT o.day, i.qty FROM ord o, item i WHERE o.okey = i.okey AND o.status = 'F'`, []string{"ord(okey,status,day)", "item(qty)"}},
	} {
		if got := scanMasks(t, c, tc.sql); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s\n decodes %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestPrunedTableScanDoesNotAllocate: a scan that needs only integer and
// float columns of a table that also has text ones produces no garbage
// per row — no row slice, no header slice, no skipped payload.
func TestPrunedTableScanDoesNotAllocate(t *testing.T) {
	c := testConn(t)
	c.db.poisonScans = false
	mustExec(t, c, `CREATE TABLE m (a INTEGER, s TEXT, f REAL, u TEXT, b INTEGER)`)
	rows := make([][]record.Value, 6000)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), record.Text("some text that is skipped"),
			record.Float(float64(i) / 3), record.Text(strings.Repeat("u", i%40)), record.Int(int64(i % 7))}
	}
	if err := c.BulkInsert("m", rows); err != nil {
		t.Fatal(err)
	}
	ec, err := c.newReadCtx(nil, 0, nil, &ExecStats{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.close()
	scan := newTableScan(ec, ec.mainSchema.table("m"), []bool{true, false, true, false, true, false})
	if err := scan.reset(); err != nil {
		t.Fatal(err)
	}
	const rowsPerRun = 500
	var sum float64
	allocs := testing.AllocsPerRun(10, func() {
		for k := 0; k < rowsPerRun; k++ {
			row, err := scan.Next()
			if err != nil || row == nil {
				t.Fatalf("scan ended early: %v", err)
			}
			sum += row[2].Float() + float64(row[0].Int()+row[4].Int())
		}
	})
	if allocs != 0 {
		t.Errorf("pruned scan allocates %v times per %d rows, want 0", allocs, rowsPerRun)
	}
	if sum == 0 {
		t.Error("scan decoded nothing")
	}
}

// TestUpdateMaintainsOnlyChangedIndexes covers the one update path from
// both entry points: an update that leaves an indexed column alone must
// not trip over the row's own unique-index entry, one that changes it
// moves the entry, and a collision is still refused.
func TestUpdateMaintainsOnlyChangedIndexes(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE acct (id INTEGER PRIMARY KEY, code TEXT, owner TEXT, amount INTEGER)`)
	mustExec(t, c, `CREATE UNIQUE INDEX acct_code ON acct (code)`)
	mustExec(t, c, `CREATE INDEX acct_owner ON acct (owner)`)
	mustExec(t, c, `INSERT INTO acct VALUES (1, 'a', 'ann', 10), (2, 'b', 'bob', 20), (3, 'c', 'ann', 30)`)

	mustExec(t, c, `UPDATE acct SET amount = amount + 1`) // no index key changes
	mustExec(t, c, `UPDATE acct SET owner = 'cy', amount = 0 WHERE id = 3`)
	expectRows(t, q(t, c, `SELECT id FROM acct WHERE owner = 'ann'`), "1")
	expectRows(t, q(t, c, `SELECT id, amount FROM acct WHERE owner = 'cy'`), "3|0")
	expectRows(t, q(t, c, `SELECT id FROM acct WHERE code = 'c'`), "3")

	if err := c.Exec(`UPDATE acct SET code = 'a' WHERE id = 2`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("update into an existing unique key: %v", err)
	}
	mustExec(t, c, `UPDATE acct SET code = 'bb' WHERE id = 2`)
	expectRows(t, q(t, c, `SELECT id FROM acct WHERE code = 'b'`))
	expectRows(t, q(t, c, `SELECT id FROM acct WHERE code = 'bb'`), "2")

	// Growing and shrinking the record keeps the row under its rowid.
	mustExec(t, c, `UPDATE acct SET owner = ? WHERE id = 1`, record.Text(strings.Repeat("long", 100)))
	mustExec(t, c, `UPDATE acct SET owner = 'x' WHERE id = 1`)
	expectRows(t, q(t, c, `SELECT id, code, owner, amount FROM acct ORDER BY id`), "1|a|x|11", "2|bb|bob|21", "3|c|cy|0")

	// Assigning the rowid alias moves the row.
	mustExec(t, c, `UPDATE acct SET id = 9 WHERE code = 'c'`)
	expectRows(t, q(t, c, `SELECT id, rowid FROM acct WHERE owner = 'cy'`), "9|9")
	if err := c.Exec(`UPDATE acct SET id = 1 WHERE id = 2`, nil); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("update onto an existing rowid: %v", err)
	}

	// The prepared path the mechanisms use.
	w, err := c.OpenTableWriter("acct")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	code, err := w.Index("acct_code")
	if err != nil {
		t.Fatal(err)
	}
	owner, err := w.Index("acct_owner")
	if err != nil {
		t.Fatal(err)
	}
	rowid, old, found, err := w.LookupByIndex(&code, []record.Value{record.Text("bb")})
	if err != nil || !found {
		t.Fatalf("lookup: %v %v", found, err)
	}
	upd := cloneRow(old)
	upd[3] = record.Int(99)
	if err := w.Update(rowid, old, upd); err != nil {
		t.Fatalf("update leaving the unique key alone: %v", err)
	}
	upd = cloneRow(upd)
	upd[1] = record.Text("a")
	old[3] = record.Int(99)
	if err := w.Update(rowid, old, upd); !errors.Is(err, ErrUniqueIndex) {
		t.Errorf("writer update into an existing unique key: %v", err)
	}
	if _, row, found, _ := w.LookupByIndex(&owner, []record.Value{record.Text("bob")}); !found || row[3].Int() != 99 {
		t.Errorf("after writer update: %v %v", row, found)
	}
}

// benchTable loads n orders-shaped rows (nine columns, five text).
func benchTable(b *testing.B, n int) *Conn {
	b.Helper()
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	c := db.Conn()
	if err := c.Exec(`CREATE TABLE orders (o_orderkey INTEGER, o_custkey INTEGER, o_orderstatus TEXT, o_totalprice REAL,
		o_orderdate TEXT, o_orderpriority TEXT, o_clerk TEXT, o_shippriority INTEGER, o_comment TEXT)`, nil); err != nil {
		b.Fatal(err)
	}
	rows := make([][]record.Value, n)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), record.Int(int64(i % 150)), record.Text("OFP"[i%3 : i%3+1]),
			record.Float(float64(i) * 1.5), record.Text(fmt.Sprintf("1996-%02d-%02d", 1+i%12, 1+i%28)), record.Text("5-LOW"),
			record.Text(fmt.Sprintf("Clerk#%09d", i%1000)), record.Int(0), record.Text("nstructions sleep furiously among the")}
	}
	if err := c.BulkInsert("orders", rows); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTableScanPruned times one full evaluation of the paper's
// Table 1 query shapes over 1500 orders, per scanned row.
func BenchmarkTableScanPruned(b *testing.B) {
	const n = 1500
	c := benchTable(b, n)
	for _, bc := range []struct{ name, sql string }{
		{"count-where-text", `SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'`},
		{"group-avg", `SELECT o_custkey, COUNT(*), AVG(o_totalprice) FROM orders GROUP BY o_custkey`},
		{"all-columns", `SELECT * FROM orders`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += n {
				if err := c.Exec(bc.sql, func([]string, []record.Value) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// extendFixture is the CollateDataIntoIntervals shape of a result
// table: n intervals, searched through an index whose trailing column
// is end_snapshot, all alive through snapshot 1.
func extendFixture(t testing.TB, n int) *TableWriter {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := db.Conn()
	for _, ddl := range []string{
		`CREATE TABLE iv (k INTEGER, name TEXT, start_snapshot INTEGER, end_snapshot INTEGER)`,
		`CREATE INDEX iv_ix ON iv (k, name, end_snapshot)`,
	} {
		if err := c.Exec(ddl, nil); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]record.Value, n)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), extendName(i), record.Int(1), record.Int(1)}
	}
	if err := c.BulkInsert("iv", rows); err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenTableWriter("iv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Rollback)
	return w
}

func extendName(i int) record.Value { return record.Text(fmt.Sprintf("name-%05d", i)) }

// extender runs the per-record step of an interval extension against an
// extendFixture writer: find the interval of row i alive through its
// current end, and move that end to the next snapshot.
type extender struct {
	w     *TableWriter
	ix    WriterIndex // iv_ix
	names []record.Value
	ends  []int64
	probe []record.Value
	old   []record.Value
}

func newExtender(tb testing.TB, w *TableWriter, n int) *extender {
	ix, err := w.Index("iv_ix")
	if err != nil {
		tb.Fatal(err)
	}
	e := &extender{w: w, ix: ix, names: make([]record.Value, n), ends: make([]int64, n), probe: make([]record.Value, 3)}
	for i := range e.ends {
		e.names[i], e.ends[i] = extendName(i), 1
	}
	return e
}

func (e *extender) extend(i int) error {
	e.probe[0] = record.Int(int64(i))
	e.probe[1] = e.names[i]
	e.probe[2] = record.Int(e.ends[i])
	rowid, row, found, err := e.w.LookupByIndex(&e.ix, e.probe)
	if err != nil || !found {
		return fmt.Errorf("interval %d alive through %d: found=%v err=%v", i, e.ends[i], found, err)
	}
	e.old = append(e.old[:0], row...)
	e.ends[i]++
	row[3] = record.Int(e.ends[i])
	return e.w.Update(rowid, e.old, row)
}

// TestIntervalExtensionAllocs pins the allocations of one interval
// extension — LookupByIndex plus Update moving the indexed end_snapshot
// — on a 2000-row table at one: the string of the row's TEXT column,
// which decoding the row into record values makes. The probe key, both
// index keys, the table record and the returned row live in buffers the
// writer owns, the rowid is read off the index key without decoding it,
// and the index entry is rewritten in place.
func TestIntervalExtensionAllocs(t *testing.T) {
	const n = 2000
	e := newExtender(t, extendFixture(t, n), n)
	i := 0
	step := func() {
		if err := e.extend(i * 7 % n); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range n {
		step() // every page the loop writes is dirty from here on
	}
	const pinned = 1
	if allocs := testing.AllocsPerRun(200, step); allocs > pinned {
		t.Errorf("an interval extension allocates %v times, want at most %d", allocs, pinned)
	}
}

// BenchmarkTableWriterFold is the mechanisms' per-record result-table
// step, one folded tuple an op (ns/op and allocs/op are per tuple):
// probe the index, then rewrite one non-indexed column of the row, the
// index key staying as it was (AggregateDataInTable's shape), or move
// the index's trailing column on (CollateDataIntoIntervals extending an
// interval). The tuples visit the 2000 rows in a stride of 7, so
// consecutive lookups land in leaves of their own.
func BenchmarkTableWriterFold(b *testing.B) {
	const n = 2000
	b.Run("aggtable", func(b *testing.B) {
		c := benchTable(b, n)
		if err := c.Exec(`CREATE INDEX o_ok ON orders (o_orderkey)`, nil); err != nil {
			b.Fatal(err)
		}
		w, err := c.OpenTableWriter("orders")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Rollback()
		ix, err := w.Index("o_ok")
		if err != nil {
			b.Fatal(err)
		}
		probe := make([]record.Value, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe[0] = record.Int(int64(i * 7 % n))
			rowid, old, found, err := w.LookupByIndex(&ix, probe)
			if err != nil || !found {
				b.Fatal(found, err)
			}
			upd := cloneRow(old)
			upd[3] = record.Float(float64(i))
			if err := w.Update(rowid, old, upd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intervals", func(b *testing.B) {
		e := newExtender(b, extendFixture(b, n), n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.extend(i * 7 % n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTableWriterInsertAllocs pins the allocations of one result-table
// insert — TableWriter.Insert of an (INTEGER, TEXT, REAL) row under one
// index. The columns' affinities were resolved when the catalog decoded,
// and the next rowid is read off the table's last key into a buffer the
// writer owns: it allocates nothing.
func TestTableWriterInsertAllocs(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Conn()
	mustExec(t, c, `CREATE TEMP TABLE r (k INTEGER, name TEXT, x REAL)`)
	mustExec(t, c, `CREATE INDEX r_k ON r (k)`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	row := []record.Value{record.Int(0), record.Text("n"), record.Float(0.5)}
	insert := func() {
		row[0] = record.Int(row[0].Int() + 1)
		if _, err := w.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for range 2000 {
		insert() // the tree's shape settles: few splits from here on
	}
	if allocs := testing.AllocsPerRun(500, insert); allocs > 0 {
		t.Errorf("an insert allocates %v times, want none", allocs)
	}
}

package sql

import (
	"errors"
	"testing"

	"rql/internal/record"
	"rql/internal/storage"
)

func TestTableWriterInsertLookupUpdate(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TEMP TABLE r (grp TEXT, n INTEGER)`)
	mustExec(t, c, `CREATE INDEX r_grp ON r (grp)`)

	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	rowid, err := w.Insert([]record.Value{record.Text("a"), record.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Text("b"), record.Int(2)}); err != nil {
		t.Fatal(err)
	}

	// Lookup through the index within the open transaction.
	if _, err := w.Index("nope"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("unknown index: %v", err)
	}
	ix, err := w.Index("R_GRP")
	if err != nil {
		t.Fatal(err)
	}
	gotID, row, found, err := w.LookupByIndex(&ix, []record.Value{record.Text("a")})
	if err != nil || !found || gotID != rowid || row[1].Int() != 1 {
		t.Fatalf("lookup: id=%d row=%v found=%v err=%v", gotID, row, found, err)
	}
	if _, _, found, _ := w.LookupByIndex(&ix, []record.Value{record.Text("zz")}); found {
		t.Error("lookup of absent key")
	}

	// Update maintains the index.
	if err := w.Update(rowid,
		[]record.Value{record.Text("a"), record.Int(1)},
		[]record.Value{record.Text("z"), record.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := w.LookupByIndex(&ix, []record.Value{record.Text("a")}); found {
		t.Error("old index entry survived update")
	}
	_, row, found, _ = w.LookupByIndex(&ix, []record.Value{record.Text("z")})
	if !found || row[1].Int() != 10 {
		t.Errorf("updated row: %v %v", row, found)
	}

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	expectSet(t, q(t, c, `SELECT grp, n FROM r`), "z|10", "b|2")

	// Writer methods after Commit fail cleanly.
	if _, err := w.Insert([]record.Value{record.Text("c"), record.Int(3)}); !errors.Is(err, storage.ErrTxDone) {
		t.Errorf("insert after commit: %v", err)
	}

	// The handle serves a later writer on the table, follows its index
	// when another index takes its position, and fails once the index
	// is gone.
	mustExec(t, c, `CREATE INDEX a_first ON r (n)`)
	w, err = c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	if _, row, found, err := w.LookupByIndex(&ix, []record.Value{record.Text("b")}); err != nil || !found || row[1].Int() != 2 {
		t.Errorf("lookup after an index was added: row=%v found=%v err=%v", row, found, err)
	}
	if ix.pos != 1 {
		t.Errorf("handle at position %d after an index sorting first was added, want 1", ix.pos)
	}
	w.Rollback()
	mustExec(t, c, `DROP INDEX r_grp`)
	w, err = c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := w.LookupByIndex(&ix, []record.Value{record.Text("b")}); !errors.Is(err, ErrNoIndex) {
		t.Errorf("lookup through a handle on a dropped index: %v", err)
	}
}

func TestTableWriterRollback(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE r (a)`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	w.Rollback()
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM r`), "0")
}

func TestTableWriterJoinsExplicitTx(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE r (a)`)
	mustExec(t, c, `BEGIN`)
	w, err := c.OpenTableWriter("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil { // hand-off, not a real commit
		t.Fatal(err)
	}
	mustExec(t, c, `ROLLBACK`) // the enclosing tx still owns the write
	expectRows(t, q(t, c, `SELECT COUNT(*) FROM r`), "0")
}

func TestTableWriterMissingTable(t *testing.T) {
	c := testConn(t)
	if _, err := c.OpenTableWriter("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
}

func TestColumnsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a, b)`)
	cols, err := c.ColumnsSet(`SELECT a, b AS bee, COUNT(*) AS cnt FROM t GROUP BY a`, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || cols[0] != "a" || cols[1] != "bee" || cols[2] != "cnt" {
		t.Errorf("Columns: %v", cols)
	}
	// Planning only: no rows touched, works on empty tables.
	if _, err := c.ColumnsSet(`INSERT INTO t VALUES (1, 2)`, nil, 0); err == nil {
		t.Error("Columns should reject non-SELECT")
	}
	// Snapshot-bound schema.
	mustExec(t, c, `BEGIN; COMMIT WITH SNAPSHOT`)
	mustExec(t, c, `DROP TABLE t`)
	if _, err := c.ColumnsSet(`SELECT * FROM t`, nil, 1); err != nil {
		t.Errorf("Columns over snapshot schema: %v", err)
	}
	if _, err := c.ColumnsSet(`SELECT * FROM t`, nil, 0); !errors.Is(err, ErrNoTable) {
		t.Errorf("Columns over current schema after drop: %v", err)
	}
}

func TestObjectsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t1 (a)`)
	mustExec(t, c, `CREATE INDEX i1 ON t1 (a)`)
	mustExec(t, c, `CREATE TEMP TABLE tmp1 (b)`)
	objs, err := c.Objects()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]ObjectInfo{}
	for _, o := range objs {
		found[o.Name] = o
	}
	if o := found["t1"]; o.Kind != "table" || o.Temp {
		t.Errorf("t1: %+v", o)
	}
	if o := found["i1"]; o.Kind != "index" || o.Table != "t1" {
		t.Errorf("i1: %+v", o)
	}
	if o := found["tmp1"]; o.Kind != "table" || !o.Temp {
		t.Errorf("tmp1: %+v", o)
	}
}

func TestTableStatsAPI(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a TEXT)`)
	mustExec(t, c, `CREATE INDEX t_a ON t (a)`)
	for i := 0; i < 50; i++ {
		mustExec(t, c, `INSERT INTO t VALUES ('hello world')`)
	}
	st, err := c.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 50 || st.DataBytes == 0 || st.IndexBytes == 0 {
		t.Errorf("TableStats: %+v", st)
	}
	if _, err := c.TableStats("nope"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
}

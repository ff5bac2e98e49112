package sql

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// memoSchema returns the schema m holds now.
func memoSchema(m *schemaMemo) *schema {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// TestWriteReusesSchemaMemo: a write statement takes its schemas from
// the catalog bytes memos as readers do. After a read, an autocommit
// INSERT's write env holds the memo's own *schema for both stores, and
// the INSERT's allocations do not grow with the number of tables in the
// catalog, which a statement that decodes the catalog would.
func TestWriteReusesSchemaMemo(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a INTEGER, b TEXT)`)
	mustExec(t, c, `CREATE TEMP TABLE tt (a INTEGER)`)
	q(t, c, `SELECT a FROM t`)
	q(t, c, `SELECT a FROM tt`)
	mainS, sideS := memoSchema(&c.db.mainMemo), memoSchema(&c.db.sideMemo)
	if mainS == nil || sideS == nil {
		t.Fatal("a read left a memo empty")
	}
	w, err := c.newWriteEnv(false, nil, &ExecStats{})
	if err != nil {
		t.Fatal(err)
	}
	gotMain, gotSide := w.ec.mainSchema, w.ec.sideSchema
	ins, err := Parse(`INSERT INTO t VALUES (1, 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.finish(w.execInsert(ins.(*InsertStmt))); err != nil {
		t.Fatal(err)
	}
	if gotMain != mainS || gotSide != sideS {
		t.Errorf("write env schemas (main %p, side %p) are not the memos' (%p, %p)", gotMain, gotSide, mainS, sideS)
	}

	insertAllocs := func(tables int) float64 {
		c := testConn(t)
		for i := 1; i < tables; i++ {
			mustExec(t, c, fmt.Sprintf(`CREATE TABLE pad%d (a INTEGER, b TEXT, c REAL)`, i))
		}
		mustExec(t, c, `CREATE TABLE t (a INTEGER)`)
		mustExec(t, c, `INSERT INTO t VALUES (0)`)
		return testing.AllocsPerRun(50, func() {
			if err := c.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := insertAllocs(1), insertAllocs(41)
	t.Logf("allocs per INSERT: %.0f with 1 table, %.0f with 41", one, many)
	if many > one+2 {
		t.Errorf("allocs per INSERT grow from %.0f to %.0f between 1 and 41 tables (want at most +2)", one, many)
	}
}

// FuzzCatalogEntry: a catalog entry reaches a replica as page bytes
// from another process. On arbitrary bytes schema.add never panics, and
// every entry it accepts defines exactly one object, filed under its
// lower-cased name, that re-encodes to the same bytes.
func FuzzCatalogEntry(f *testing.F) {
	for _, e := range [][]byte{
		tableEntry(&Table{Name: "T", Root: 3, Cols: []Column{
			{Name: "a,b", Type: "INTEGER", NotNull: true, RowidAlias: true},
			{Name: "c|d\ne", Type: "TEXT"},
			{Name: "f", NotNull: true},
		}}),
		tableEntry(&Table{Name: "empty", Root: 9}),
		indexEntry(&Index{Name: "ik", Table: "T", Root: 4, Cols: []string{"a,b", "c|d\ne"}, Unique: true}),
		indexEntry(&Index{Name: "ix", Table: "t", Root: 1 << 31}),
		viewEntry(&RetroViewDef{Name: "v", Mechanism: "CollateData", Qq: "SELECT 1", Extra: "x", HasExtra: true}),
		{}, {0xff}, {3, 0xff, 5, 't', 'a', 'b', 'l', 'e'},
	} {
		f.Add(e)
	}
	f.Fuzz(func(t *testing.T, val []byte) {
		s := newSchema()
		if s.add(val, false) != nil {
			return
		}
		var objs [][2]string // filed under, name
		var re []byte
		for k, tb := range s.tables {
			objs, re = append(objs, [2]string{k, tb.Name}), tableEntry(tb)
		}
		for k, ix := range s.indexes {
			objs, re = append(objs, [2]string{k, ix.Name}), indexEntry(ix)
		}
		for k, v := range s.views {
			objs, re = append(objs, [2]string{k, v.Name}), viewEntry(v)
		}
		if len(objs) != 1 {
			t.Fatalf("entry %x defined %d objects", val, len(objs))
		}
		if k, name := objs[0][0], objs[0][1]; k != strings.ToLower(name) {
			t.Fatalf("object %q filed under %q", name, k)
		}
		if !bytes.Equal(re, val) {
			t.Fatalf("accepted entry %x re-encodes to %x", val, re)
		}
	})
}

// TestUncommittedDDLInvisible: the memos are shared by every
// connection, and a writer's statements load them through its own
// transaction, so a memo can hold a catalog nobody else may see. While
// one connection holds BEGIN open over CREATE TABLE, CREATE INDEX and
// DROP TABLE, other connections write and read (current and AS OF)
// concurrently and never resolve the new objects or lose the dropped
// one; after a rollback every connection sees the old catalog, after a
// commit the new one.
func TestUncommittedDDLInvisible(t *testing.T) {
	c := testConn(t)
	db := c.db
	mustExec(t, c, `CREATE TABLE base (k INTEGER, v INTEGER)`)
	mustExec(t, c, `INSERT INTO base VALUES (1, 10), (2, 20), (3, 30)`)
	mustExec(t, c, `CREATE TABLE w (n INTEGER)`)
	mustExec(t, c, `CREATE TEMP TABLE tw (n INTEGER)`)
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO w VALUES (0)`)
	snap, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	conns := []*Conn{c}
	for g := 0; g < workers; g++ {
		conns = append(conns, db.Conn())
	}
	// objects lists a connection's view of the catalog, temp tables left
	// out.
	objects := func(conn *Conn) (string, error) {
		objs, err := conn.Objects()
		var out []string
		for _, o := range objs {
			if !o.Temp {
				out = append(out, o.Kind+":"+o.Name)
			}
		}
		sort.Strings(out)
		return strings.Join(out, " "), err
	}

	for r := 0; r < 6; r++ {
		commit := r%2 == 1
		old, fresh, ix := fmt.Sprintf("old%d", r), fmt.Sprintf("new%d", r), fmt.Sprintf("ix%d", r)
		mustExec(t, c, fmt.Sprintf(`CREATE TABLE %s (x INTEGER)`, old))
		mustExec(t, c, fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, old, r))
		before, err := objects(c)
		if err != nil {
			t.Fatal(err)
		}

		// invisible is what every other connection must see while the
		// DDL transaction is open.
		invisible := func(conn *Conn) error {
			for _, stmt := range []string{
				fmt.Sprintf(`SELECT y FROM %s`, fresh),
				fmt.Sprintf(`SELECT AS OF %d y FROM %s`, snap, fresh),
				fmt.Sprintf(`INSERT INTO %s VALUES (1)`, fresh),
			} {
				if err := conn.Exec(stmt, nil); !errors.Is(err, ErrNoTable) {
					return fmt.Errorf("%s: %v, want ErrNoTable", stmt, err)
				}
			}
			rows, err := conn.Query(fmt.Sprintf(`SELECT x FROM %s`, old))
			if err != nil {
				return fmt.Errorf("read of %s: %v", old, err)
			}
			if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != int64(r) {
				return fmt.Errorf("%s reads %v", old, rows.Rows)
			}
			if got, err := objects(conn); err != nil || got != before {
				return fmt.Errorf("catalog %q (%v), want %q", got, err, before)
			}
			return nil
		}

		// The workers run until the DDL transaction's statements are
		// done, and at least 20 operations each.
		ddl := db.Conn()
		stop := make(chan struct{})
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for g := 1; g <= workers; g++ {
			wg.Add(1)
			go func(conn *Conn, g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if i >= 20 {
						select {
						case <-stop:
							return
						default:
						}
					}
					var err error
					switch (g + i) % 4 {
					case 0:
						err = conn.Exec(fmt.Sprintf(`INSERT INTO w VALUES (%d)`, i), nil)
					case 1:
						err = conn.Exec(fmt.Sprintf(`INSERT INTO tw VALUES (%d)`, i), nil)
					case 2:
						_, err = conn.Query(fmt.Sprintf(`SELECT AS OF %d COUNT(*) FROM base WHERE v = 20`, snap))
					default:
						_, err = conn.Query(`SELECT k FROM base WHERE v = 20`)
					}
					if err == nil {
						err = invisible(conn)
					}
					if err != nil {
						errs <- fmt.Errorf("round %d, conn %d: %w", r, g, err)
						return
					}
				}
			}(conns[g], g)
		}
		mustExec(t, ddl, `BEGIN`)
		mustExec(t, ddl, fmt.Sprintf(`CREATE TABLE %s (y INTEGER)`, fresh))
		mustExec(t, ddl, fmt.Sprintf(`CREATE INDEX %s ON base (v)`, ix))
		mustExec(t, ddl, fmt.Sprintf(`DROP TABLE %s`, old))
		mustExec(t, ddl, fmt.Sprintf(`INSERT INTO %s SELECT k FROM base WHERE v = 20`, fresh))
		expectRows(t, q(t, ddl, fmt.Sprintf(`SELECT y FROM %s`, fresh)), "2")
		if err := ddl.Exec(fmt.Sprintf(`SELECT x FROM %s`, old), nil); !errors.Is(err, ErrNoTable) {
			t.Fatalf("the DDL transaction reads its dropped %s: %v", old, err)
		}
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := invisible(c); err != nil {
			t.Fatal(err)
		}

		if commit {
			mustExec(t, ddl, `COMMIT`)
		} else {
			mustExec(t, ddl, `ROLLBACK`)
		}
		for n, conn := range append(conns, ddl) {
			if !commit {
				if err := invisible(conn); err != nil {
					t.Fatalf("round %d, after ROLLBACK, conn %d: %v", r, n, err)
				}
				continue
			}
			expectRows(t, q(t, conn, fmt.Sprintf(`SELECT y FROM %s`, fresh)), "2")
			if err := conn.Exec(fmt.Sprintf(`SELECT x FROM %s`, old), nil); !errors.Is(err, ErrNoTable) {
				t.Fatalf("round %d, after COMMIT, conn %d reads the dropped %s: %v", r, n, old, err)
			}
			if got, err := objects(conn); err != nil || !strings.Contains(got, "index:"+ix) || !strings.Contains(got, "table:"+fresh) {
				t.Fatalf("round %d, after COMMIT, conn %d: catalog %q (%v) lacks %s or %s", r, n, got, err, ix, fresh)
			}
		}
	}
}

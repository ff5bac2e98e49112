package sql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/storage"
)

// TestExplicitTxConflict pins the SQL surface of first-committer-wins:
// two explicit transactions staged against the same baseline insert
// into the same table (hence the same leaf page); the first COMMIT
// wins, the second surfaces ErrWriteConflict and is rolled back.
func TestExplicitTxConflict(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c1, c2 := db.Conn(), db.Conn()
	mustExec(t, c1, `CREATE TABLE t (a INTEGER)`)

	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Begin(); err != nil {
		t.Fatal(err, "BEGIN must not block on another open transaction")
	}
	mustExec(t, c1, `INSERT INTO t VALUES (1)`)
	mustExec(t, c2, `INSERT INTO t VALUES (2)`)
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Commit(); !errors.Is(err, storage.ErrWriteConflict) {
		t.Fatalf("second COMMIT = %v, want ErrWriteConflict", err)
	}
	if got := q(t, c1, `SELECT a FROM t`); len(got) != 1 || got[0] != "1" {
		t.Fatalf("table = %v, want only the winner's row", got)
	}
	if c2.InTx() {
		t.Error("losing transaction should be closed after the conflict")
	}
	if st := db.MainStore().Stats(); st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}

	// The loser retries on a fresh snapshot and succeeds.
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c2, `INSERT INTO t VALUES (2)`)
	if err := c2.Commit(); err != nil {
		t.Fatalf("retried COMMIT: %v", err)
	}
	if got := q(t, c1, `SELECT a FROM t ORDER BY a`); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("table after retry = %v", got)
	}
}

// TestAutocommitConflictRetry hammers one table with concurrent
// autocommit INSERTs from many connections: the engine's transparent
// conflict retry must land every row exactly once.
func TestAutocommitConflictRetry(t *testing.T) {
	const writers, each = 8, 25
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := db.Conn()
	mustExec(t, setup, `CREATE TABLE t (w INTEGER, i INTEGER)`)

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := db.Conn()
			for i := 0; i < each; i++ {
				if err := c.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, w, i), nil); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := q(t, setup, `SELECT COUNT(*), COUNT(DISTINCT w) FROM t`)
	if len(got) != 1 || got[0] != fmt.Sprintf("%d|%d", writers*each, writers) {
		t.Fatalf("after concurrent autocommit inserts: %v, want [%d|%d]",
			got, writers*each, writers)
	}
	st := db.MainStore().Stats()
	if st.Commits < writers*each {
		t.Errorf("Commits = %d, want >= %d", st.Commits, writers*each)
	}
	t.Logf("groups=%d commits=%d conflicts=%d", st.Groups, st.Commits, st.Conflicts)
}

// TestConnContextCancelsWriterWait: every writer transaction a
// connection opens — BEGIN, an autocommit statement and a TableWriter,
// on either store — runs under the connection's ambient context. A
// cancelled context fails each of them fast, and a commit parked in the
// commit queue is abandoned when the context fires.
func TestConnContextCancelsWriterWait(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	c := db.Conn()
	mustExec(t, c, `CREATE TEMP TABLE s (a INTEGER)`)
	mustExec(t, c, `CREATE TABLE m (a INTEGER)`)

	ctx, cancel := context.WithCancel(context.Background())
	c2 := db.Conn()
	c2.SetContext(ctx)

	// A result writer parked in the side store's commit queue (the
	// commit path is quiesced, so no leader claims it) gives up its slot
	// when the session's context fires, and leaves nothing behind.
	w, err := c2.OpenTableWriter("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert([]record.Value{record.Int(7)}); err != nil {
		t.Fatal(err)
	}
	release, err := db.side.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- w.Commit() }()
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued TableWriter commit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TableWriter commit ignored the connection's context: still queued")
	}
	release()
	if rows := q(t, c, `SELECT a FROM s`); len(rows) != 0 {
		t.Fatalf("abandoned writer left rows behind: %v", rows)
	}

	// An already-cancelled context fails every kind of writer Begin fast.
	if err := c2.Exec(`INSERT INTO s VALUES (1)`, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("side write with cancelled ctx = %v, want context.Canceled", err)
	}
	if err := c2.Begin(); !errors.Is(err, context.Canceled) {
		t.Fatalf("BEGIN with cancelled ctx = %v, want context.Canceled", err)
	}
	for _, table := range []string{"s", "m"} {
		if _, err := c2.OpenTableWriter(table); !errors.Is(err, context.Canceled) {
			t.Fatalf("OpenTableWriter(%s) with cancelled ctx = %v, want context.Canceled", table, err)
		}
	}
	// Clearing the context restores normal operation.
	c2.SetContext(nil)
	mustExec(t, c2, `INSERT INTO s VALUES (2)`)
}

// TestSideStoreWritersStageConcurrently: the side store commits like
// the main store. A result writer held open on TEMP table a — what a
// mechanism does for its whole sweep — blocks no other session's TEMP
// DDL or DML; both land, on disjoint pages, without a conflict.
func TestSideStoreWritersStageConcurrently(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	c1 := db.Conn()
	mustExec(t, c1, `CREATE TEMP TABLE a (i INTEGER)`)
	w, err := c1.OpenTableWriter("a")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Rollback()
	for i := 0; i < 100; i++ {
		if _, err := w.Insert([]record.Value{record.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c2 := db.Conn()
	c2.SetContext(ctx)
	for _, stmt := range []string{
		`CREATE TEMP TABLE b (i INTEGER)`,
		`INSERT INTO b VALUES (1)`,
		`INSERT INTO b VALUES (2)`,
		`DROP TABLE b`,
		`CREATE TEMP TABLE b2 (i INTEGER)`,
		`INSERT INTO b2 VALUES (3)`,
	} {
		if err := c2.Exec(stmt, nil); err != nil {
			t.Fatalf("%s beside an open TableWriter: %v", stmt, err)
		}
	}

	if err := w.Commit(); err != nil {
		t.Fatalf("TableWriter commit after the other session's writes: %v", err)
	}
	if got := q(t, c1, `SELECT COUNT(*) FROM a`); fmt.Sprint(got) != "[100]" {
		t.Fatalf("a = %v, want 100 rows", got)
	}
	if got := q(t, c1, `SELECT i FROM b2`); fmt.Sprint(got) != "[3]" {
		t.Fatalf("b2 = %v, want [3]", got)
	}
	if st := db.SideStore().Stats(); st.Conflicts != 0 || st.InvariantViolations != 0 {
		t.Errorf("side store: conflicts=%d invariant_violations=%d, want 0 and 0 (disjoint pages)",
			st.Conflicts, st.InvariantViolations)
	}
}

// TestSideStoreConflictRetryInsideBegin: a side-store statement
// autocommits even inside an explicit main-store transaction, so it is
// the engine's to retry when it loses first-committer-wins. Two
// sessions race TEMP DDL — every CREATE and DROP rewrites the side
// catalog — one of them inside BEGIN; no conflict may surface.
func TestSideStoreConflictRetryInsideBegin(t *testing.T) {
	const rounds = 200
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := db.Conn()
	mustExec(t, setup, `CREATE TABLE m (i INTEGER)`)

	race := func(c *Conn, name string) error {
		for i := 0; i < rounds; i++ {
			if err := c.Exec(`CREATE TEMP TABLE `+name+` (i INTEGER)`, nil); err != nil {
				return fmt.Errorf("round %d: CREATE TEMP TABLE %s: %w", i, name, err)
			}
			if err := c.Exec(`DROP TABLE `+name, nil); err != nil {
				return fmt.Errorf("round %d: DROP TABLE %s: %w", i, name, err)
			}
		}
		return nil
	}
	inTx, plain := db.Conn(), db.Conn()
	if err := inTx.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, inTx, `INSERT INTO m VALUES (1)`)
	errs := make(chan error, 2)
	go func() { errs <- race(inTx, "a") }()
	go func() { errs <- race(plain, "b") }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := inTx.Commit(); err != nil {
		t.Fatalf("COMMIT of the explicit transaction: %v", err)
	}
	if got := q(t, setup, `SELECT i FROM m`); fmt.Sprint(got) != "[1]" {
		t.Fatalf("m = %v, want the explicit transaction's one row", got)
	}
	st := db.SideStore().Stats()
	t.Logf("side store: commits=%d conflicts=%d groups=%d", st.Commits, st.Conflicts, st.Groups)
	if st.InvariantViolations != 0 {
		t.Errorf("invariant_violations = %d, want 0", st.InvariantViolations)
	}
}

// TestWriteEnvErrorReleasesWriter: when a write statement's
// environment cannot be built — here the other store is closed, as
// when DB.Close races a statement — the statement fails with the
// store's error and the writer transaction it had already opened is
// rolled back, MVCC pin included. ApplyBootstrap refuses a store with
// any pin left, which makes it the probe.
func TestWriteEnvErrorReleasesWriter(t *testing.T) {
	for _, tc := range []struct {
		name, stmt string
		closed     func(*DB) *storage.Store // the read-only side of stmt
		target     func(*DB) *storage.Store // where stmt's writer runs
	}{
		{"main closed", `CREATE TEMP TABLE t (a INTEGER)`, (*DB).MainStore, (*DB).SideStore},
		{"side closed", `CREATE TABLE t (a INTEGER)`, (*DB).SideStore, (*DB).MainStore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tc.closed(db).Close()
			c := db.Conn()
			if err := c.Exec(tc.stmt, nil); !errors.Is(err, storage.ErrStoreClosed) {
				t.Fatalf("%s: err = %v, want ErrStoreClosed", tc.stmt, err)
			}
			st := tc.target(db)
			if err := st.ApplyBootstrap(st.LSN(), 0, nil, nil); err != nil {
				t.Fatalf("writer store after the failed statement: %v", err)
			}
		})
	}
}

package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/client"
)

// startServer serves a fresh in-memory database on a random local port
// and returns the server plus its address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg.Addr = "127.0.0.1:0"
	srv := New(db, cfg)
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, lis.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEnd drives the full remote journey: DDL, DML, snapshot
// declaration, AS OF reads, a mechanism run, and the introspection
// requests — the same sequence the quickstart runs in-process.
func TestEndToEnd(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	mustExec := func(sqlText string, params ...rql.Value) {
		t.Helper()
		if err := c.Exec(sqlText, nil, params...); err != nil {
			t.Fatalf("%s: %v", sqlText, err)
		}
	}
	mustExec(`CREATE TABLE logged_in (user TEXT, country TEXT)`)
	mustExec(`INSERT INTO logged_in VALUES ('ann', 'USA'), ('bob', 'GER')`)

	snap1, err := c.DeclareSnapshot("day-1")
	if err != nil {
		t.Fatal(err)
	}
	if snap1 == 0 {
		t.Fatal("snapshot id should be non-zero")
	}
	mustExec(`DELETE FROM logged_in WHERE user = 'ann'`)
	mustExec(`INSERT INTO logged_in VALUES (?, ?)`, rql.Text("cyd"), rql.Text("USA"))
	snap2, err := c.DeclareSnapshot("day-2")
	if err != nil {
		t.Fatal(err)
	}
	if snap2 <= snap1 {
		t.Fatalf("snapshot ids should increase: %d then %d", snap1, snap2)
	}

	// Current state vs AS OF vs ExecAsOf.
	rows, err := c.Query(`SELECT user FROM logged_in ORDER BY user`)
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rows); got != "bob,cyd" {
		t.Fatalf("current state = %q, want bob,cyd", got)
	}
	rows, err = c.Query(fmt.Sprintf(`SELECT AS OF %d user FROM logged_in ORDER BY user`, snap1))
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rows); got != "ann,bob" {
		t.Fatalf("AS OF %d = %q, want ann,bob", snap1, got)
	}
	var asOfRows []string
	err = c.ExecAsOf(`SELECT user FROM logged_in ORDER BY user`, snap1, func(cols []string, row []rql.Value) error {
		asOfRows = append(asOfRows, row[0].Text())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(asOfRows, ","); got != "ann,bob" {
		t.Fatalf("ExecAsOf = %q, want ann,bob", got)
	}
	if st := c.LastStats(); st.RowsReturned != 2 {
		t.Fatalf("LastStats.RowsReturned = %d, want 2", st.RowsReturned)
	}

	// A statement error arrives as RemoteError and leaves the
	// connection usable.
	if err := c.Exec(`SELECT * FROM nope`, nil); err == nil {
		t.Fatal("query on a missing table should fail")
	} else if _, ok := err.(*client.RemoteError); !ok {
		t.Fatalf("error should be *RemoteError, got %T: %v", err, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection should survive a statement error: %v", err)
	}

	// Remote mechanism run over both snapshots.
	run, err := c.CollateData(
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT user, current_snapshot() AS sid FROM logged_in`,
		"Result")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Iterations) != 2 || run.Mechanism != "CollateData" {
		t.Fatalf("run = %s over %d iterations, want CollateData over 2", run.Mechanism, len(run.Iterations))
	}
	rows, err = c.Query(`SELECT COUNT(*) FROM Result`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Rows[0][0].Int(); n != 4 {
		t.Fatalf("Result has %d rows, want 4 (2 users per snapshot)", n)
	}
	lr, err := c.LastRun()
	if err != nil {
		t.Fatal(err)
	}
	if lr == nil || lr.Mechanism != "CollateData" {
		t.Fatalf("LastRun = %+v, want the CollateData run", lr)
	}

	// Introspection.
	objs, err := c.Objects()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, o := range objs {
		names[o.Name] = true
	}
	for _, want := range []string{"logged_in", "SnapIds", "Result"} {
		if !names[want] {
			t.Errorf("Objects misses %s (got %v)", want, objs)
		}
	}
	ts, err := c.TableStats("logged_in")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 2 {
		t.Fatalf("TableStats.Rows = %d, want 2", ts.Rows)
	}

	// STATS counters must be live.
	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"conns_accepted", "conns_active", "queries_served",
		"rows_streamed", "storage_commits", "errors"} {
		if ss.Value(name) == 0 {
			t.Fatalf("STATS %s should be non-zero, got %+v", name, ss)
		}
	}
	if got := ss.Value("retro_snapshots"); got < 2 {
		t.Fatalf("STATS retro_snapshots = %d, want >= 2", got)
	}
	var observed uint64
	for _, b := range ss.LatencyBuckets {
		observed += b
	}
	if observed == 0 {
		t.Fatal("latency histogram should have observations")
	}
	// The histogram observes every request (including pings and the
	// introspection opcodes), so it can only exceed the query counter.
	if observed < ss.Value("queries_served") {
		t.Fatalf("histogram total %d < queries served %d", observed, ss.Value("queries_served"))
	}
}

// TestTransactions exercises the explicit-transaction surface remotely,
// including COMMIT WITH SNAPSHOT and rollback.
func TestTransactions(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)

	if err := c.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !c.InTx() {
		t.Fatal("InTx should be true after BEGIN")
	}
	if err := c.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == 0 || c.InTx() {
		t.Fatalf("snapshot = %d, inTx = %v after COMMIT WITH SNAPSHOT", snap, c.InTx())
	}
	if got := c.LastSnapshot(); got != snap {
		t.Fatalf("LastSnapshot = %d, want %d", got, snap)
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`DELETE FROM t`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Rows[0][0].Int(); n != 1 {
		t.Fatalf("COUNT after rollback = %d, want 1", n)
	}
}

// TestDisconnectReleasesWriterLock kills a client mid-transaction and
// checks the session teardown rolls back its staged write set — under
// group commit a BEGIN holds no lock, but the staged transaction pins
// its MVCC baseline and its allocations, and teardown must release
// both without poisoning the commit queue for later sessions.
func TestDisconnectReleasesWriterLock(t *testing.T) {
	_, addr := startServer(t, Config{})

	c1 := dial(t, addr)
	if err := c1.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
		t.Fatal(err)
	}
	c1.Close() // dies holding the writer lock

	c2 := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- c2.Exec(`INSERT INTO t VALUES (2)`, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer lock was not released by the dead session")
	}
	rows, err := c2.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rows); got != "2" {
		t.Fatalf("table = %q, want just the second client's row (first rolled back)", got)
	}

	// The commit queue outlives the dead session: explicit transactions
	// and snapshot declarations keep working, and the dead session's
	// staged pages were reclaimed rather than leaked into a snapshot.
	if err := c2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Exec(`INSERT INTO t VALUES (3)`, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := c2.CommitWithSnapshot()
	if err != nil {
		t.Fatalf("COMMIT WITH SNAPSHOT after dead session: %v", err)
	}
	rows, err = c2.Query(fmt.Sprintf(`SELECT AS OF %d a FROM t`, snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rows); got != "2,3" {
		t.Fatalf("snapshot state = %q, want \"2,3\"", got)
	}
}

// TestSessionIsolation checks that per-session state (explicit
// transactions, temp-table visibility conventions) does not leak:
// one session's open transaction is invisible to another's reads.
func TestSessionIsolation(t *testing.T) {
	_, addr := startServer(t, Config{})
	c1 := dial(t, addr)
	c2 := dial(t, addr)

	if err := c1.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Exec(`INSERT INTO t VALUES (2)`, nil); err != nil {
		t.Fatal(err)
	}
	// c2 must read committed state only while c1's transaction is open.
	rows, err := c2.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Rows[0][0].Int(); n != 1 {
		t.Fatalf("uncommitted row visible to another session: COUNT = %d, want 1", n)
	}
	if c2.InTx() {
		t.Fatal("c1's transaction leaked into c2's session state")
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err = c2.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Rows[0][0].Int(); n != 2 {
		t.Fatalf("COUNT after commit = %d, want 2", n)
	}
}

// TestRequestDeadline sets a tiny per-request deadline and checks a
// row-streaming query is aborted with an error frame while the
// connection itself stays up for the next request.
func TestRequestDeadline(t *testing.T) {
	srv, addr := startServer(t, Config{RequestTimeout: time.Nanosecond})
	c := dial(t, addr)

	// DDL/DML produce no rows, so the callback-based deadline check
	// never fires on them; seed through the server's own DB instead.
	seed := srv.DB().Conn()
	if err := seed.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := seed.Exec(`INSERT INTO t VALUES (1), (2), (3)`, nil); err != nil {
		t.Fatal(err)
	}

	err := c.Exec(`SELECT a FROM t`, nil)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if _, ok := err.(*client.RemoteError); !ok {
		t.Fatalf("deadline error should be *RemoteError, got %T", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection should survive a deadline abort: %v", err)
	}
}

// TestLargeResultStreams pushes a result through many row batches and
// checks nothing is lost or reordered.
func TestLargeResultStreams(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dial(t, addr)

	seed := srv.DB().Conn()
	if err := seed.Exec(`CREATE TABLE big (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	const n = 3000 // ~12 batches of 256
	if err := seed.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := seed.Exec(`INSERT INTO big VALUES (?)`, nil, rql.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	next := int64(0)
	err := c.Exec(`SELECT a FROM big ORDER BY a`, func(cols []string, row []rql.Value) error {
		if got := row[0].Int(); got != next {
			return fmt.Errorf("row %d has value %d", next, got)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("streamed %d rows, want %d", next, n)
	}
	ss, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.Value("rows_streamed"); got < n {
		t.Fatalf("rows_streamed = %d, want >= %d", got, n)
	}
}

// TestGracefulShutdown starts a streaming query, shuts the server down
// mid-flight, and checks the request completes before the session dies.
func TestGracefulShutdown(t *testing.T) {
	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seed := db.Conn()
	if err := seed.Exec(`CREATE TABLE t (a INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := seed.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := seed.Exec(`INSERT INTO t VALUES (?)`, nil, rql.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	srv := New(db, Config{Addr: "127.0.0.1:0", DrainTimeout: 10 * time.Second})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	idle, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	// The in-flight request throttles itself so Shutdown demonstrably
	// overlaps it: the callback sleeps per row.
	inFlight := make(chan struct{})
	result := make(chan error, 1)
	rows := 0
	go func() {
		result <- busy.Exec(`SELECT a FROM t`, func(cols []string, row []rql.Value) error {
			if rows == 0 {
				close(inFlight)
			}
			rows++
			time.Sleep(time.Millisecond)
			return nil
		})
	}()

	<-inFlight
	srv.Shutdown()
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if err := <-result; err != nil {
		t.Fatalf("in-flight request should drain cleanly, got %v", err)
	}
	if rows != 500 {
		t.Fatalf("drained request streamed %d rows, want 500", rows)
	}

	// After shutdown: existing sessions are gone and new ones refused.
	if err := idle.Ping(); err == nil {
		t.Fatal("idle session should be closed by shutdown")
	}
	if _, err := client.DialTimeout(lis.Addr().String(), time.Second); err == nil {
		t.Fatal("dial after shutdown should fail")
	}
}

func flatten(rows *rql.Rows) string {
	var parts []string
	for _, r := range rows.Rows {
		for _, v := range r {
			parts = append(parts, v.String())
		}
	}
	return strings.Join(parts, ",")
}

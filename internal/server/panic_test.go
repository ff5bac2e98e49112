package server

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"rql"
	"rql/client"
)

// TestPanickingRequestIsContained: a request that panics — here through
// a registered scalar function — fails alone. Its client gets an error
// and its open transaction rolls back with the session; every other
// session keeps reading and writing; the panic is counted; and the same
// function under a mechanism's Qq fails that request's session alone.
func TestPanickingRequestIsContained(t *testing.T) {
	srv, addr := startServer(t, Config{})
	srv.DB().RegisterFunc(rql.FuncDef{Name: "boom", MinArgs: 1, MaxArgs: 1,
		Fn: func(*rql.FuncContext, []rql.Value) (rql.Value, error) { panic("boom called") }})

	a, b := dial(t, addr), dial(t, addr)
	for _, stmt := range []string{
		`CREATE TABLE t (k INTEGER PRIMARY KEY)`,
		`INSERT INTO t VALUES (1)`,
		`BEGIN`,
		`INSERT INTO t VALUES (2)`,
	} {
		if err := a.Exec(stmt, nil); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	err := a.Exec(`SELECT boom(k) FROM t`, nil)
	var remote *client.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "boom called") {
		t.Fatalf("panicking request returned %v, want a RemoteError naming the panic", err)
	}
	if err := a.Ping(); err == nil {
		t.Error("the panicked session is still serving")
	}

	// The other session writes (the dead session's transaction released
	// the writer) and reads: the uncommitted row 2 never happened.
	if err := b.Exec(`INSERT INTO t VALUES (3)`, nil); err != nil {
		t.Fatalf("write on a second session after the panic: %v", err)
	}
	rows, err := b.Query(`SELECT k FROM t ORDER BY k`)
	if err != nil {
		t.Fatalf("read on a second session after the panic: %v", err)
	}
	if len(rows.Rows) != 2 || rows.Rows[0][0].Int() != 1 || rows.Rows[1][0].Int() != 3 {
		t.Errorf("t holds %v after the panic, want rows 1 and 3", rows.Rows)
	}

	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "rql_panics_total 1\n") {
		t.Errorf("/metrics does not count the panic:\n%s", body)
	}

	for _, label := range []string{"s1", "s2", "s3", "s4"} {
		if _, err := b.DeclareSnapshot(label); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	_, err = c.CollateData(`SELECT snap_id FROM SnapIds`, `SELECT boom(k) FROM t`, "R")
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "boom called") {
		t.Fatalf("mechanism over a panicking Qq returned %v, want a RemoteError naming the panic", err)
	}
	if err := b.Ping(); err != nil {
		t.Errorf("session after the failed mechanism run: %v", err)
	}
	rec = httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "rql_panics_total 2\n") {
		t.Errorf("/metrics does not count the second panic:\n%s", body)
	}
}

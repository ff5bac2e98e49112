package sql

import (
	"fmt"
	"rql/internal/record"
	"strings"
	"testing"
)

// qSet collects the rows of one SELECT executed via ExecAsOfSet.
func qSet(t *testing.T, c *Conn, sqlText string, set *ReaderSet, asOf uint64) []string {
	t.Helper()
	var out []string
	err := c.ExecAsOfSet(sqlText, set, asOf, func(cols []string, row []record.Value) error {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
		return nil
	})
	if err != nil {
		t.Fatalf("ExecAsOfSet(%q, asOf=%d): %v", sqlText, asOf, err)
	}
	return out
}

// qAsOf collects the rows of one SELECT executed via the per-iteration
// ExecAsOf path (fresh SPT per call) — the reference for qSet.
func qAsOf(t *testing.T, c *Conn, sqlText string, asOf uint64) []string {
	t.Helper()
	var out []string
	err := c.ExecAsOf(sqlText, asOf, func(cols []string, row []record.Value) error {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
		return nil
	})
	if err != nil {
		t.Fatalf("ExecAsOf(%q, asOf=%d): %v", sqlText, asOf, err)
	}
	return out
}

// snapHistory builds a table whose contents differ at every snapshot:
// snapshot i sees rows 1..i with val = i*row. Returns the snapshot ids.
func snapHistory(t *testing.T, c *Conn, snaps int) []uint64 {
	t.Helper()
	mustExec(t, c, `CREATE TABLE h (id INTEGER PRIMARY KEY, val INTEGER)`)
	ids := make([]uint64, 0, snaps)
	for i := 1; i <= snaps; i++ {
		mustExec(t, c, fmt.Sprintf(`BEGIN;
			INSERT INTO h VALUES (%d, 0);
			UPDATE h SET val = id * %d;
			COMMIT WITH SNAPSHOT`, i, i))
		ids = append(ids, c.LastSnapshot())
	}
	return ids
}

func TestExecAsOfSetMatchesExecAsOf(t *testing.T) {
	c := testConn(t)
	snaps := snapHistory(t, c, 8)
	// Keep mutating after the last snapshot so set readers must not
	// leak current state.
	mustExec(t, c, `UPDATE h SET val = -1`)

	// Open a set over a strict subset; one member repeated. A reset
	// first, so the set's open is the one that hashes its members'
	// segment tables.
	c.db.rsys.ResetCache()
	members := []uint64{snaps[0], snaps[3], snaps[6], snaps[3]}
	set, err := c.OpenSnapshotSet(members)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	if got := set.Snapshots(); len(got) != 3 {
		t.Fatalf("Snapshots() = %v, want 3 distinct members", got)
	}
	if set.Scanned() == 0 {
		t.Error("set open on a reset system reported zero Maplog entries hashed")
	}

	const query = `SELECT id, val FROM h ORDER BY id`
	// Every snapshot — member or not — must read identically through
	// the set API (non-members fall back to a standalone open).
	for _, s := range snaps {
		want := qAsOf(t, c, query, s)
		got := qSet(t, c, query, set, s)
		expectRows(t, got, want...)
	}
	// And a second pass over the members must be stable (cached SPTs).
	for _, s := range []uint64{snaps[0], snaps[3], snaps[6]} {
		want := qAsOf(t, c, query, s)
		expectRows(t, qSet(t, c, query, set, s), want...)
	}
}

func TestExecAsOfSetRejectsWrites(t *testing.T) {
	c := testConn(t)
	snaps := snapHistory(t, c, 2)
	set, err := c.OpenSnapshotSet(snaps)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	err = c.ExecAsOfSet(`INSERT INTO h VALUES (99, 99)`, set, snaps[0], nil)
	if err == nil {
		t.Fatal("write under a snapshot binding must fail")
	}
}

func TestParseCacheReuseAndEviction(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a INTEGER)`)

	const query = `SELECT a FROM t`
	s1, err := c.stmts.parse(query)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.stmts.parse(query)
	if err != nil {
		t.Fatal(err)
	}
	if &s1[0] != &s2[0] {
		t.Error("repeated parse of identical text did not reuse the cached AST")
	}

	// Overflow the cache: the oldest entry is evicted, the cap holds.
	for i := 0; i < stmtCacheCap+10; i++ {
		if _, err := c.stmts.parse(fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.stmts.texts) > stmtCacheCap {
		t.Errorf("parse cache grew to %d entries, cap is %d", len(c.stmts.texts), stmtCacheCap)
	}
	if _, ok := c.stmts.texts[query]; ok {
		t.Error("oldest cache entry survived eviction")
	}
	// Parse errors are not cached.
	if _, err := c.stmts.parse(`SELEC nope`); err == nil {
		t.Fatal("invalid SQL must fail")
	}
	if _, ok := c.stmts.texts[`SELEC nope`]; ok {
		t.Error("a parse error was cached")
	}
}

func TestColumnsSetMatchesColumns(t *testing.T) {
	c := testConn(t)
	snaps := snapHistory(t, c, 2)
	set, err := c.OpenSnapshotSet(snaps)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	want, err := c.ColumnsSet(`SELECT id, val FROM h`, nil, snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ColumnsSet(`SELECT id, val FROM h`, set, snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ColumnsSet = %v, want %v", got, want)
	}
}

package sql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rql/internal/obs"
	"rql/internal/record"
)

// schemaChangeHistory declares 12 snapshots of table m: 4 as created,
// 4 after CREATE INDEX m_k, and 4 after m is dropped and created again
// with its columns in another order. It returns the snapshot ids and the
// position of the first snapshot of each catalog.
func schemaChangeHistory(t *testing.T, c *Conn) (snaps []uint64, firsts []int) {
	t.Helper()
	declare := func(s int, cols string, vals func(k int) string) {
		mustExec(t, c, `BEGIN`)
		for k := 0; k < 6; k++ {
			mustExec(t, c, fmt.Sprintf(`INSERT INTO m (%s) VALUES (%s)`, cols, vals((s+k)%9)))
		}
		mustExec(t, c, `DELETE FROM m WHERE k < `+fmt.Sprint(s%3))
		mustExec(t, c, `COMMIT WITH SNAPSHOT`)
		snaps = append(snaps, c.LastSnapshot())
	}
	kgv := func(k int) string { return fmt.Sprintf("%d, 'g%d', %d", k, k%3, k*10) }
	vgk := func(k int) string { return fmt.Sprintf("%d, 'g%d', %d", k*10, k%3, k) }
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	for s := 0; s < 12; s++ {
		switch s {
		case 4:
			mustExec(t, c, `CREATE INDEX m_k ON m (k)`)
		case 8:
			mustExec(t, c, `DROP TABLE m`)
			mustExec(t, c, `CREATE TABLE m (v INTEGER, grp TEXT, k INTEGER)`)
		}
		if s%4 == 0 {
			firsts = append(firsts, s)
		}
		if s < 8 {
			declare(s, "k, grp, v", kgv)
		} else {
			declare(s, "v, grp, k", vgk)
		}
	}
	return snaps, firsts
}

// TestExecAsOfSetReplansOnSchemaChange runs Qq over a set whose members
// straddle a CREATE INDEX and a DROP + CREATE TABLE that reorders the
// columns. Every member must read what a standalone AS OF reads, and the
// set's plan must be rebuilt at exactly the members whose catalog
// differs from the member run before — in either member order.
func TestExecAsOfSetReplansOnSchemaChange(t *testing.T) {
	c := testConn(t)
	snaps, firsts := schemaChangeHistory(t, c)

	obs.SetTracing(true)
	defer obs.SetTracing(false)
	for _, desc := range []bool{false, true} {
		for _, qq := range []string{
			`SELECT k, grp, v FROM m WHERE k >= 3 ORDER BY k, v`,
			`SELECT grp, COUNT(*), SUM(v) FROM m WHERE k < 7 GROUP BY grp`,
		} {
			set, err := c.OpenSnapshotSet(snaps)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int, len(snaps))
			for i := range order {
				order[i] = i
				if desc {
					order[i] = len(snaps) - 1 - i
				}
			}
			var planned []int
			for n, i := range order {
				want := qAsOf(t, c.db.Conn(), qq, snaps[i]) // a fresh plan
				expectRows(t, qSet(t, c, qq, set, snaps[i]), want...)
				plans := 0
				for _, sp := range obs.TraceSpans(c.LastTrace()) {
					if sp.Name == "sql.plan" {
						plans++
					}
				}
				if plans > 1 {
					t.Fatalf("%q at snapshot %d: planned %d times", qq, snaps[i], plans)
				}
				if plans == 1 {
					planned = append(planned, n)
				}
			}
			set.Close()
			// A catalog starts at each of firsts ascending; descending, at
			// the member after each catalog's last one.
			var want []int
			for k, f := range firsts {
				if desc {
					want = append(want, len(snaps)-1-(f+3))
				} else {
					want = append(want, firsts[k])
				}
			}
			if fmt.Sprint(planned) != fmt.Sprint(sortedInts(want)) {
				t.Errorf("%q (desc=%v): planned at members %v, want %v", qq, desc, planned, sortedInts(want))
			}
		}
	}
	t.Run("setless", testConnReplansOnSchemaChange)
}

// testConnReplansOnSchemaChange: without a set the Conn keeps the plan
// of a repeated text. A catalog change — an index, a table dropped and
// created again with other columns, a TEMP table shadowing a main one
// and dropped again, an AS OF snapshot whose catalog lacks a column —
// re-plans exactly the next run, and every run reads what a fresh plan
// reads.
func testConnReplansOnSchemaChange(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE x (k INTEGER, v INTEGER)`)
	mustExec(t, c, `INSERT INTO x VALUES (1, 10), (2, 20), (3, 30), (3, 31)`)
	old, err := c.DeclareSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	const point, all = `SELECT k, v FROM x WHERE k = ? ORDER BY v`, `SELECT * FROM x ORDER BY 1, 2`
	step := func(text string, snap uint64, wantPlans int, params ...record.Value) []string {
		t.Helper()
		rows, plans := keptRows(t, c, text, snap, params...)
		if plans != wantPlans {
			t.Fatalf("%q at snapshot %d: planned %d times, want %d", text, snap, plans, wantPlans)
		}
		return rows
	}
	step(point, 0, 1, record.Int(3))
	step(point, 0, 0, record.Int(1))
	if lines := keptPlan(c, point).describe(); strings.Contains(lines, "INDEX") {
		t.Fatalf("plan before CREATE INDEX:\n%s", lines)
	}

	mustExec(t, c, `CREATE INDEX x_k ON x (k)`)
	expectRows(t, step(point, 0, 1, record.Int(3)), "3|30", "3|31")
	if lines := keptPlan(c, point).describe(); !strings.Contains(lines, "USING INDEX") {
		t.Fatalf("plan after CREATE INDEX does not take it:\n%s", lines)
	}
	step(point, 0, 0, record.Int(2))

	step(all, 0, 1)
	mustExec(t, c, `BEGIN; DROP TABLE x; CREATE TABLE x (v TEXT, k INTEGER, w INTEGER);
		INSERT INTO x VALUES ('a', 3, 7), ('b', 9, 8); COMMIT`)
	expectRows(t, step(all, 0, 1), "a|3|7", "b|9|8")
	expectRows(t, step(point, 0, 1, record.Int(3)), "3|a")

	// The old snapshot's x has no w: the kept plan of the current x
	// cannot read it, and the current x is planned again afterwards.
	const withW = `SELECT k, w FROM x ORDER BY k`
	step(withW, 0, 1)
	if err := c.ExecAsOf(withW, old, nil); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("AS OF a catalog without w: err = %v, want ErrNoColumn", err)
	}
	expectRows(t, step(all, old, 1), "1|10", "2|20", "3|30", "3|31")
	expectRows(t, step(withW, 0, 1), "3|7", "9|8")
	step(withW, 0, 0)

	mustExec(t, c, `CREATE TEMP TABLE x (k INTEGER, v INTEGER)`)
	mustExec(t, c, `INSERT INTO x VALUES (5, 50)`)
	expectRows(t, step(all, 0, 1), "5|50")
	mustExec(t, c, `DROP TABLE x`) // the TEMP one
	expectRows(t, step(all, 0, 1), "a|3|7", "b|9|8")
	step(all, 0, 0)
}

// keptPlan returns the plan c keeps for the first statement of text.
func keptPlan(c *Conn, text string) *selectPlan {
	e := c.stmts.texts[text]
	if e == nil || len(e.idle) == 0 || len(e.idle[0].stmts) == 0 {
		return nil
	}
	return e.idle[0].stmts[0]
}

// describe renders the plan's tree as EXPLAIN does.
func (p *selectPlan) describe() string {
	var lines []string
	describe(p.fin, 0, &lines)
	return strings.Join(lines, "\n")
}

// plansIn counts the sql.plan spans of c's last traced statement batch.
func plansIn(c *Conn) int {
	n := 0
	for _, sp := range obs.TraceSpans(c.LastTrace()) {
		if sp.Name == "sql.plan" {
			n++
		}
	}
	return n
}

// keptRows runs text AS OF snap (0: the current state) on c, which
// keeps its plan, and on a fresh connection, which plans it anew, and
// fails unless both return the same rows. It returns them with the
// number of times c planned, which needs tracing on.
func keptRows(t *testing.T, c *Conn, text string, snap uint64, params ...record.Value) ([]string, int) {
	t.Helper()
	if !obs.Enabled() {
		obs.SetTracing(true)
		t.Cleanup(func() { obs.SetTracing(false) })
	}
	run := func(c *Conn) []string {
		var out []string
		err := c.ExecAsOf(text, snap, func(_ []string, row []record.Value) error {
			out = append(out, rowString(row))
			return nil
		}, params...)
		if err != nil {
			t.Fatalf("ExecAsOf(%q, %d): %v", text, snap, err)
		}
		return out
	}
	got := run(c)
	plans := plansIn(c)
	expectRows(t, got, run(c.db.Conn())...)
	return got, plans
}

func rowString(row []record.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// pointFixture declares snapshots of table m (k INTEGER, v INTEGER),
// indexed on k, whose v changes at every snapshot.
func pointFixture(t *testing.T, c *Conn, snaps int) []uint64 {
	t.Helper()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, v INTEGER)`)
	mustExec(t, c, `CREATE INDEX m_k ON m (k)`)
	for k := 0; k < 50; k++ {
		mustExec(t, c, `INSERT INTO m VALUES (?, 0)`, record.Int(int64(k)))
	}
	var ids []uint64
	for i := 1; i <= snaps; i++ {
		mustExec(t, c, `UPDATE m SET v = k * ?`, record.Int(int64(i)))
		id, err := c.DeclareSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestExecReusesPlan: once a text has run, repeated runs of it with
// other parameters and snapshots — its own AS OF ? or ExecAsOf's —
// run the same iterator tree, return what a fresh plan returns, record
// no sql.plan span (the first run records one), and allocate less than
// a run that plans.
func TestExecReusesPlan(t *testing.T) {
	c := testConn(t)
	snaps := pointFixture(t, c, 5)
	for _, text := range []string{
		`SELECT AS OF ? k, v FROM m WHERE k = ?`,
		`SELECT k, v, current_snapshot() FROM m WHERE k >= ? AND k < ? + 3`,
	} {
		params := func(i int) []record.Value {
			if strings.Contains(text, "AS OF") {
				return []record.Value{record.Int(int64(snaps[i%len(snaps)])), record.Int(int64(i % 50))}
			}
			return []record.Value{record.Int(int64(i % 50)), record.Int(int64(i % 50))}
		}
		snap := func(i int) uint64 {
			if strings.Contains(text, "AS OF") {
				return 0
			}
			return snaps[(i+2)%len(snaps)]
		}
		if _, plans := keptRows(t, c, text, snap(0), params(0)...); plans != 1 {
			t.Fatalf("%q: the first run recorded %d sql.plan spans, want 1", text, plans)
		}
		fin := keptPlan(c, text).fin
		for i := 1; i < 12; i++ {
			if _, plans := keptRows(t, c, text, snap(i), params(i)...); plans != 0 {
				t.Fatalf("%q run %d planned again", text, i)
			}
			if got := keptPlan(c, text).fin; got != fin {
				t.Fatalf("%q run %d ran another tree", text, i)
			}
		}

		obs.SetTracing(false)
		n := 0
		run := func() {
			n++
			if err := c.ExecAsOf(text, snap(n), func([]string, []record.Value) error { return nil }, params(n)...); err != nil {
				t.Fatal(err)
			}
		}
		kept := testing.AllocsPerRun(50, run)
		planning := testing.AllocsPerRun(50, func() {
			c.stmts.texts[text].idle = nil // as if planned for this one call
			run()
		})
		t.Logf("%q: %.0f allocations per run on the kept plan, %.0f when it plans", text, kept, planning)
		if kept >= planning {
			t.Errorf("%q: %.0f allocations per run on the kept plan, not fewer than the %.0f of a run that plans", text, kept, planning)
		}
	}
}

// TestKeptRowsOutliveTheNextRun: the rows an Exec callback keeps are
// its own, even though the next run of the text reuses the plan and its
// (poisoned) scan buffers; a callback that runs its own text again on
// its own Conn, mid-run, gets a plan of its own and correct rows at both
// levels.
func TestKeptRowsOutliveTheNextRun(t *testing.T) {
	c := testConn(t) // scan buffers poisoned between rows
	pointFixture(t, c, 1)
	const text = `SELECT k, v FROM m WHERE k < ?`
	var kept [][]record.Value
	collect := func(_ []string, row []record.Value) error {
		kept = append(kept, row)
		return nil
	}
	if err := c.Exec(text, collect, record.Int(5)); err != nil {
		t.Fatal(err)
	}
	first := kept
	kept = nil
	if err := c.Exec(text, collect, record.Int(50)); err != nil {
		t.Fatal(err)
	}
	for i, row := range first {
		if got := rowString(row); got != fmt.Sprintf("%d|%d", i, i) {
			t.Fatalf("kept row %d reads %q after the next run", i, got)
		}
	}

	var outer, inner []string
	depth := 0
	var nested RowCallback
	nested = func(_ []string, row []record.Value) error {
		if depth > 0 {
			inner = append(inner, rowString(row))
			return nil
		}
		outer = append(outer, rowString(row))
		depth++
		defer func() { depth-- }()
		return c.Exec(text, nested, record.Int(2))
	}
	if err := c.Exec(text, nested, record.Int(3)); err != nil {
		t.Fatal(err)
	}
	expectRows(t, outer, "0|0", "1|1", "2|2")
	expectRows(t, inner, "0|0", "1|1", "0|0", "1|1", "0|0", "1|1")
	if e := c.stmts.texts[text]; len(e.idle) != 2 {
		t.Errorf("%d idle plans of the text after a nested run, want 2", len(e.idle))
	}
}

// TestKeptPlanHoldsNoRunState: a plan the Conn keeps between statements
// holds nothing that grew with the data of its last run — no group of a
// GROUP BY over 10 k groups, no sorted row, no DISTINCT seen set.
func TestKeptPlanHoldsNoRunState(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE g (k INTEGER, grp INTEGER)`)
	rows := make([][]record.Value, 10000)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), record.Int(int64(i))}
	}
	if err := c.BulkInsert("g", rows); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		`SELECT grp, COUNT(*) FROM g GROUP BY grp`,
		`SELECT DISTINCT grp FROM g ORDER BY grp DESC`,
	} {
		n := 0
		if err := c.Exec(text, func([]string, []record.Value) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 10000 {
			t.Fatalf("%q returned %d rows, want 10000", text, n)
		}
		fin := keptPlan(c, text).fin
		if fin.rows != nil || fin.keys != nil {
			t.Errorf("%q: the kept plan holds %d sorted rows", text, len(fin.rows))
		}
		switch pairs := fin.pairs.(type) {
		case *distinctPairIter:
			if pairs.seen != nil {
				t.Errorf("%q: the kept plan holds a seen set of %d rows", text, len(pairs.seen))
			}
		case *passPairIter:
			agg := pairs.src.src.(*aggregateIter)
			if agg.groups != nil || agg.free != nil || agg.index != nil {
				t.Errorf("%q: the kept plan holds %d groups, %d free", text, len(agg.groups), len(agg.free))
			}
		}
	}
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// groupsFixture declares one snapshot of table g: 2000 rows spread over
// the given number of groups, and an index on k.
func groupsFixture(t testing.TB, groups int) (*Conn, *ReaderSet, uint64) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	exec := func(text string) {
		if err := c.Exec(text, nil); err != nil {
			t.Fatalf("Exec(%q): %v", text, err)
		}
	}
	exec(`CREATE TABLE g (k INTEGER, grp INTEGER, v INTEGER)`)
	exec(`CREATE INDEX g_k ON g (k)`)
	rows := make([][]record.Value, 2000)
	for i := range rows {
		rows[i] = []record.Value{record.Int(int64(i)), record.Int(int64(i % groups)), record.Int(int64(i * 7 % 101))}
	}
	if err := c.BulkInsert("g", rows); err != nil {
		t.Fatal(err)
	}
	exec(`BEGIN; COMMIT WITH SNAPSHOT`)
	snap := c.LastSnapshot()
	set, err := c.OpenSnapshotSet([]uint64{snap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close(); db.Close() })
	return c, set, snap
}

// setQqs are the Qq shapes the set path's allocation guard measures.
var setQqs = []struct{ name, qq string }{
	{"scan", `SELECT k, grp, v FROM g WHERE v > 50`},
	{"aggregate", `SELECT grp, COUNT(*) AS n, SUM(v), MAX(k) FROM g GROUP BY grp`},
	{"index_range", `SELECT k, v FROM g WHERE k >= 500 AND k < 900`},
}

// allocsPerMember is how many allocations one ExecAsOfSet of qq makes,
// once the set holds its plan.
func allocsPerMember(t testing.TB, c *Conn, set *ReaderSet, snap uint64, qq string) float64 {
	rows := 0
	run := func() {
		if err := c.ExecAsOfSet(qq, set, snap, func([]string, []record.Value) error { rows++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // plans
	allocs := testing.AllocsPerRun(20, run)
	if rows == 0 {
		t.Fatalf("%q returned no rows", qq)
	}
	return allocs
}

// TestAggregateAllocsPerMemberFlat: once a set holds an aggregate Qq's
// plan, running it on another member reuses the groups of the last run,
// so the allocations per member do not grow with the group count.
func TestAggregateAllocsPerMemberFlat(t *testing.T) {
	qq := setQqs[1].qq
	c100, set100, snap100 := groupsFixture(t, 100)
	c1000, set1000, snap1000 := groupsFixture(t, 1000)
	a100 := allocsPerMember(t, c100, set100, snap100, qq)
	a1000 := allocsPerMember(t, c1000, set1000, snap1000, qq)
	if a1000 > a100+10 {
		t.Errorf("aggregate Qq allocates %.0f times per member over 1000 groups, %.0f over 100: want no growth with the group count", a1000, a100)
	}
}

// BenchmarkExecAsOfSet reports the cost of one member of a set-path run
// (ExecAsOfSet with the set holding the plan) for a scan, an aggregate
// and an index-range Qq; allocs/op is allocations per member. The
// point_setless case is a set-less indexed point read AS OF a snapshot
// (asof_point's request), on the plan its Conn keeps.
func BenchmarkExecAsOfSet(b *testing.B) {
	c, set, snap := groupsFixture(b, 200)
	cb := func([]string, []record.Value) error { return nil }
	for _, q := range setQqs {
		b.Run(q.name, func(b *testing.B) {
			if err := c.ExecAsOfSet(q.qq, set, snap, cb); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ExecAsOfSet(q.qq, set, snap, cb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("point_setless", func(b *testing.B) {
		const text = `SELECT k, grp, v FROM g WHERE k = ?`
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.ExecAsOf(text, snap, cb, record.Int(int64(i%2000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestKeptPlansUnderConcurrentDDL: connections that repeat texts on the
// plans they keep, while another connection rebuilds the table they read
// — an index created and dropped, the table dropped and created again
// with its columns in another order, a TEMP table created and dropped in
// the side store — read at every run the one content the table always
// has. Run under -race (make groupcommit-smoke).
func TestKeptPlansUnderConcurrentDDL(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ddl := db.Conn()
	mustExec(t, ddl, `CREATE TABLE t (k INTEGER, v INTEGER)`)
	const keys = 40
	for k := 0; k < keys; k++ {
		mustExec(t, ddl, `INSERT INTO t VALUES (?, ?)`, record.Int(int64(k)), record.Int(int64(k*10)))
	}
	snap, err := ddl.DeclareSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		text string
		want func(k int) string
	}{
		{`SELECT v FROM t WHERE k = ?`, func(k int) string { return fmt.Sprint(k * 10) }},
		{`SELECT AS OF ? v FROM t WHERE k = ?`, func(k int) string { return fmt.Sprint(k * 10) }},
		{`SELECT COUNT(*), SUM(v) FROM t`, func(int) string { return "40|7800" }},
		{`SELECT DISTINCT v / 100 FROM t ORDER BY 1 DESC`, func(int) string { return "3 2 1 0" }},
	}

	done := make(chan struct{})
	var rounds atomic.Int64 // DDL statements committed
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := db.Conn()
		cols := []string{"k INTEGER, v INTEGER", "v INTEGER, k INTEGER"}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				err = c.Exec(`CREATE INDEX t_k ON t (k)`, nil)
			case 1:
				err = c.Exec(`CREATE TEMP TABLE scratch (a INTEGER); DROP TABLE scratch; DROP INDEX t_k`, nil)
			default:
				err = c.Exec(`BEGIN; CREATE TABLE t2 (`+cols[i%2]+`); INSERT INTO t2 (k, v) SELECT k, v FROM t;
					DROP TABLE t; CREATE TABLE t (`+cols[i%2]+`); INSERT INTO t (k, v) SELECT k, v FROM t2;
					DROP TABLE t2; COMMIT`, nil)
			}
			if err != nil {
				errs <- fmt.Errorf("DDL %d: %w", i, err)
				return
			}
			rounds.Add(1)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := db.Conn()
			// Until the DDL has gone round its three changes ten times.
			for i := 0; i < 150 || rounds.Load() < 30; i++ {
				read := reads[(i+r)%len(reads)]
				k := (i*7 + r) % keys
				params := []record.Value{record.Int(int64(k))}
				if strings.Contains(read.text, "AS OF") {
					params = append([]record.Value{record.Int(int64(snap))}, params...)
				}
				var got []string
				err := c.Exec(read.text, func(_ []string, row []record.Value) error {
					got = append(got, rowString(row))
					return nil
				}, params...)
				if err == nil && strings.Join(got, " ") != read.want(k) {
					err = fmt.Errorf("rows %v, want %s", got, read.want(k))
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d, %q (k=%d): %w", r, read.text, k, err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRegisterFuncReplansKeptPlans: a function registered again after a
// text's plan was kept replaces the definition the plan's expressions
// call — in the SELECT list and in the AS OF operand alike.
func TestRegisterFuncReplansKeptPlans(t *testing.T) {
	c := testConn(t)
	snaps := pointFixture(t, c, 2)
	define := func(k, snap int64) {
		c.db.RegisterFunc(FuncDef{Name: "pick", MinArgs: 0, MaxArgs: 0,
			Fn: func(*FuncContext, []record.Value) (record.Value, error) { return record.Int(k), nil }})
		c.db.RegisterFunc(FuncDef{Name: "snap", MinArgs: 0, MaxArgs: 0,
			Fn: func(*FuncContext, []record.Value) (record.Value, error) { return record.Int(snap), nil }})
	}
	const text = `SELECT AS OF (snap()) k, v FROM m WHERE k = pick()`
	define(3, int64(snaps[0]))
	expectRows(t, q(t, c, text), "3|3")
	define(4, int64(snaps[1]))
	expectRows(t, q(t, c, text), "4|8")
}

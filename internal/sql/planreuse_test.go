package sql

import (
	"fmt"
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
				want := qAsOf(t, c, qq, snaps[i])
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
// and an index-range Qq; allocs/op is allocations per member.
func BenchmarkExecAsOfSet(b *testing.B) {
	c, set, snap := groupsFixture(b, 200)
	for _, q := range setQqs {
		b.Run(q.name, func(b *testing.B) {
			cb := func([]string, []record.Value) error { return nil }
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
}

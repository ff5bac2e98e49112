package sql_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rql/internal/core"
	"rql/internal/record"
	"rql/internal/sql"
)

// mechResults builds a history in which every third snapshot changes
// nothing (so delta pruning replays cached rows), runs the four
// mechanisms over it and returns each result table's rows, sorted, plus
// how many iterations were replayed instead of executed.
func mechResults(t *testing.T, poison, prune bool) (map[string][]string, int) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if poison {
		db.PoisonScans()
	}
	r := core.Attach(db)
	r.SetDeltaPrune(prune)
	c := db.Conn()
	exec := func(text string, params ...record.Value) {
		t.Helper()
		if err := c.Exec(text, nil, params...); err != nil {
			t.Fatalf("Exec(%q): %v", text, err)
		}
	}
	exec(`CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER, note TEXT)`)
	exec(`CREATE INDEX m_k ON m (k)`)
	if err := core.EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 12; s++ {
		exec(`BEGIN`)
		if s%3 != 2 {
			for n := 0; n < 5; n++ {
				k := (s*5 + n*3) % 20
				exec(`DELETE FROM m WHERE k = ?`, record.Int(int64(k)))
				exec(`INSERT INTO m VALUES (?, ?, ?, ?)`, record.Int(int64(k)), record.Text(fmt.Sprintf("g%d", k%3)),
					record.Int(int64(s*10+n)), record.Text(strings.Repeat("x", k)))
			}
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.RecordSnapshot(c, id, time.Unix(int64(s), 0), ""); err != nil {
			t.Fatal(err)
		}
	}

	const qs = `SELECT snap_id FROM SnapIds ORDER BY snap_id`
	replayed := 0
	ran := func(rs *core.RunStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		replayed += rs.PrunedIterations
	}
	ran(r.CollateData(c, qs, `SELECT k, grp, current_snapshot() AS sid FROM m WHERE v >= 0`, "r_collate"))
	ran(r.AggregateDataInVariable(c, qs, `SELECT COUNT(*) FROM m WHERE grp = 'g1'`, "r_var", "sum"))
	ran(r.AggregateDataInTable(c, qs, `SELECT grp, COUNT(*) AS c, AVG(v) AS av FROM m GROUP BY grp`, "r_table", "(c,max):(av,avg)"))
	ran(r.CollateDataIntoIntervals(c, qs, `SELECT k, grp FROM m WHERE k >= 2 AND k < 15`, "r_intervals"))

	out := make(map[string][]string)
	for _, table := range []string{"r_collate", "r_var", "r_table", "r_intervals"} {
		rows, err := c.Query(`SELECT * FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows.Rows {
			out[table] = append(out[table], fmt.Sprint(row))
		}
		sort.Strings(out[table])
		if len(out[table]) == 0 {
			t.Fatalf("%s is empty", table)
		}
	}
	return out, replayed
}

// TestMechanismsUnderPoisonedScans: all four mechanisms — executed
// iterations, delta-prune replays of cached Qq rows, result-table
// lookups and in-place updates — produce the same tables whether or not
// scans poison their row buffers, and whether or not pruning replays.
func TestMechanismsUnderPoisonedScans(t *testing.T) {
	want, replayed := mechResults(t, false, true)
	if replayed == 0 {
		t.Fatal("no iteration was replayed: the history does not exercise delta-prune replay")
	}
	for _, tc := range []struct{ poison, prune bool }{{true, true}, {true, false}} {
		got, _ := mechResults(t, tc.poison, tc.prune)
		for table := range want {
			if !reflect.DeepEqual(got[table], want[table]) {
				t.Errorf("poison=%v prune=%v: %s differs:\n got %v\nwant %v", tc.poison, tc.prune, table, got[table], want[table])
			}
		}
	}
}

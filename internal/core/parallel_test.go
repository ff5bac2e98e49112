package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/sql"
)

// randomHistory builds a database with a randomized membership table
// and many snapshots, for sequential-vs-parallel equivalence checks.
func randomHistory(t *testing.T, seed int64, snapshots int) (*RQL, *sql.Conn) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	present := map[int]bool{}
	for s := 0; s < snapshots; s++ {
		mustExec(t, c, `BEGIN`)
		for n := rng.Intn(6); n >= 0; n-- {
			k := rng.Intn(12)
			if present[k] && rng.Intn(3) == 0 {
				mustExec(t, c, fmt.Sprintf(`DELETE FROM m WHERE k = %d`, k))
				present[k] = false
			} else if !present[k] {
				mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`,
					k, k%3, rng.Intn(100)))
				present[k] = true
			} else {
				mustExec(t, c, fmt.Sprintf(`UPDATE m SET v = %d WHERE k = %d`, rng.Intn(100), k))
			}
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, time.Unix(int64(s), 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	return r, c
}

func sortedRows(t *testing.T, c *sql.Conn, sqlText string) []string {
	t.Helper()
	rows := queryRows(t, c, sqlText)
	sort.Strings(rows)
	return rows
}

// intervalEdges are CollateDataIntoIntervals inputs the canonical
// fixture (one tuple per key) does not reach. grp is shared by several
// keys, so one snapshot emits equal tuples: extending the first one's
// interval moves its index entry past the second one's, which the
// result table's index-key rewrite must not do in place. Filtered on v,
// a group also disappears and comes back, opening a second interval.
var intervalEdges = []mechFixture{
	{mechIntervals, `SELECT grp FROM m`, "", `SELECT grp, start_snapshot, end_snapshot FROM %s`},
	{mechIntervals, `SELECT grp FROM m WHERE v < 30`, "", `SELECT grp, start_snapshot, end_snapshot FROM %s`},
}

// intervalShapes reports whether an intervals result (rows of tuple,
// start, end) holds two intervals of one tuple that overlap — equal
// tuples alive together — and two that a gap separates.
func intervalShapes(t *testing.T, rows []string) (overlap, gap bool) {
	t.Helper()
	type span struct{ start, end int }
	spans := map[string][]span{}
	for _, row := range rows {
		f := strings.Split(row, "|")
		var sp span
		if _, err := fmt.Sscan(f[len(f)-2], &sp.start); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(f[len(f)-1], &sp.end); err != nil {
			t.Fatal(err)
		}
		key := strings.Join(f[:len(f)-2], "|")
		for _, o := range spans[key] {
			if sp.start <= o.end && o.start <= sp.end {
				overlap = true
			} else {
				gap = true
			}
		}
		spans[key] = append(spans[key], sp)
	}
	return overlap, gap
}

// Parallel ≡ sequential: N memory-backed lanes merged in Qs order must
// leave T as one table-backed lane does, for every mechanism, every
// AggregateDataInVariable monoid, the interval edge cases, and every Qs
// order. Several seeds move the interval lifetimes across the chunk
// boundaries.
func TestParallelEquivalence(t *testing.T) {
	fixtures := allFixtures
	for _, agg := range []string{"min", "max", "count"} {
		fx := aggVarAvg
		fx.extra = agg
		fixtures = append(fixtures, fx)
	}
	fixtures = append(fixtures, intervalEdges...)
	var overlaps, gaps int
	for seed := int64(5); seed < 10; seed++ {
		r, c := randomHistory(t, seed, 30+int(seed))
		makeQsOrders(t, c)
		for _, from := range qsOrders {
			for i, fx := range fixtures {
				table := fmt.Sprintf("Par_%d_%s_%s", i, fx.tag(), from)
				stats := runFixture(t, r, c, fx, "SELECT snap_id FROM "+from, table, true)
				assertSameResult(t, c, fx, from, table)
				if i >= len(fixtures)-len(intervalEdges) {
					overlap, gap := intervalShapes(t, queryRows(t, c, fmt.Sprintf(fx.sel, table)))
					overlaps += b2i(overlap)
					gaps += b2i(gap)
				}

				if !strings.Contains(stats.Mechanism, "parallel") {
					t.Errorf("mechanism label: %s", stats.Mechanism)
				}
				// Iterations are reported in Qs order whatever the lanes'
				// scheduling was.
				want := queryRows(t, c, "SELECT snap_id FROM "+from)
				if len(stats.Iterations) != len(want) {
					t.Fatalf("%s over %s: %d iterations, want %d", fx.kind, from, len(stats.Iterations), len(want))
				}
				for i, it := range stats.Iterations {
					if fmt.Sprint(it.Snapshot) != want[i] {
						t.Fatalf("%s over %s: iteration %d out of Qs order: snapshot %d, want %s",
							fx.kind, from, i, it.Snapshot, want[i])
					}
				}
				// The merged result table carries the same search index.
				if fx.kind == mechAggTable {
					objs, err := c.Objects()
					if err != nil {
						t.Fatal(err)
					}
					found := false
					for _, o := range objs {
						if o.Kind == "index" && strings.EqualFold(o.Table, table) {
							found = true
						}
					}
					if !found {
						t.Errorf("parallel AggregateDataInTable result %s has no index", table)
					}
				}
			}
		}
	}
	if overlaps == 0 || gaps == 0 {
		t.Errorf("interval edge cases: %d results with equal tuples alive together, %d with a tuple coming back; want both", overlaps, gaps)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestParallelWorkerEdgeCases(t *testing.T) {
	r, c := randomHistory(t, 14, 5)
	// More workers than snapshots.
	if _, err := r.ParallelCollateData(
		`SELECT snap_id FROM SnapIds`, `SELECT k FROM m`, "P1", 16); err != nil {
		t.Fatal(err)
	}
	// Zero/negative workers clamp to 1.
	if _, err := r.ParallelCollateData(
		`SELECT snap_id FROM SnapIds`, `SELECT k FROM m`, "P2", 0); err != nil {
		t.Fatal(err)
	}
	a := sortedRows(t, c, `SELECT k FROM P1`)
	b := sortedRows(t, c, `SELECT k FROM P2`)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Error("worker counts changed the result")
	}
	// Empty snapshot set.
	stats, err := r.ParallelCollateData(
		`SELECT snap_id FROM SnapIds WHERE snap_id > 1000`, `SELECT k FROM m`, "P3", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Iterations) != 0 || stats.ResultRows != 0 {
		t.Errorf("empty Qs: %+v", stats)
	}
	// Bad Qq propagates.
	if _, err := r.ParallelCollateData(
		`SELECT snap_id FROM SnapIds`, `SELECT nope FROM m`, "P4", 4); err == nil {
		t.Error("bad Qq should fail")
	}
}

func TestParallelAggVarMultiRowRejected(t *testing.T) {
	r, _ := randomHistory(t, 15, 8)
	// SnapIds always has 8 rows (it is non-snapshotable), so this Qq
	// returns multiple rows on every snapshot.
	if _, err := r.ParallelAggregateDataInVariable(
		`SELECT snap_id FROM SnapIds`, `SELECT snap_id FROM SnapIds`, "PX", "max", 3); err == nil {
		t.Error("multi-row Qq should fail in parallel AggV")
	}
}

func TestParallelAvgWeightedMerge(t *testing.T) {
	// AVG across chunks must be the global average, not an average of
	// chunk averages: build a history where per-snapshot counts differ.
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE t (v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 1, 1, 9, 9} // chunk boundaries will split these unevenly
	for s, n := range counts {
		mustExec(t, c, `BEGIN`)
		mustExec(t, c, `DELETE FROM t`)
		for i := 0; i < n; i++ {
			mustExec(t, c, `INSERT INTO t VALUES (1)`)
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, time.Unix(int64(s), 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ParallelAggregateDataInVariable(
		`SELECT snap_id FROM SnapIds`, `SELECT COUNT(*) FROM t`, "Avg", "avg", 2); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, c, `SELECT * FROM Avg`)
	want := record.Float((1 + 1 + 1 + 9 + 9) / 5.0).String()
	if len(rows) != 1 || rows[0] != want {
		t.Errorf("parallel avg = %v, want %s", rows, want)
	}
}

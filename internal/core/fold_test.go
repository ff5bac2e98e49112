package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// The fold is tested alone here: record streams are fed straight into
// lanes — no Qq, no snapshots read — so the property "merge of
// memory-backed lanes ≡ one table-backed lane" is checked for every way
// of cutting a stream into contiguous chunks, which no Qs-driven test
// can enumerate.

// foldIter is one loop-body iteration's input: the snapshot id and the
// records Qq would have returned on it.
type foldIter struct {
	snap uint64
	rows [][]record.Value
}

// foldFixtures are the four kinds with shapes that reach every combine
// rule: the AVG accumulator, a lone AVG column (whose values may be
// NULL), and two AVG columns beside a MAX and a SUM (a row has one
// auxiliary count, so there only the MAX and SUM values may be NULL).
var foldFixtures = []mechFixture{
	{mechCollate, `SELECT k, g FROM src`, "", `SELECT k, g FROM %s`},
	{mechAggVar, `SELECT v FROM src`, "avg", `SELECT * FROM %s`},
	{mechAggVar, `SELECT v FROM src`, "max", `SELECT * FROM %s`},
	{mechAggTable, `SELECT g, w FROM src`, "(w,avg)", `SELECT g, round(w, 6) FROM %s`},
	{mechAggTable, `SELECT g, v, w, x, y FROM src`, "(v,max):(w,avg):(x,sum):(y,avg)",
		`SELECT g, v, round(w, 6), x, round(y, 6) FROM %s`},
	{mechIntervals, `SELECT k FROM src`, "", `SELECT k, start_snapshot, end_snapshot FROM %s`},
}

// foldEnv is a database whose only snapshot gives Qq a shape to plan
// against; the fold's input comes from the test, not from src.
func foldEnv(t testing.TB) (*RQL, *sql.Conn) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE src (k INTEGER, g TEXT, v INTEGER, w INTEGER, x INTEGER, y INTEGER)`)
	if _, err := DeclareSnapshot(c, time.Unix(0, 0), ""); err != nil {
		t.Fatal(err)
	}
	return Attach(db), c
}

// foldMech validates fx into table and creates T, as a run does before
// its first record.
func foldMech(t *testing.T, r *RQL, c *sql.Conn, fx mechFixture, table string) *mech {
	t.Helper()
	m, err := r.newMech(mechCall{fx.kind, fx.qq, table, fx.extra, fx.extra != ""})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.createResultTable(c, 1); err != nil {
		t.Fatal(err)
	}
	return m
}

// feed runs its through ln's fold the way lane.step does once it has the
// iteration's records.
func feed(t testing.TB, ln *lane, its []foldIter) {
	t.Helper()
	for _, it := range its {
		if err := ln.table.open(ln.conn); err != nil {
			t.Fatal(err)
		}
		cost := IterationCost{Snapshot: it.snap}
		for _, row := range it.rows {
			cost.QqRows++
			if err := ln.fold.record(it.snap, row, &cost); err != nil {
				t.Fatal(err)
			}
		}
		if err := ln.fold.endIteration(it.snap, &cost); err != nil {
			t.Fatal(err)
		}
	}
}

// randomStream draws n iterations of fx-shaped records over a small key
// space, so keys disappear, reappear, repeat within an iteration, and
// carry NULL aggregates now and then.
func randomStream(rng *rand.Rand, fx mechFixture, n int) []foldIter {
	val := func(nullable bool) record.Value {
		if nullable && rng.Intn(8) == 0 {
			return record.Null()
		}
		return record.Int(int64(rng.Intn(50)))
	}
	wide := strings.Contains(fx.qq, "y")
	its := make([]foldIter, n)
	for i := range its {
		its[i].snap = uint64(2*i + 3) // ids need not be dense
		rows := rng.Intn(6)
		if fx.kind == mechAggVar {
			rows = 1
		}
		for ; rows > 0; rows-- {
			k := int64(rng.Intn(5))
			var row []record.Value
			switch fx.kind {
			case mechCollate:
				row = []record.Value{record.Int(k), record.Text(fmt.Sprint("g", k%2))}
			case mechAggVar:
				row = []record.Value{val(true)}
			case mechAggTable:
				row = []record.Value{record.Text(fmt.Sprint("g", k)), val(true)}
				if wide {
					row = append(row[:1], val(true), val(false), val(true), val(false))
				}
			case mechIntervals:
				row = []record.Value{record.Int(k)}
			}
			its[i].rows = append(its[i].rows, row)
		}
	}
	return its
}

// lifetimes is the stream the interval rule is easiest to get wrong on:
// key 2 lives through every iteration, so wherever a chunk ends its
// lifetime ends at the tail and resumes at the next head; key 1
// disappears and reappears; key 3 comes and goes twice. As
// AggregateDataInTable input the groups' weights differ per chunk, so an
// average of chunk averages would be wrong.
func lifetimes(fx mechFixture) []foldIter {
	present := [][]int64{{1, 2}, {1, 2, 3}, {2}, {1, 2}, {2, 2, 1}, {1, 2, 3}}
	its := make([]foldIter, len(present))
	for i, keys := range present {
		its[i].snap = uint64(i + 1)
		for _, k := range keys {
			v := record.Int(k*10 + int64(i))
			switch fx.kind {
			case mechCollate:
				its[i].rows = append(its[i].rows, []record.Value{record.Int(k), record.Text("g")})
			case mechAggTable:
				its[i].rows = append(its[i].rows, []record.Value{record.Text(fmt.Sprint("g", k%2)), v, v, v, v}[:strings.Count(fx.qq, ",")+1])
			case mechIntervals:
				its[i].rows = append(its[i].rows, []record.Value{record.Int(k)})
			}
		}
		if fx.kind == mechAggVar {
			its[i].rows = [][]record.Value{{record.Int(int64(len(keys)))}}
		}
	}
	return its
}

// TestFoldMergeEqualsOneLane: for every kind, every stream and every cut
// of the stream into 1…n contiguous chunks, folding each chunk in a
// memory-backed lane, merging the lanes in order and folding the result
// into T — what a parallel run does — leaves T exactly as one
// table-backed lane folding the whole stream does.
func TestFoldMergeEqualsOneLane(t *testing.T) {
	r, c := foldEnv(t)
	rng := rand.New(rand.NewSource(13))
	tables := 0
	newTable := func() string { tables++; return fmt.Sprintf("F%d", tables) }
	for _, fx := range foldFixtures {
		streams := [][]foldIter{lifetimes(fx)}
		for i := 0; i < 3; i++ {
			streams = append(streams, randomStream(rng, fx, 6))
		}
		for si, its := range streams {
			one := foldMech(t, r, c, fx, newTable()).tableLane(c)
			feed(t, one, its)
			if err := one.finish(true); err != nil {
				t.Fatal(err)
			}
			want := sortedRows(t, c, fmt.Sprintf(fx.sel, one.m.table))

			// Bit b of cut set: a chunk boundary after iteration b.
			for cut := 0; cut < 1<<(len(its)-1); cut++ {
				out := foldMech(t, r, c, fx, newTable()).tableLane(c)
				var first *lane
				start := 0
				for end := 1; end <= len(its); end++ {
					if end < len(its) && cut&(1<<(end-1)) == 0 {
						continue
					}
					w := out.m.memLane(nil)
					feed(t, w, its[start:end])
					if first == nil {
						first = w
					} else if err := first.merge(w); err != nil {
						t.Fatal(err)
					}
					start = end
				}
				if err := out.merge(first); err != nil {
					t.Fatal(err)
				}
				if err := out.finish(true); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s stream %d cut %06b", fx.tag(), si, cut)
				got := sortedRows(t, c, fmt.Sprintf(fx.sel, out.m.table))
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("%s: merged lanes differ from one lane\n got: %v\nwant: %v", label, got, want)
				}
				if out.fold.iterations != one.fold.iterations || out.fold.prevSnap != one.fold.prevSnap {
					t.Fatalf("%s: merged cursor (%d iterations, snap %d), one lane (%d, %d)", label,
						out.fold.iterations, out.fold.prevSnap, one.fold.iterations, one.fold.prevSnap)
				}
				mustExec(t, c, `DROP TABLE `+out.m.table) // keep the catalog small
			}
		}
	}
}

// fillCost is the one place an iteration's cost is assigned from Qq's
// statement statistics. Fed statistics with no zero field, it must leave
// no field of IterationCost zero except the ones the loop body and the
// fold own — so a counter added to IterationCost is either
// filled here or listed here, never silently dropped by one caller.
func TestFillCostCoversEveryStatementCounter(t *testing.T) {
	var qs sql.ExecStats
	n := int64(0)
	obs.WalkCost(&qs, func(_ obs.CostField, v reflect.Value) {
		n++
		v.SetInt(n) // ints and durations alike
	})
	qs.Duration = time.Hour // so the QueryEval remainder stays positive

	var cost IterationCost
	fillCost(&cost, &qs, time.Millisecond)

	ownedElsewhere := map[string]bool{
		"Snapshot": true, "QqRows": true, "UDF": true, "Pruned": true, "DeltaPages": true, // lane.step
		"ResultInserts": true, "ResultUpdates": true, "ResultSearch": true, // fold.add
	}
	cv := reflect.ValueOf(cost)
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if cv.Field(i).IsZero() != ownedElsewhere[name] {
			t.Errorf("IterationCost.%s: zero after fillCost = %v, owned elsewhere = %v",
				name, cv.Field(i).IsZero(), ownedElsewhere[name])
		}
	}
}

// The store indirection must not cost the table-backed fold an
// allocation per record: a replayed AggregateDataInTable record that
// finds its group and changes nothing allocates what the index probe on
// the TableWriter allocates by itself and nothing more.
func TestFoldRecordAllocs(t *testing.T) {
	r, c := foldEnv(t)
	fx := mechFixture{mechAggTable, `SELECT g, v FROM src`, "(v,max)", ""}
	ln := foldMech(t, r, c, fx, "Allocs").tableLane(c)
	row := []record.Value{record.Text("g1"), record.Int(7)}
	feed(t, ln, []foldIter{{snap: 1, rows: [][]record.Value{row}}})
	if err := ln.table.open(c); err != nil {
		t.Fatal(err)
	}
	defer ln.table.rollback()

	probe := testing.AllocsPerRun(200, func() {
		if _, _, found, err := ln.table.w.LookupByIndex(ln.table.index, row[:1]); err != nil || !found {
			t.Fatalf("probe: found=%v err=%v", found, err)
		}
	})
	var cost IterationCost
	got := testing.AllocsPerRun(200, func() {
		if err := ln.fold.record(2, row, &cost); err != nil {
			t.Fatal(err)
		}
	})
	if cost.ResultSearch == 0 || cost.ResultUpdates != 0 {
		t.Fatalf("the record should probe and change nothing: %+v", cost)
	}
	if got > probe {
		t.Errorf("one replayed AggregateDataInTable record allocates %.0f times; the bare index probe allocates %.0f", got, probe)
	}
}

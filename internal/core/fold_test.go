package core

import (
	"reflect"
	"testing"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// The fold is tested alone here: records are fed straight into a lane
// — no Qq, no snapshots read.

// foldIter is one loop-body iteration's input: the snapshot id and the
// records Qq would have returned on it.
type foldIter struct {
	snap uint64
	rows [][]record.Value
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
		"ResultInserts": true, "ResultUpdates": true, "ResultSearch": true, // fold.record
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

// The fold must not add an allocation per record of its own: a
// replayed AggregateDataInTable record that finds its group and changes
// nothing allocates what the index probe on the TableWriter allocates
// by itself and nothing more.
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
		if _, _, found, err := ln.table.lookup(row[:1]); err != nil || !found {
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

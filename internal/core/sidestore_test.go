package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/sql"
)

// rendezvous makes two mechanism runs prove they overlap: each one's Qq
// calls its side's function, which returns only once the other side has
// called too. Both calls happen mid-sweep, with the run's result writer
// open on the side store. After the two have met the functions pass
// their argument through, so the same Qq text serves the serial
// reference runs.
type rendezvous struct {
	arrived [2]chan struct{}
	once    [2]sync.Once
}

func (r *rendezvous) register(db *sql.DB, name string, side int) {
	db.RegisterFunc(sql.FuncDef{Name: name, MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *sql.FuncContext, a []record.Value) (record.Value, error) {
			r.once[side].Do(func() { close(r.arrived[side]) })
			select {
			case <-r.arrived[1-side]:
				return a[0], nil
			case <-time.After(5 * time.Second):
				return record.Value{}, errors.New(name + ": the other mechanism never got to run beside this one")
			}
		}})
}

// TestSideStoreConcurrentMechanisms: two sessions run CollateData and
// AggregateDataInTable into distinct result tables at the same time —
// each holding its result writer open while the other works — beside a
// session declaring snapshots (SnapIds inserts) and a live retro view
// (the refresher's result rows). All four write the one side store;
// none waits for another's transaction, and every table ends with the
// rows of the same run done alone.
func TestSideStoreConcurrentMechanisms(t *testing.T) {
	db, r, m := newViewEnv(t)
	rv := &rendezvous{arrived: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
	rv.register(db, "meet_a", 0)
	rv.register(db, "meet_b", 1)

	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	live := fixtureOf(mechIntervals)
	mustExec(t, c, `CREATE RETRO VIEW live AS `+live.ddl())
	narrowM.history(t, c, rand.New(rand.NewSource(41)), map[int]bool{}, 12)
	// The mechanisms run over the history so far; snapshots declared
	// while they run are not theirs.
	mustExec(t, c, `CREATE TEMP TABLE QsFixed (snap_id INTEGER)`)
	mustExec(t, c, `INSERT INTO QsFixed SELECT snap_id FROM SnapIds`)

	fxA := mechFixture{mechCollate, `SELECT k, grp, meet_a(v) AS v, current_snapshot() AS sid FROM m`,
		"", `SELECT k, grp, v, sid FROM %s`}
	fxB := mechFixture{mechAggTable, `SELECT grp, COUNT(*) AS c, AVG(meet_b(v)) AS av FROM m GROUP BY grp`,
		mechExtra[mechAggTable], viewSel[mechAggTable]}
	const qs = `SELECT snap_id FROM QsFixed`

	mechs := make(chan error, 2)
	go func() {
		_, err := r.CollateData(db.Conn(), qs, fxA.qq, "TA")
		mechs <- err
	}()
	go func() {
		_, err := r.AggregateDataInTable(db.Conn(), qs, fxB.qq, "TB", fxB.extra)
		mechs <- err
	}()
	// The history keeps growing underneath them.
	stop, declared := make(chan struct{}), make(chan error, 1)
	go func() {
		wc := db.Conn()
		for i := 0; ; i++ {
			select {
			case <-stop:
				if i >= 8 {
					declared <- nil
					return
				}
			default:
			}
			err := wc.Exec(fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`, 100+i, i%3, i), nil)
			if err == nil {
				_, err = DeclareSnapshot(wc, time.Unix(int64(1000+i), 0), "")
			}
			if err != nil {
				declared <- fmt.Errorf("declaring snapshot %d: %w", i, err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-mechs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-declared; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	assertSameResult(t, c, fxA, "QsFixed", "TA")
	assertSameResult(t, c, fxB, "QsFixed", "TB")
	mustExec(t, c, `REFRESH RETRO VIEW live`)
	assertSameResult(t, c, live, "SnapIds", "live")
	if info := m.Infos()[0]; info.LastError != "" {
		t.Errorf("view error: %s", info.LastError)
	}
	main, side := db.MainStore().Stats(), db.SideStore().Stats()
	t.Logf("side store: commits=%d groups=%d conflicts=%d; main: commits=%d groups=%d",
		side.Commits, side.Groups, side.Conflicts, main.Commits, main.Groups)
	if main.InvariantViolations != 0 || side.InvariantViolations != 0 {
		t.Errorf("invariant_violations: main=%d side=%d, want 0 and 0",
			main.InvariantViolations, side.InvariantViolations)
	}
}

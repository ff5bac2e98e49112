package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rql/internal/record"
	"rql/internal/sql"
)

// newViewEnv opens a database with the view maintenance layer attached,
// exactly as rql.Open wires it.
func newViewEnv(t *testing.T) (*sql.DB, *RQL, *ViewManager) {
	t.Helper()
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	m, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m)
	db.SetSnapshotHook(m.AnnounceSnapshot)
	m.Start()
	t.Cleanup(m.Close)
	return db, r, m
}

// mTable is a shape of table m, which the histories write and the
// fixtures read.
type mTable struct {
	keys int    // k is drawn from [0, keys)
	pad  string // every row's pad column; "" when m has none
}

// narrowM is m as most tests have it: up to 14 rows, one leaf.
var narrowM = mTable{keys: 14}

// wideM is m spread over several table leaves: all its keys are loaded
// before the first snapshot, each row carries a 200-byte pad, and an
// index on k serves the range fixtures (rangeFixtures), whose rows an
// index scan fetches one table leaf after another.
var wideM = mTable{keys: 240, pad: strings.Repeat("p", 200)}

// create makes table m in this shape and returns the keys it holds.
func (m mTable) create(t *testing.T, c *sql.Conn) map[int]bool {
	t.Helper()
	present := map[int]bool{}
	if m.pad == "" {
		mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
		return present
	}
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER, pad TEXT)`)
	mustExec(t, c, `CREATE INDEX m_k ON m (k)`)
	mustExec(t, c, `BEGIN`)
	for k := 0; k < m.keys; k++ {
		m.insert(t, c, k, k%100)
		present[k] = true
	}
	mustExec(t, c, `COMMIT`)
	return present
}

func (m mTable) insert(t *testing.T, c *sql.Conn, k, v int) {
	t.Helper()
	if m.pad == "" {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`, k, k%3, v))
		return
	}
	mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d, ?)`, k, k%3, v), record.Text(m.pad))
}

// history drives randomized refresh bursts over m — including
// zero-write snapshots, whose deltas are empty (the prune-friendly
// quiet windows) — recording each snapshot in SnapIds. Returns the last
// declared snapshot id.
func (m mTable) history(t *testing.T, c *sql.Conn, rng *rand.Rand, present map[int]bool, snapshots int) uint64 {
	t.Helper()
	var last uint64
	for s := 0; s < snapshots; s++ {
		mustExec(t, c, `BEGIN`)
		var writes int
		switch rng.Intn(4) {
		case 0:
			writes = 0
		case 1:
			writes = 12 + rng.Intn(8)
		default:
			writes = 1 + rng.Intn(4)
		}
		for n := 0; n < writes; n++ {
			k := rng.Intn(m.keys)
			if present[k] && rng.Intn(3) == 0 {
				mustExec(t, c, fmt.Sprintf(`DELETE FROM m WHERE k = %d`, k))
				present[k] = false
			} else if !present[k] {
				m.insert(t, c, k, rng.Intn(100))
				present[k] = true
			} else {
				mustExec(t, c, fmt.Sprintf(`UPDATE m SET v = %d WHERE k = %d`, rng.Intn(100), k))
			}
		}
		id, err := c.CommitWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := RecordSnapshot(c, id, time.Unix(int64(id), 0).UTC(), ""); err != nil {
			t.Fatal(err)
		}
		last = id
	}
	return last
}

// viewDDL is the CREATE RETRO VIEW tail for each mechanism under test.
var viewDDL = map[mechKind]string{
	mechCollate:   `CollateData('SELECT k, grp, current_snapshot() AS sid FROM m')`,
	mechAggVar:    `AggregateDataInVariable('SELECT COUNT(*) FROM m', 'sum')`,
	mechAggTable:  `AggregateDataInTable('SELECT grp, COUNT(*) AS c, AVG(v) AS av FROM m GROUP BY grp', '(c,max):(av,avg)')`,
	mechIntervals: `CollateDataIntoIntervals('SELECT k FROM m')`,
}

// viewQq mirrors viewDDL for driving the full recompute reference run.
var viewQq = map[mechKind]string{
	mechCollate:   `SELECT k, grp, current_snapshot() AS sid FROM m`,
	mechAggVar:    `SELECT COUNT(*) FROM m`,
	mechAggTable:  `SELECT grp, COUNT(*) AS c, AVG(v) AS av FROM m GROUP BY grp`,
	mechIntervals: `SELECT k FROM m`,
}

// viewSel projects a result table into comparable rows.
var viewSel = map[mechKind]string{
	mechCollate:   `SELECT k, grp, sid FROM %s`,
	mechAggVar:    `SELECT * FROM %s`,
	mechAggTable:  `SELECT grp, c, round(av, 6) FROM %s`,
	mechIntervals: `SELECT k, start_snapshot, end_snapshot FROM %s`,
}

// TestRetroViewIncrementalEquivalence is the incremental ≡ full
// property test: for every mechanism, with delta pruning on and off, the
// incrementally maintained view — one lane kept across refreshes and
// stepped once per snapshot — is byte-identical, rows and
// current_snapshot() tags, to the SQL-form UDF statement run from
// scratch over the same history, and the pruned runs actually pruned
// (the quiet windows guarantee empty deltas on the view's read path).
func TestRetroViewIncrementalEquivalence(t *testing.T) {
	for _, fx := range allFixtures {
		for _, prune := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s_prune%v", fx.tag(), prune), func(t *testing.T) {
				db, r, m := newViewEnv(t)
				c := db.Conn()
				mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
				if err := EnsureSnapIds(c); err != nil {
					t.Fatal(err)
				}
				r.SetDeltaPrune(prune)
				mustExec(t, c, `CREATE RETRO VIEW V AS `+fx.ddl())

				rng := rand.New(rand.NewSource(int64(fx.kind)*7 + 99))
				last := narrowM.history(t, c, rng, map[int]bool{}, 30)
				// Synchronous catch-up to the last announced snapshot; the
				// background refresher races us harmlessly (runMu + cursor).
				mustExec(t, c, `REFRESH RETRO VIEW V`)
				assertSameResult(t, c, fx, "SnapIds", "V")

				infos := m.Infos()
				if len(infos) != 1 {
					t.Fatalf("%d views registered, want 1", len(infos))
				}
				info := infos[0]
				if info.LastSnap != last {
					t.Errorf("cursor = %d, want %d", info.LastSnap, last)
				}
				if info.Refreshes != last {
					t.Errorf("refreshes = %d, want one per snapshot (%d)", info.Refreshes, last)
				}
				if info.LastError != "" {
					t.Errorf("view error: %s", info.LastError)
				}
				if prune && info.PrunedRefreshes == 0 {
					t.Error("pruning on but no refresh was pruned despite quiet windows")
				}
				if !prune && info.PrunedRefreshes != 0 {
					t.Errorf("pruning off but %d refreshes pruned", info.PrunedRefreshes)
				}
			})
		}
	}
}

// TestRetroViewRestartResumesFromCursor is the re-attach test: a view's
// cursor and mechanism state live in memory only, so a maintenance
// layer re-attached to stores that already hold view definitions (the
// restart path — a fresh ViewManager over the surviving stores) drops
// each view's stale result table and rebuilds it: it comes up at cursor
// 0, steps every snapshot once, those committed while no manager ran
// included, rebuilds the prune memo on the way (the quiet snapshot
// committed while maintenance was down is pruned), and ends
// byte-identical to a full recompute.
func TestRetroViewRestartResumesFromCursor(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	m1, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m1)
	db.SetSnapshotHook(m1.AnnounceSnapshot)
	m1.Start()

	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	kinds := []mechKind{mechCollate, mechAggVar, mechAggTable, mechIntervals}
	for _, kind := range kinds {
		mustExec(t, c, fmt.Sprintf(`CREATE RETRO VIEW V_%s AS %s`, kind, viewDDL[kind]))
	}

	rng := rand.New(rand.NewSource(7))
	present := map[int]bool{}
	narrowM.history(t, c, rng, present, 12)
	for _, kind := range kinds {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V_%s`, kind))
	}

	// Stop the maintenance layer; the definitions and the result tables
	// stay behind in the side store.
	db.SetRetroViewHook(nil)
	db.SetSnapshotHook(nil)
	m1.Close()

	// Snapshots committed while maintenance is down. The first is a
	// deliberate quiet one, which the rebuilt prune memo must prune.
	mustExec(t, c, `BEGIN`)
	idQuiet, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordSnapshot(c, idQuiet, time.Unix(int64(idQuiet), 0).UTC(), ""); err != nil {
		t.Fatal(err)
	}
	last := narrowM.history(t, c, rng, present, 7)

	// Re-attach: a fresh manager over the same stores comes up with
	// nothing materialized, the stale result tables gone.
	m2, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range m2.Infos() {
		if info.LastSnap != 0 || info.Refreshes != 0 || info.Rows != 0 {
			t.Errorf("%s: re-attached view at cursor %d with %d refreshes and %d rows, want all 0",
				info.Name, info.LastSnap, info.Refreshes, info.Rows)
		}
	}
	sub, err := m2.Subscribe("V_CollateData", int(last))
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m2)
	db.SetSnapshotHook(m2.AnnounceSnapshot)
	m2.Start()
	defer m2.Close()
	for _, kind := range kinds {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V_%s`, kind))
	}

	for _, info := range m2.Infos() {
		// Exactly one refresh per snapshot: a leftover row of the stale
		// table or a snapshot stepped twice would show in the table below.
		if info.LastSnap != last || info.Refreshes != last {
			t.Errorf("%s: cursor %d after %d refreshes, want both %d (one per snapshot)",
				info.Name, info.LastSnap, info.Refreshes, last)
		}
		if info.LastError != "" {
			t.Errorf("%s: view error: %s", info.Name, info.LastError)
		}
	}
	quietPruned := false
	for len(sub.C) > 0 {
		if b := <-sub.C; b.Snap == idQuiet {
			quietPruned = b.Pruned
		}
	}
	if !quietPruned {
		t.Error("V_CollateData: the rebuild did not prune the quiet snapshot")
	}

	for _, kind := range kinds {
		assertSameResult(t, c, fixtureOf(kind), "SnapIds", "V_"+kind.String())
	}
}

// TestRetroViewOneSideCommitPerRefresh: for every mechanism, each
// refresh after the first — the one that creates the result table and
// its index — is one side-store commit, whether it executes Qq or
// replays a pruned iteration; and an AggregateDataInVariable view holds
// its one row after every refresh.
func TestRetroViewOneSideCommitPerRefresh(t *testing.T) {
	for _, kind := range []mechKind{mechCollate, mechAggVar, mechAggTable, mechIntervals} {
		t.Run(kind.String(), func(t *testing.T) {
			db, err := sql.Open(sql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// No refresher goroutine: only REFRESH RETRO VIEW below
			// writes the view.
			m, err := NewViewManager(db, Attach(db))
			if err != nil {
				t.Fatal(err)
			}
			db.SetRetroViewHook(m)
			db.SetSnapshotHook(m.AnnounceSnapshot)
			c := db.Conn()
			mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
			if err := EnsureSnapIds(c); err != nil {
				t.Fatal(err)
			}
			mustExec(t, c, `CREATE RETRO VIEW V AS `+viewDDL[kind])

			rng, present := rand.New(rand.NewSource(23)), map[int]bool{}
			for i := 0; i < 16; i++ {
				snap := narrowM.history(t, c, rng, present, 1)
				before := db.SideStore().Stats().Commits
				mustExec(t, c, `REFRESH RETRO VIEW V`)
				commits := db.SideStore().Stats().Commits - before
				if info := m.Infos()[0]; info.LastSnap != snap || info.LastError != "" {
					t.Fatalf("snapshot %d: view at cursor %d, error %q", snap, info.LastSnap, info.LastError)
				}
				if i > 0 && commits != 1 {
					t.Errorf("refresh of snapshot %d: %d side-store commits, want 1", snap, commits)
				}
				if kind == mechAggVar {
					if n := len(queryRows(t, c, `SELECT * FROM V`)); n != 1 {
						t.Errorf("snapshot %d: the view holds %d rows, want 1", snap, n)
					}
				}
			}
			if m.Infos()[0].PrunedRefreshes == 0 {
				t.Error("no refresh was pruned: the pruned path went unmeasured")
			}
		})
	}
}

// TestRetroViewSubscription covers the in-process extension stream: a
// subscriber sees every materialized snapshot exactly once and in
// order, and a subscriber that stops draining is disconnected instead
// of stalling the refresh path.
func TestRetroViewSubscription(t *testing.T) {
	db, _, m := newViewEnv(t)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE RETRO VIEW V AS `+viewDDL[mechCollate])

	sub, err := m.Subscribe("V", 64)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.Subscribe("V", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe("nope", 1); err == nil {
		t.Fatal("subscribe to unknown view succeeded")
	}

	rng := rand.New(rand.NewSource(3))
	last := narrowM.history(t, c, rng, map[int]bool{}, 10)
	mustExec(t, c, `REFRESH RETRO VIEW V`)

	want := uint64(1)
	for want <= last {
		select {
		case b, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed at snapshot %d of %d", want, last)
			}
			if b.Snap != want {
				t.Fatalf("batch snap = %d, want %d (in order, exactly once)", b.Snap, want)
			}
			if b.View != "V" || len(b.Cols) == 0 {
				t.Fatalf("malformed batch %+v", b)
			}
			want++
		case <-time.After(10 * time.Second):
			t.Fatalf("no batch for snapshot %d", want)
		}
	}
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Fatal("batch after Cancel")
	}

	// The slow subscriber (buffer 1, never drained) must have been cut
	// off: its channel closes rather than blocking refreshes above.
	select {
	case b, ok := <-slow.C:
		if ok {
			// It may have received the first batch before falling behind;
			// the channel must close right after.
			if b.Snap != 1 {
				t.Fatalf("slow subscriber got snap %d first", b.Snap)
			}
			if _, ok := <-slow.C; ok {
				t.Fatal("slow subscriber still connected after falling behind")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow subscriber neither served nor disconnected")
	}
}

// TestRetroViewDDLLifecycle covers create/drop edge cases: duplicate
// names, unknown mechanisms, dropping with IF EXISTS, and that a
// dropped-and-recreated view starts from scratch instead of resuming
// the old cursor.
func TestRetroViewDDLLifecycle(t *testing.T) {
	db, _, m := newViewEnv(t)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}

	mustExec(t, c, `CREATE RETRO VIEW V AS CollateData('SELECT k, current_snapshot() AS sid FROM m')`)
	// The view's name is its own: a table of either store that took it
	// would make every refresh fail to materialize into it.
	for _, ddl := range []string{`CREATE TEMP TABLE v (x INTEGER)`, `CREATE TABLE v (x INTEGER)`} {
		if err := c.Exec(ddl, nil); !errors.Is(err, sql.ErrExists) {
			t.Fatalf("%s beside retro view V: %v, want ErrExists", ddl, err)
		}
	}
	if err := c.Exec(`CREATE RETRO VIEW V AS CollateData('SELECT k FROM m')`, nil); err == nil {
		t.Fatal("duplicate view name accepted")
	}
	if err := c.Exec(`CREATE RETRO VIEW W AS NoSuchMechanism('SELECT k FROM m')`, nil); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if err := c.Exec(`CREATE RETRO VIEW W AS AggregateDataInVariable('SELECT COUNT(*) FROM m')`, nil); err == nil {
		t.Fatal("AggregateDataInVariable without aggregate argument accepted")
	}
	if err := c.Exec(`CREATE RETRO VIEW W AS CollateData('INSERT INTO m VALUES (1, ''x'', 1)')`, nil); err == nil {
		t.Fatal("non-SELECT view query accepted")
	}

	rng := rand.New(rand.NewSource(5))
	last := narrowM.history(t, c, rng, map[int]bool{}, 5)
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	if info := m.Infos()[0]; info.LastSnap != last {
		t.Fatalf("cursor = %d, want %d", info.LastSnap, last)
	}

	mustExec(t, c, `DROP RETRO VIEW V`)
	if n := len(m.Infos()); n != 0 {
		t.Fatalf("%d views after drop, want 0", n)
	}
	if err := c.Exec(`SELECT * FROM V`, nil); err == nil {
		t.Fatal("result table survived the drop")
	}
	if err := c.Exec(`DROP RETRO VIEW V`, nil); err == nil {
		t.Fatal("dropping a missing view without IF EXISTS succeeded")
	}
	mustExec(t, c, `DROP RETRO VIEW IF EXISTS V`)

	// Recreate under the same name: the old cursor must not leak in —
	// the view backfills the whole history again.
	mustExec(t, c, `CREATE RETRO VIEW V AS CollateData('SELECT k, current_snapshot() AS sid FROM m')`)
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	info := m.Infos()[0]
	if info.LastSnap != last || info.Refreshes != last {
		t.Fatalf("recreated view cursor=%d refreshes=%d, want both %d (full backfill)",
			info.LastSnap, info.Refreshes, last)
	}
}

// TestRetroViewFractionalModulo: a view whose Qq takes % with a divisor
// that casts to integer 0 materializes NULL, as SQLite does. The
// background refresher has no recover, so an integer divide-by-zero
// panic there would end the whole process.
func TestRetroViewFractionalModulo(t *testing.T) {
	db, _, m := newViewEnv(t)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `INSERT INTO m VALUES (5, 'g', 1), (6, 'g', 2)`)
	mustExec(t, c, `CREATE RETRO VIEW V AS CollateData('SELECT k % 0.5 AS r, k % 2.5 AS q, current_snapshot() AS sid FROM m')`)
	id, err := DeclareSnapshot(c, time.Unix(1, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	if info := m.Infos()[0]; info.LastSnap != id || info.LastError != "" {
		t.Fatalf("view cursor %d, last error %q; want %d and none", info.LastSnap, info.LastError, id)
	}
	expectSet(t, queryRows(t, c, `SELECT r, q, sid FROM V`),
		fmt.Sprintf("NULL|1|%d", id), fmt.Sprintf("NULL|0|%d", id))
}

// TestRetroViewFailedStepLeavesNoTrace: a view step that fails
// mid-iteration — here a scalar UDF inside Qq failing once on the k-th
// row of one snapshot — must leave neither result rows nor in-memory
// fold state behind and must not advance the cursor, so the retry folds
// each row exactly once and the view still equals a full recompute.
// Every mechanism is run (failedStepFixtures). warm is the history
// materialized before the failing step: with none, the failing step is
// the one that created the view's table. The UDF fails by returning an
// error or by panicking; a panic must be contained like an error both
// under a synchronous REFRESH RETRO VIEW and under the background
// refresher, which must survive it.
func TestRetroViewFailedStepLeavesNoTrace(t *testing.T) {
	for _, warm := range []int{6, 0} {
		for _, f := range []struct {
			name    string
			failure viewStepFailure
		}{{"", failError}, {" panic", failPanic}, {" background panic", failPanicBackground}} {
			t.Run(fmt.Sprintf("warm%d%s", warm, f.name), func(t *testing.T) {
				for _, fx := range failedStepFixtures {
					t.Run(fx.kind.String(), func(t *testing.T) { testFailedViewStep(t, fx, warm, f.failure) })
				}
			})
		}
	}
	t.Run("name taken", testFailedViewStepNameTaken)
}

// failedStepFixtures are the views testFailedViewStep fails: each Qq
// calls flaky once per row of m.
var failedStepFixtures = []mechFixture{
	{mechCollate, `SELECT k, grp, flaky(v) AS fv FROM m`, "", `SELECT k, grp, fv FROM %s`},
	{mechAggVar, `SELECT SUM(flaky(v)) AS s FROM m`, "sum", `SELECT * FROM %s`},
	{mechAggTable, `SELECT grp, flaky(v) AS av FROM m`, "(av,avg)", `SELECT grp, round(av, 6) FROM %s`},
	{mechIntervals, `SELECT k, flaky(v) AS fv FROM m`, "", `SELECT k, fv, start_snapshot, end_snapshot FROM %s`},
}

// How testFailedViewStep's UDF fails, and which refresh path meets it.
type viewStepFailure int

const (
	failError           viewStepFailure = iota // an error, met by REFRESH RETRO VIEW
	failPanic                                  // a panic, met by REFRESH RETRO VIEW
	failPanicBackground                        // a panic, met by the background refresher
)

// A table cannot take the view's name before the view's first
// materialization: the CREATE fails, so the first step, which creates
// the view's own table, neither fails nor has a user's table to leave
// alone.
func testFailedViewStepNameTaken(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := NewViewManager(db, Attach(db))
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m)
	db.SetSnapshotHook(m.AnnounceSnapshot)

	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE RETRO VIEW V AS CollateData('SELECT k FROM m')`)
	if err := c.Exec(`CREATE TEMP TABLE V (mine INTEGER)`, nil); !errors.Is(err, sql.ErrExists) {
		t.Fatalf("a table took the view's name: err = %v, want ErrExists", err)
	}
	last := narrowM.history(t, c, rand.New(rand.NewSource(3)), map[int]bool{}, 2)

	mustExec(t, c, `REFRESH RETRO VIEW V`)
	if info := m.Infos()[0]; info.LastSnap != last || info.LastError != "" {
		t.Errorf("view after refresh: cursor %d, last error %q; want cursor %d, no error", info.LastSnap, info.LastError, last)
	}
	if _, err := c.Query(`SELECT k FROM V`); err != nil {
		t.Errorf("the view's own table: %v", err)
	}
}

func testFailedViewStep(t *testing.T, fx mechFixture, warm int, failure viewStepFailure) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := Attach(db)
	// Without the refresher goroutine every refresh below is the
	// synchronous REFRESH RETRO VIEW, so exactly one step hits the armed
	// failure. With it, the refresher meets the failure first.
	m, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRetroViewHook(m)
	db.SetSnapshotHook(m.AnnounceSnapshot)
	if failure == failPanicBackground {
		m.Start()
		defer m.Close()
	}

	var failAt atomic.Int64 // calls left until the one failure; 0 = disarmed
	boom := errors.New("flaky() failed")
	db.RegisterFunc(sql.FuncDef{Name: "flaky", MinArgs: 1, MaxArgs: 1,
		Fn: func(_ *sql.FuncContext, a []record.Value) (record.Value, error) {
			if failAt.Load() > 0 && failAt.Add(-1) == 0 {
				if failure != failError {
					panic(boom)
				}
				return record.Value{}, boom
			}
			return a[0], nil
		}})

	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	if err := EnsureSnapIds(c); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE RETRO VIEW V AS `+fx.ddl())

	narrowM.history(t, c, rand.New(rand.NewSource(17)), map[int]bool{}, warm)
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	before := m.Infos()[0]

	// One more snapshot with plenty of live rows; its step fails on the
	// 4th row, after three rows have been folded. Armed before the commit
	// announces the snapshot to a running refresher.
	failAt.Store(4)
	mustExec(t, c, `BEGIN`)
	for k := 100; k < 110; k++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`, k, k%3, k))
	}
	id, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordSnapshot(c, id, time.Unix(int64(id), 0).UTC(), ""); err != nil {
		t.Fatal(err)
	}
	if failure == failPanicBackground {
		// The commit above announced the snapshot; wait for the
		// refresher to report the failed step.
		deadline := time.Now().Add(10 * time.Second)
		for m.Infos()[0].LastError == "" {
			if time.Now().After(deadline) {
				t.Fatal("the background refresher reported no failure")
			}
			time.Sleep(time.Millisecond)
		}
		if got := m.Infos()[0].LastError; !strings.Contains(got, boom.Error()) {
			t.Fatalf("background refresh: error %q, want the UDF panic", got)
		}
		// A wake still pending from the history may already have retried
		// the step, so only the end state below is deterministic here.
	} else {
		if err := c.Exec(`REFRESH RETRO VIEW V`, nil); err == nil || !strings.Contains(err.Error(), boom.Error()) {
			t.Fatalf("armed refresh: err = %v, want the UDF failure", err)
		}
		if info := m.Infos()[0]; info.LastSnap != before.LastSnap || info.Rows != before.Rows {
			t.Errorf("failed step moved the view: cursor %d -> %d, rows %d -> %d",
				before.LastSnap, info.LastSnap, before.Rows, info.Rows)
		}
	}
	mustExec(t, c, `REFRESH RETRO VIEW V`) // the retry
	if info := m.Infos()[0]; info.LastSnap != id {
		t.Fatalf("retry left the cursor at %d, want %d", info.LastSnap, id)
	}

	assertSameResult(t, c, fx, "SnapIds", "V")
}

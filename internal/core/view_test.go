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
// incrementally maintained view — one persisted lane stepped once per
// snapshot — is byte-identical, rows and current_snapshot() tags, to the
// SQL-form UDF statement run from scratch over the same history, and the
// pruned runs actually pruned (the quiet windows guarantee empty deltas
// on the view's read path).
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

// TestRetroViewRestartResumesFromCursor is the restart-durability
// regression test: the view's cursor and mechanism state persist in the
// side store, so a maintenance layer that dies and is re-attached (the
// rqld restart path — rql.Open builds a fresh ViewManager over the
// surviving stores) resumes from the cursor: snapshots committed while
// it was down are applied exactly once each, nothing is recomputed, and
// the result table ends byte-identical to a full recompute.
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
	last1 := narrowM.history(t, c, rng, present, 12)
	for _, kind := range kinds {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V_%s`, kind))
	}

	// Kill the maintenance layer; the cursor and state rows stay behind
	// in the side store.
	db.SetRetroViewHook(nil)
	db.SetSnapshotHook(nil)
	m1.Close()

	// Snapshots committed while maintenance is down. The first is a
	// deliberate quiet one so the restarted manager's first refresh can
	// be served from the restored prune cache.
	mustExec(t, c, `BEGIN`)
	idQuiet, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordSnapshot(c, idQuiet, time.Unix(int64(idQuiet), 0).UTC(), ""); err != nil {
		t.Fatal(err)
	}
	last2 := narrowM.history(t, c, rng, present, 7)
	missed := last2 - last1

	// Restart: a fresh manager over the same stores must come up with
	// the persisted cursor before any refresh work.
	m2, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range m2.Infos() {
		if info.LastSnap != last1 {
			t.Errorf("%s: reloaded cursor = %d, want %d", info.Name, info.LastSnap, last1)
		}
		if info.Refreshes != 0 {
			t.Errorf("%s: fresh manager reports %d refreshes before doing any", info.Name, info.Refreshes)
		}
	}
	db.SetRetroViewHook(m2)
	db.SetSnapshotHook(m2.AnnounceSnapshot)
	m2.Start()
	defer m2.Close()
	for _, kind := range kinds {
		mustExec(t, c, fmt.Sprintf(`REFRESH RETRO VIEW V_%s`, kind))
	}

	for _, info := range m2.Infos() {
		if info.LastSnap != last2 {
			t.Errorf("%s: cursor = %d, want %d", info.Name, info.LastSnap, last2)
		}
		// Exactly one refresh per missed snapshot: a recompute from
		// scratch would show last2 refreshes, a lost cursor would show
		// duplicates in the table below.
		if info.Refreshes != missed {
			t.Errorf("%s: %d refreshes after restart, want %d (one per missed snapshot)",
				info.Name, info.Refreshes, missed)
		}
		if info.LastError != "" {
			t.Errorf("%s: view error: %s", info.Name, info.LastError)
		}
	}
	// The quiet snapshot right after restart must have been pruned from
	// the restored read-set for the prune-safe views.
	for _, info := range m2.Infos() {
		if info.Name == "V_CollateData" && info.PrunedRefreshes == 0 {
			t.Error("V_CollateData: restored prune cache did not prune the quiet snapshot")
		}
	}

	for _, kind := range kinds {
		runMech(t, r, c, kind, `SELECT snap_id FROM SnapIds`, viewQq[kind], "Full_"+kind.String(), false)
		a := sortedRows(t, c, fmt.Sprintf(viewSel[kind], "V_"+kind.String()))
		b := sortedRows(t, c, fmt.Sprintf(viewSel[kind], "Full_"+kind.String()))
		if strings.Join(a, ";") != strings.Join(b, ";") {
			t.Fatalf("%s: view after restart differs from full recompute\nview: %v\nfull: %v", kind, a, b)
		}
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

// TestRetroViewStateChunking covers the wide-view persistence path: a
// view whose encoded refresh state (read-set page ids plus the cached
// rows of one iteration) exceeds one btree cell must split across
// sequenced side-store rows and reassemble identically on restart —
// including the prune memo, proven by the restarted manager pruning a
// quiet snapshot it never saw while running.
func TestRetroViewStateChunking(t *testing.T) {
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
	mustExec(t, c, fmt.Sprintf(`CREATE RETRO VIEW V AS %s`, viewDDL[mechCollate]))

	// One fat snapshot: enough live rows that the cached iteration in
	// the state blob spans several viewStateChunk-sized cells.
	mustExec(t, c, `BEGIN`)
	for k := 100; k < 700; k++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO m VALUES (%d, 'g%d', %d)`, k, k%3, k*7))
	}
	id, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordSnapshot(c, id, time.Unix(int64(id), 0).UTC(), ""); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	last1 := uint64(id)

	seqs := queryRows(t, c, `SELECT seq FROM rql_view_state WHERE name = 'v'`)
	if len(seqs) < 2 {
		t.Fatalf("state persisted in %d row(s), want several chunks", len(seqs))
	}

	db.SetRetroViewHook(nil)
	db.SetSnapshotHook(nil)
	m1.Close()

	// A quiet snapshot committed while maintenance is down.
	mustExec(t, c, `BEGIN`)
	idQuiet, err := c.CommitWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordSnapshot(c, idQuiet, time.Unix(int64(idQuiet), 0).UTC(), ""); err != nil {
		t.Fatal(err)
	}
	last2 := uint64(idQuiet)

	m2, err := NewViewManager(db, r)
	if err != nil {
		t.Fatal(err)
	}
	if info := m2.Infos()[0]; info.LastSnap != last1 {
		t.Fatalf("reloaded cursor = %d, want %d", info.LastSnap, last1)
	}
	db.SetRetroViewHook(m2)
	db.SetSnapshotHook(m2.AnnounceSnapshot)
	m2.Start()
	defer m2.Close()
	m2.AnnounceSnapshot(last2)
	mustExec(t, c, `REFRESH RETRO VIEW V`)
	info := m2.Infos()[0]
	if info.LastSnap != last2 || info.Refreshes != last2-last1 {
		t.Fatalf("after restart: cursor=%d refreshes=%d, want cursor %d with %d refreshes",
			info.LastSnap, info.Refreshes, last2, last2-last1)
	}
	if info.PrunedRefreshes == 0 {
		t.Fatal("quiet snapshot not pruned: restored prune memo did not survive chunking")
	}

	runMech(t, r, c, mechCollate, `SELECT snap_id FROM SnapIds`, viewQq[mechCollate], "Full_chunk", false)
	a := sortedRows(t, c, fmt.Sprintf(viewSel[mechCollate], "V"))
	b := sortedRows(t, c, fmt.Sprintf(viewSel[mechCollate], "Full_chunk"))
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("chunk-restored view diverges from full recompute:\nview: %d rows\nfull: %d rows", len(a), len(b))
	}
}

// TestRetroViewFailedStepLeavesNoTrace: a view step that fails
// mid-iteration — here a scalar UDF inside Qq failing once on the k-th
// row of one snapshot — must leave neither result rows nor in-memory
// fold state behind and must not advance the cursor, so the retry folds
// each row exactly once and the view still equals a full recompute.
// warm is the history materialized before the failing step: with none,
// the failing step is the one that created the view's table. The UDF
// fails by returning an error or by panicking; a panic must be contained
// like an error both under a synchronous REFRESH RETRO VIEW and under
// the background refresher, which must survive it.
func TestRetroViewFailedStepLeavesNoTrace(t *testing.T) {
	for _, warm := range []int{6, 0} {
		t.Run(fmt.Sprintf("warm%d", warm), func(t *testing.T) { testFailedViewStep(t, warm, failError) })
		t.Run(fmt.Sprintf("warm%d panic", warm), func(t *testing.T) { testFailedViewStep(t, warm, failPanic) })
		t.Run(fmt.Sprintf("warm%d background panic", warm), func(t *testing.T) { testFailedViewStep(t, warm, failPanicBackground) })
	}
	t.Run("name taken", testFailedViewStepNameTaken)
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

func testFailedViewStep(t *testing.T, warm int, failure viewStepFailure) {
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
	const qq = `SELECT grp, flaky(v) AS av FROM m`
	mustExec(t, c, `CREATE RETRO VIEW V AS AggregateDataInTable('`+qq+`', '(av,avg)')`)

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

	if _, err := r.AggregateDataInTable(c, `SELECT snap_id FROM SnapIds`, qq, "Full", "(av,avg)"); err != nil {
		t.Fatal(err)
	}
	a := sortedRows(t, c, `SELECT grp, round(av, 6) FROM V`)
	b := sortedRows(t, c, `SELECT grp, round(av, 6) FROM Full`)
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("view diverged from a full recompute after a failed step was retried\nview: %v\nfull: %v", a, b)
	}
}

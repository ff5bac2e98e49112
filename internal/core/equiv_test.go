package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"

	"rql/internal/record"
	"rql/internal/sql"
)

// Every executor equivalence — Go-level batch ≡ UDF, pruned ≡
// unpruned, incremental view ≡ full run — is checked the same way:
// against one oracle, the SQL-form UDF statement of the paper's
// Figure 5, which steps one lane per Qs row with a per-iteration SPT
// and no batching or pruning.

// mechFixture is one mechanism invocation under test and the projection
// that makes its result table comparable.
type mechFixture struct {
	kind  mechKind
	qq    string
	extra string // AggFunc / ListOfColFuncPairs; "" for the two-argument mechanisms
	sel   string // %s is the result table
}

// mechExtra is the extra argument runMech passes for each kind.
var mechExtra = map[mechKind]string{mechAggVar: "sum", mechAggTable: "(c,max):(av,avg)"}

// fixtureOf is kind's canonical invocation over table m (what runMech
// runs and the view tests declare).
func fixtureOf(kind mechKind) mechFixture {
	return mechFixture{kind, viewQq[kind], mechExtra[kind], viewSel[kind]}
}

// aggVarAvg is the AVG special case of AggregateDataInVariable, which
// the canonical fixtures (a SUM) do not reach.
var aggVarAvg = mechFixture{mechAggVar, viewQq[mechAggVar], "avg", viewSel[mechAggVar]}

// allFixtures is every mechanism, AVG in both its forms included.
var allFixtures = []mechFixture{fixtureOf(mechCollate), fixtureOf(mechAggVar), aggVarAvg,
	fixtureOf(mechAggTable), fixtureOf(mechIntervals)}

// tag is a table-name-safe label for the fixture.
func (fx mechFixture) tag() string {
	return fx.kind.String() + "_" + strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) {
			return r
		}
		return -1
	}, fx.extra)
}

// ddl is the fixture as a CREATE RETRO VIEW tail.
func (fx mechFixture) ddl() string {
	s := fx.kind.String() + "('" + fx.qq + "'"
	if fx.extra != "" {
		s += ", '" + fx.extra + "'"
	}
	return s + ")"
}

// randomHistory builds a database with a randomized membership table
// and many snapshots, for the equivalence checks.
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

var oracleSeq int

// assertSameResult checks that every table holds exactly the rows the
// oracle produces for fx over the snapshot set `SELECT snap_id FROM
// <qsFrom>`: the statement
//
//	SELECT Mechanism(snap_id, Qq, T[, extra]) FROM <qsFrom>
func assertSameResult(t *testing.T, c *sql.Conn, fx mechFixture, qsFrom string, tables ...string) {
	t.Helper()
	oracleSeq++
	oracle := fmt.Sprintf("Oracle_%d", oracleSeq)
	call := fx.kind.String() + "(snap_id, ?, ?"
	args := []record.Value{record.Text(fx.qq), record.Text(oracle)}
	if fx.extra != "" {
		call += ", ?"
		args = append(args, record.Text(fx.extra))
	}
	mustExec(t, c, "SELECT "+call+") FROM "+qsFrom, args...)
	want := sortedRows(t, c, fmt.Sprintf(fx.sel, oracle))
	for _, table := range tables {
		got := sortedRows(t, c, fmt.Sprintf(fx.sel, table))
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("%s over %s: %s differs from the SQL-form UDF result\n got: %v\nwant: %v",
				fx.kind, qsFrom, table, got, want)
		}
	}
}

// qsOrders are the Qs shapes every equivalence runs over: ascending,
// descending, and every member twice in a row.
var qsOrders = []string{"SnapIds", "QsDesc", "QsDup"}

// makeQsOrders materializes QsDesc and QsDup from SnapIds (a table
// scan returns rows in insertion order, so the Go-level Qs and the UDF
// statement see the same sequence).
func makeQsOrders(t *testing.T, c *sql.Conn) {
	t.Helper()
	mustExec(t, c, `CREATE TEMP TABLE QsDesc (snap_id INTEGER)`)
	mustExec(t, c, `CREATE TEMP TABLE QsDup (snap_id INTEGER)`)
	ids := queryRows(t, c, `SELECT snap_id FROM SnapIds`)
	for i, id := range ids {
		mustExec(t, c, `INSERT INTO QsDesc VALUES (`+ids[len(ids)-1-i]+`)`)
		mustExec(t, c, `INSERT INTO QsDup VALUES (`+id+`)`)
		mustExec(t, c, `INSERT INTO QsDup VALUES (`+id+`)`)
	}
}

// The Go-level run — one lane over a reader set — must produce what
// the UDF statement does, and on a reset system both forms hash the
// same Maplog segment tables once: the set's open hashes every
// member's cover, and the UDF form's per-iteration opens share the
// tables the earlier ones built. The history ends on a declaration, so
// there is no open tail, and the set's MapScanned is exactly the table
// entries it left behind.
func TestBatchRunMatchesUDFForm(t *testing.T) {
	r, c := randomHistory(t, 11, 25)
	makeQsOrders(t, c)
	sys := r.db.Retro()
	for _, from := range qsOrders {
		for _, fx := range allFixtures {
			label := fx.tag() + " over " + from
			table := "B_" + fx.tag() + "_" + from
			sys.ResetCache()
			bs := runFixture(t, r, c, fx, "SELECT snap_id FROM "+from, table)
			batch := sys.Stats()
			sys.ResetCache()
			assertSameResult(t, c, fx, from, table)
			us := r.LastRun() // the oracle's run
			udf := sys.Stats()

			if bs.BatchBuilds != 1 || bs.BatchMapScanned == 0 {
				t.Errorf("%s: batch run stats %+v, want one recorded batch build", label, bs)
			}
			if us.BatchBuilds != 0 || us.PrunedIterations != 0 || !strings.Contains(us.PruneReason, "SQL-form UDF") {
				t.Errorf("%s: UDF run must neither batch nor prune: %+v", label, us)
			}
			if len(us.Iterations) != len(bs.Iterations) {
				t.Errorf("%s: %d iterations, UDF form ran %d", label, len(bs.Iterations), len(us.Iterations))
			}
			if uint64(bs.BatchMapScanned) != batch.SPTTableEntries || udf.SPTTableEntries != batch.SPTTableEntries {
				t.Errorf("%s: set open hashed %d Maplog entries into %d table entries, the UDF form's opens %d — both must hash each table once",
					label, bs.BatchMapScanned, batch.SPTTableEntries, udf.SPTTableEntries)
			}
			// Billing: the set's build lands on the first iteration so
			// run totals stay comparable across the two paths.
			if bs.Iterations[0].MapScanned < bs.BatchMapScanned {
				t.Errorf("%s: set build not billed to the first iteration: %+v", label, bs.Iterations[0])
			}
		}
	}
}

// The Go-level run and the SQL-form statement read the same pages: on a
// reset cache with pruning off (the SQL form never prunes), every
// mechanism bills the same number of page reads in total, the same
// number of them cold, and leaves the same T.
func TestGoAPIMatchesUDFFormColdCounters(t *testing.T) {
	r, c := randomHistory(t, 23, 20)
	r.SetDeltaPrune(false)
	reads := func(rs *RunStats) (all, cold int) {
		tot := rs.Total()
		return tot.PagelogReads + tot.CacheHits + tot.DBReads, tot.PagelogReads
	}
	for _, fx := range allFixtures {
		table := "G_" + fx.tag()
		r.db.Retro().ResetCache()
		gs := runFixture(t, r, c, fx, "SELECT snap_id FROM SnapIds", table)
		r.db.Retro().ResetCache()
		assertSameResult(t, c, fx, "SnapIds", table)
		us := r.LastRun() // the oracle's run
		gAll, gCold := reads(gs)
		uAll, uCold := reads(us)
		if gAll != uAll || gCold != uCold || gCold == 0 {
			t.Errorf("%s: Go-level run billed %d page reads (%d cold), the SQL form %d (%d cold)",
				fx.tag(), gAll, gCold, uAll, uCold)
		}
	}
}

// TestMechanismsAcrossSchemaChange runs every mechanism over one snapshot
// set whose members straddle a CREATE INDEX, and a DROP TABLE + CREATE
// TABLE that reorders m's columns: the Go-level run — whose reader set
// keeps Qq's plan from member to member and must plan it anew where the
// catalog changes — must leave what the per-member AS OF loop of the
// SQL-form statement does.
func TestMechanismsAcrossSchemaChange(t *testing.T) {
	db, err := sql.Open(sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := Attach(db)
	c := db.Conn()
	mustExec(t, c, `CREATE TABLE m (k INTEGER, grp TEXT, v INTEGER)`)
	cols := "k, grp, v"
	for s := 0; s < 12; s++ {
		switch s {
		case 4:
			mustExec(t, c, `CREATE INDEX m_k ON m (k)`)
		case 8:
			mustExec(t, c, `DROP TABLE m`)
			mustExec(t, c, `CREATE TABLE m (v INTEGER, grp TEXT, k INTEGER)`)
			cols = "v, grp, k"
		}
		mustExec(t, c, `BEGIN`)
		mustExec(t, c, fmt.Sprintf(`DELETE FROM m WHERE k %% 4 = %d`, s%4))
		for n := 0; n < 3; n++ {
			k := (s*3 + n*5) % 11
			vals := []record.Value{record.Int(int64(k)), record.Text(fmt.Sprintf("g%d", k%3)), record.Int(int64(s*10 + n))}
			if cols == "v, grp, k" {
				vals[0], vals[2] = vals[2], vals[0]
			}
			mustExec(t, c, `INSERT INTO m (`+cols+`) VALUES (?, ?, ?)`, vals...)
		}
		if _, err := DeclareSnapshot(c, time.Unix(int64(s), 0), ""); err != nil {
			t.Fatal(err)
		}
	}
	fixtures := append([]mechFixture{
		{mechCollate, `SELECT k, grp, current_snapshot() AS sid FROM m WHERE k >= 4`, "", `SELECT k, grp, sid FROM %s`},
		{mechIntervals, `SELECT k, grp FROM m WHERE k < 8`, "", `SELECT k, grp, start_snapshot, end_snapshot FROM %s`},
	}, allFixtures...)
	for i, fx := range fixtures {
		table := fmt.Sprintf("S%d_%s", i, fx.tag())
		runFixture(t, r, c, fx, "SELECT snap_id FROM SnapIds", table)
		assertSameResult(t, c, fx, "SnapIds", table)
	}
}

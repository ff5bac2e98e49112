// Package core implements RQL, the paper's contribution: a declarative
// SQL extension for computations over sets of Retro snapshots. The four
// mechanisms — Collate Data, Aggregate Data In Variable, Aggregate Data
// In Table, and Collate Data Into Intervals (§2) — are implemented as
// scalar UDFs interposed on the snapshot-set query Qs, exactly the
// structure of the paper's Figure 5:
//
//	SELECT CollateData(snap_id, 'SELECT ...', 'Result') FROM SnapIds WHERE ...;
//
// The engine invokes the UDF once per Qs row ("loop index" snap_id);
// the UDF body binds the snapshot query Qq to that snapshot (the
// paper's "AS OF" rewrite — see Rewrite for the literal textual form
// and its equivalence), executes it with a per-record callback, and
// processes the records in a mechanism-specific way against the result
// table T in the separate non-snapshotable store.
//
// Every mechanism records a per-iteration cost breakdown (I/O, SPT
// build, index creation, query evaluation, UDF processing) matching the
// bars of the paper's Figures 8–13.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// The iteration and run cost records this package fills are declared in
// sql, their lowest consumer (EXPLAIN ANALYZE, the slow-query log).
type (
	IterationCost = sql.IterationCost
	RunStats      = sql.RunStats
)

// RQL binds the mechanism UDFs to a database and collects run
// statistics.
type RQL struct {
	db *sql.DB

	mu      sync.Mutex
	lastRun *RunStats

	noPrune atomic.Bool // disable delta pruning of unchanged iterations
}

// Attach registers the four RQL mechanism UDFs on db and returns the
// handle used to run mechanisms and read their statistics.
func Attach(db *sql.DB) *RQL {
	r := &RQL{db: db}
	db.RegisterFunc(sql.FuncDef{
		Name: "CollateData", MinArgs: 3, MaxArgs: 3,
		Fn: r.udf(mechCollate),
	})
	db.RegisterFunc(sql.FuncDef{
		Name: "AggregateDataInVariable", MinArgs: 4, MaxArgs: 4,
		Fn: r.udf(mechAggVar),
	})
	db.RegisterFunc(sql.FuncDef{
		Name: "AggregateDataInTable", MinArgs: 4, MaxArgs: 4,
		Fn: r.udf(mechAggTable),
	})
	db.RegisterFunc(sql.FuncDef{
		Name: "CollateDataIntoIntervals", MinArgs: 3, MaxArgs: 3,
		Fn: r.udf(mechIntervals),
	})
	return r
}

// LastRun returns the statistics of the most recently completed
// mechanism run on this database.
func (r *RQL) LastRun() *RunStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastRun
}

func (r *RQL) setLastRun(rs *RunStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastRun = rs
}

// ResetLastRun clears the last-run statistics (part of the stats-reset
// surface; the next mechanism run repopulates it).
func (r *RQL) ResetLastRun() { r.setLastRun(nil) }

// SetDeltaPrune enables or disables delta pruning for the Go-level
// mechanism API and views (on by default): when on, a run records each
// executed iteration's page read-set and skips any later iteration
// whose snapshot-to-snapshot page delta does not intersect it,
// replaying the cached Qq output (with current_snapshot() columns
// re-tagged) instead of executing Qq. Pruning requires a prune-safe Qq
// (see sql.PruneInfo); the SQL-form UDF path never prunes. Off is the
// reference the pruned ≡ unpruned tests compare against.
func (r *RQL) SetDeltaPrune(on bool) { r.noPrune.Store(!on) }

// recordBatchBuild surfaces the reader set's SPT build as a retroactive
// span under the run span (the build just finished, so its start is
// approximated back from its measured duration).
func recordBatchBuild(sp *obs.Span, set *sql.ReaderSet) {
	if set == nil || sp == nil {
		return
	}
	bt := set.BuildTime()
	obs.Record(sp, "retro.spt_batch_build", time.Now().Add(-bt), bt,
		obs.Attr{Key: "members", Int: int64(len(set.Snapshots()))},
		obs.Attr{Key: "map_scanned", Int: int64(set.Scanned())})
}

// billBatch records the reader set's build on the run: as
// run-level fields, and billed to the first iteration's SPTBuild and
// MapScanned so totals stay comparable with the per-iteration path.
func billBatch(run *RunStats, set *sql.ReaderSet) {
	if set == nil {
		return
	}
	run.BatchBuilds = 1
	run.BatchMapScanned = set.Scanned()
	run.BatchBuildTime = set.BuildTime()
	if len(run.Iterations) > 0 {
		run.Iterations[0].SPTBuild += set.BuildTime()
		run.Iterations[0].MapScanned += set.Scanned()
	}
}

// readLatency is the modeled per-Pagelog-read cost configured on the
// snapshot system.
func (r *RQL) readLatency() time.Duration { return r.db.Retro().ReadLatency() }

// udfState is the per-statement state of a SQL-form mechanism call
// (the paper implements it through SQLite UDF auxdata; we carry it
// through FuncContext.Aux): one lane writing T, stepped once per Qs row
// and finished when the statement ends. The engine streams Qs rows, so
// the snapshot set is unknown up front and every iteration builds its
// own SPT; none is pruned either. It is the plain §3 loop, the reference
// the batched and pruned Go-level runs are checked against.
type udfState struct {
	ln        *lane // nil until the arguments validate
	finalized bool
}

// FinalizeStmt implements sql.StmtFinalizer.
func (u *udfState) FinalizeStmt(commit bool) error {
	if u.finalized || u.ln == nil {
		return nil
	}
	u.finalized = true
	return u.ln.finish(commit)
}

// udf adapts a mechanism kind into a scalar UDF body: per Qs row it
// pulls the per-statement state from the auxdata slot and runs one
// loop-body iteration.
func (r *RQL) udf(kind mechKind) func(fc *sql.FuncContext, args []record.Value) (record.Value, error) {
	return func(fc *sql.FuncContext, args []record.Value) (record.Value, error) {
		u := fc.Aux(func() any { return &udfState{} }).(*udfState)
		if u.finalized {
			return record.Value{}, fmt.Errorf("rql: %s: iteration after finalize", kind)
		}
		if u.ln == nil {
			for _, a := range args[1:] {
				if a.Type() != record.TypeText {
					return record.Value{}, fmt.Errorf("rql: %s: every argument after snap_id must be text", kind)
				}
			}
			call := mechCall{kind: kind, qq: args[1].Text(), table: args[2].Text()}
			if call.hasExtra = len(args) > 3; call.hasExtra {
				call.extra = args[3].Text()
			}
			m, err := r.newMech(call)
			if err != nil {
				return record.Value{}, err
			}
			u.ln = m.tableLane(fc.Conn())
		}
		snap, err := qsSnapshot(args[:1])
		if err != nil {
			return record.Value{}, err
		}
		if err := u.ln.step(snap); err != nil {
			return record.Value{}, err
		}
		return record.Int(1), nil
	}
}

// ---------------------------------------------------------------------------
// SnapIds (paper §3: maintained at application level, in a separate
// non-snapshotable database, updated transactionally).
// ---------------------------------------------------------------------------

// EnsureSnapIds creates the SnapIds table in the non-snapshotable side
// store if it does not exist yet.
func EnsureSnapIds(conn *sql.Conn) error {
	return conn.Exec(`CREATE TEMP TABLE IF NOT EXISTS SnapIds (
		snap_id INTEGER PRIMARY KEY,
		snap_ts TEXT,
		label   TEXT
	)`, nil)
}

// Registration is a snapshot's SnapIds row without the id its commit
// assigns: what a declaring commit carries, so that replication ships
// the row in the snapshot's own frame.
type Registration struct{ TS, Label string }

func snapTS(ts time.Time) string { return ts.UTC().Format("2006-01-02 15:04:05") }

// RecordSnapshot registers an already-declared snapshot in SnapIds with
// a timestamp and an optional application-meaningful label: the paper's
// late labelling (§3), a plain side-store insert that reaches replicas
// only by bootstrap.
func RecordSnapshot(conn *sql.Conn, snapID uint64, ts time.Time, label string) error {
	return conn.Exec(`INSERT INTO SnapIds (snap_id, snap_ts, label) VALUES (?, ?, ?)`, nil,
		record.Int(int64(snapID)), record.Text(snapTS(ts)), record.Text(label))
}

// DeclareSnapshot commits the open transaction WITH SNAPSHOT (an empty
// one when none is open) and records the snapshot in SnapIds, creating
// the table on first use. The declaring commit carries the row, so
// replicas apply it with the snapshot.
func DeclareSnapshot(conn *sql.Conn, ts time.Time, label string) (uint64, error) {
	id, err := conn.DeclareSnapshot(Registration{TS: snapTS(ts), Label: label})
	if err != nil {
		return 0, err
	}
	if err = RecordSnapshot(conn, id, ts, label); errors.Is(err, sql.ErrNoTable) {
		if err = EnsureSnapIds(conn); err == nil {
			err = RecordSnapshot(conn, id, ts, label)
		}
	}
	return id, err
}

// ---------------------------------------------------------------------------
// Go-level mechanism API (the paper's function-call notation). Each
// call executes Qs and drives one loop-body iteration per returned
// snapshot id — the same path the SQL UDF form takes.
// ---------------------------------------------------------------------------

// CollateData collects the records Qq returns on every snapshot in the
// Qs set into table T (paper §2.1).
func (r *RQL) CollateData(conn *sql.Conn, qs, qq, table string) (*RunStats, error) {
	return r.run(conn, mechCall{kind: mechCollate, qq: qq, table: table}, qs, nil)
}

// AggregateDataInVariable applies aggFunc to the single value Qq
// returns per snapshot, storing the final value in T (paper §2.2).
func (r *RQL) AggregateDataInVariable(conn *sql.Conn, qs, qq, table, aggFunc string) (*RunStats, error) {
	return r.run(conn, mechCall{mechAggVar, qq, table, aggFunc, true}, qs, nil)
}

// AggregateDataInTable aggregates Qq's records across snapshots in
// table T: rows matching on the non-aggregated columns are combined
// with the per-column functions of pairs, e.g. "(cn,MAX):(av,MAX)"
// (paper §2.3).
func (r *RQL) AggregateDataInTable(conn *sql.Conn, qs, qq, table, pairs string) (*RunStats, error) {
	return r.run(conn, mechCall{mechAggTable, qq, table, pairs, true}, qs, nil)
}

// CollateDataIntoIntervals collects Qq's records into lifetime
// intervals [start_snapshot, end_snapshot] in table T (paper §2.4).
func (r *RQL) CollateDataIntoIntervals(conn *sql.Conn, qs, qq, table string) (*RunStats, error) {
	return r.run(conn, mechCall{kind: mechIntervals, qq: qq, table: table}, qs, nil)
}

// run drives a mechanism from Go: execute Qs, then run the loop body
// over the returned set. Unlike the SQL UDF form — where the engine
// streams Qs rows into the UDF one at a time — the whole set is known
// before the first iteration, so the SPT of every member is built by
// one snapshot-set open and unchanged iterations are pruned. variant,
// when non-nil, adjusts the lane before it runs (sortmerge.go).
func (r *RQL) run(conn *sql.Conn, call mechCall, qs string, variant func(*lane)) (*RunStats, error) {
	m, err := r.newMech(call)
	if err != nil {
		return nil, err
	}
	out := m.tableLane(conn)
	if variant != nil {
		variant(out)
	}
	// Root (or request-child) span covering the whole mechanism run.
	if rsp := obs.StartSpan(conn.CurrentSpan(), "rql."+m.kind.String()); rsp != nil {
		saved := conn.TraceSpan()
		conn.SetTraceSpan(rsp)
		defer func() {
			conn.SetTraceSpan(saved)
			rsp.SetInt("iterations", int64(len(out.run.Iterations))).End()
		}()
	}

	var snaps []uint64
	err = conn.Exec(qs, func(_ []string, row []record.Value) error {
		snap, err := qsSnapshot(row)
		snaps = append(snaps, snap)
		return err
	})
	if err == nil && len(snaps) > 0 {
		if m.set, err = conn.OpenSnapshotSet(snaps); err == nil {
			defer m.set.Close()
			recordBatchBuild(conn.TraceSpan(), m.set)
			m.setupPrune(conn, out.run)
		}
	}
	if err == nil {
		err = out.steps(snaps)
	}
	if err == nil {
		billBatch(out.run, m.set)
	}
	if ferr := out.finish(err == nil); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return out.run, nil
}

// parsePairs parses the ListOfColFuncPairs notation. The paper writes
// both "(l_time,min)" and "(MAX,cn)", so either element of a pair may
// be the aggregate function; pairs are separated by ':'.
func parsePairs(s string) ([]colFunc, error) {
	var out []colFunc
	for _, part := range strings.Split(s, ":") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "(")
		part = strings.TrimSuffix(part, ")")
		bits := strings.Split(part, ",")
		if len(bits) != 2 {
			return nil, fmt.Errorf("rql: bad column/function pair %q", part)
		}
		a, b := strings.TrimSpace(bits[0]), strings.TrimSpace(bits[1])
		switch {
		case monoidByName(b) != nil:
			out = append(out, colFunc{col: a, agg: monoidByName(b)})
		case monoidByName(a) != nil:
			out = append(out, colFunc{col: b, agg: monoidByName(a)})
		default:
			return nil, fmt.Errorf("rql: no aggregate function in pair %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rql: empty ListOfColFuncPairs")
	}
	return out, nil
}

type colFunc struct {
	col string
	agg *Monoid
}

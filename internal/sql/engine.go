package sql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/storage"
)

// Errors returned by the engine.
var (
	ErrNoTx     = errors.New("sql: no transaction is active")
	ErrTxOpen   = errors.New("sql: a transaction is already active")
	ErrReadOnly = errors.New("sql: cannot write to a snapshot")
)

// Options configures Open.
type Options struct {
	// Retro configures the snapshot system attached to the main store.
	Retro retro.Options
}

// DB is a database instance: a snapshotable main store managed by the
// Retro snapshot system, plus a separate non-snapshotable side store
// holding temporary tables and, by convention, the SnapIds table —
// exactly the paper's two-database layout (§3).
type DB struct {
	main *storage.Store
	side *storage.Store
	rsys *retro.System

	mu    sync.Mutex
	funcs map[string]*FuncDef
	// funcGen counts RegisterFunc calls: a kept plan compiled before the
	// latest one may call a replaced definition, and is compiled again.
	funcGen atomic.Uint64

	// Retro-view hooks (view.go): the maintenance layer, the logical
	// DDL shipping hook for replication, and the post-commit snapshot
	// announcement that triggers incremental refreshes.
	viewHook    RetroViewHook
	viewDDLHook func(create bool, def RetroViewDef)
	snapHook    func(snapID uint64)

	// Current-state schema caches, valid while the store LSN matches.
	mainSchemaLSN uint64
	mainSchema    *schema
	sideSchemaLSN uint64
	sideSchema    *schema

	// The schemas readers decoded last, one per store, keyed by catalog
	// bytes: every read of a snapshot's catalog, and every current-state
	// read the LSN caches miss, goes through them.
	mainMemo, sideMemo schemaMemo

	// poisonScans is set by tests only, before the database is used: see
	// scanRow.poison.
	poisonScans bool
}

// Open creates a new database.
func Open(opts Options) (*DB, error) {
	db := &DB{
		main:  storage.NewStore(),
		side:  storage.NewStore(),
		funcs: builtinFuncs(),
	}
	rsys, err := retro.New(db.main, opts.Retro)
	if err != nil {
		return nil, err
	}
	db.rsys = rsys
	// Format both stores with an empty catalog. The side store has no
	// commit hook, so its catalog commit declares nothing.
	for _, st := range []*storage.Store{db.main, db.side} {
		tx, err := st.Begin()
		if err != nil {
			return nil, err
		}
		if err := initCatalog(tx); err != nil {
			tx.Rollback()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Close releases the database.
func (db *DB) Close() error {
	db.main.Close()
	db.side.Close()
	return db.rsys.Close()
}

// Retro exposes the snapshot system (cache control, statistics).
func (db *DB) Retro() *retro.System { return db.rsys }

// MainStore exposes the snapshotable store (statistics, page counts).
func (db *DB) MainStore() *storage.Store { return db.main }

// SideStore exposes the non-snapshotable store.
func (db *DB) SideStore() *storage.Store { return db.side }

// Conn creates a new connection. Connections are not safe for
// concurrent use; open one per goroutine.
func (db *DB) Conn() *Conn {
	return &Conn{db: db, stmts: planPool{bound: stmtCacheCap}}
}

// memo returns the catalog bytes memo of the main or the side store.
func (db *DB) memo(temp bool) *schemaMemo {
	if temp {
		return &db.sideMemo
	}
	return &db.mainMemo
}

// currentSchema returns the (possibly cached) schema of a store's
// current state as seen through the given pager.
func (db *DB) currentSchema(st *storage.Store, p storage.Pager, lsn uint64, temp bool) (*schema, error) {
	db.mu.Lock()
	if st == db.main && db.mainSchema != nil && db.mainSchemaLSN == lsn {
		s := db.mainSchema
		db.mu.Unlock()
		return s, nil
	}
	if st == db.side && db.sideSchema != nil && db.sideSchemaLSN == lsn {
		s := db.sideSchema
		db.mu.Unlock()
		return s, nil
	}
	db.mu.Unlock()
	s, err := db.memo(temp).load(p, temp)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if st == db.main {
		db.mainSchema, db.mainSchemaLSN = s, lsn
	} else {
		db.sideSchema, db.sideSchemaLSN = s, lsn
	}
	db.mu.Unlock()
	return s, nil
}

// RowCallback receives result rows, sqlite3_exec style. Returning a
// non-nil error aborts the statement with that error. A row passed by
// Exec or ExecAsOf is the callback's to keep; one passed by ExecAsOfSet
// is valid only until the callback returns (copy what you keep). cols
// belongs to the statement's plan, which later runs pass again: read it,
// never change it.
type RowCallback func(cols []string, row []record.Value) error

// Conn is a database connection: it carries the explicit-transaction
// state and the per-statement statistics.
type Conn struct {
	db           *DB
	mainTx       *storage.Tx
	lastStats    ExecStats
	lastSnapshot uint64

	// Read-set recording (SetRecordReadSet): while on, every
	// snapshot-bound statement records the page ids its SnapshotReader
	// served — the statement's page read-set, which the delta oracle
	// (retro.System.Unchanged) tests Maplog entries against.
	recordReads bool
	lastReadSet PageSet

	// stmts keeps the statement texts this connection runs: each is
	// parsed once, and a repeated SELECT rebinds the plan it ran with
	// last time (planPool). The RQL mechanisms execute the identical Qq
	// text once per snapshot, a client its point read once per request.
	stmts planPool

	// Tracing: span is the ambient parent every statement batch hangs
	// under (set by the server per request, or by the core mechanisms
	// per iteration); curStmt is the span of the statement currently
	// executing; lastTrace remembers the trace of the newest batch so
	// shells can fetch it after the fact. All nil/zero when untraced.
	span      *obs.Span
	curStmt   *obs.Span
	lastTrace uint64

	// slow is the slow-query log entry of the executing statement batch
	// (nil outside a batch, or while the log is off):
	// each statement's record is billed to it, and a statement that runs
	// a mechanism adds the run's (NoteMechRun).
	slow *obs.SlowEntry

	// lastMech is the mechanism run the executing statement completed,
	// handed down by the mechanism layer's finalizer (NoteMechRun);
	// EXPLAIN ANALYZE renders it.
	lastMech *RunStats

	// maintains names the retro view this connection materializes
	// (MaintainView).
	maintains string

	// Ambient context (SetContext): every writer transaction this
	// connection opens, on either store, begins under it (beginWrite).
	// nil = background.
	ctx context.Context
}

// SetContext sets the connection's ambient context. A writer Begin
// fails fast once it is done, and a commit abandons its commit-queue
// slot if the context fires before the leader claims it; a nil ctx
// restores context.Background(). The server points this at the
// session's lifetime context so a dead client never leaves a writer
// parked in the commit queue.
func (c *Conn) SetContext(ctx context.Context) { c.ctx = ctx }

// beginWrite opens a writer transaction on st the way every statement,
// explicit BEGIN and TableWriter of this connection does: under the
// connection's context, its commit span parented under the work in
// progress. A transaction that outlives the statement it began in
// (BEGIN, a TableWriter) is re-parented when it commits.
func (c *Conn) beginWrite(st *storage.Store) (*storage.Tx, error) {
	tx, err := st.BeginCtx(c.ctx)
	if err != nil {
		return nil, err
	}
	tx.SetTraceSpan(c.traceParent())
	return tx, nil
}

// writerTx returns the transaction a write to the main or the side
// store runs in: the open explicit transaction for the main store, else
// a fresh one the caller owns (and must commit or roll back).
func (c *Conn) writerTx(toSide bool) (tx *storage.Tx, own bool, err error) {
	st := c.db.main
	switch {
	case toSide:
		st = c.db.side
	case c.mainTx != nil:
		return c.mainTx, false, nil
	}
	tx, err = c.beginWrite(st)
	return tx, true, err
}

// SetTraceSpan sets the parent span for statements executed on this
// connection. With a nil parent (the default), each statement batch
// starts its own trace root while tracing is enabled.
func (c *Conn) SetTraceSpan(sp *obs.Span) { c.span = sp }

// TraceSpan returns the connection's current parent span (may be nil).
func (c *Conn) TraceSpan() *obs.Span { return c.span }

// CurrentSpan returns the span work started right now should hang
// under: the executing statement's span if a statement is running
// (e.g. from inside a UDF), else the connection's parent span.
func (c *Conn) CurrentSpan() *obs.Span { return c.traceParent() }

// LastTrace returns the trace ID of the most recent traced statement
// batch on this connection (0 if tracing was off).
func (c *Conn) LastTrace() uint64 { return c.lastTrace }

// traceParent is the span new work should hang under right now: the
// executing statement if there is one, else the connection's parent.
func (c *Conn) traceParent() *obs.Span {
	if c.curStmt != nil {
		return c.curStmt
	}
	return c.span
}

// stmtName returns the span-name suffix for a parsed statement.
func stmtName(stmt Statement) string {
	switch stmt.(type) {
	case *SelectStmt:
		return "select"
	case *ExplainStmt:
		return "explain"
	case *BeginStmt:
		return "begin"
	case *CommitStmt:
		return "commit"
	case *RollbackStmt:
		return "rollback"
	case *InsertStmt:
		return "insert"
	case *UpdateStmt:
		return "update"
	case *DeleteStmt:
		return "delete"
	case *CreateTableStmt:
		return "create_table"
	case *CreateIndexStmt:
		return "create_index"
	case *DropStmt:
		return "drop"
	case *CreateRetroViewStmt:
		return "create_retro_view"
	case *DropRetroViewStmt:
		return "drop_retro_view"
	case *RefreshRetroViewStmt:
		return "refresh_retro_view"
	default:
		return "stmt"
	}
}

// truncSQL bounds the SQL text attached to spans and slow-log entries.
func truncSQL(s string) string {
	const max = 200
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}

// SetRecordReadSet toggles page read-set recording for snapshot-bound
// statements on this connection. While on, each such statement replaces
// the connection's read-set with a freshly recorded one; previously
// returned ReadSet maps are never mutated afterwards.
func (c *Conn) SetRecordReadSet(on bool) {
	c.recordReads = on
	if !on {
		c.lastReadSet = nil
	}
}

// ReadSet returns the page read-set recorded for the most recent
// snapshot-bound statement (nil when recording is off or no snapshot
// statement has run). The map includes every page the snapshot reader
// served — Pagelog pre-states, cached pages, and pages shared with the
// current database, catalog pages included.
func (c *Conn) ReadSet() PageSet { return c.lastReadSet }

// stmtCacheCap bounds the statement texts a connection keeps.
const stmtCacheCap = 64

// LastStats returns the statistics of the most recent statement.
func (c *Conn) LastStats() ExecStats { return c.lastStats }

// LastSnapshot returns the snapshot id declared by the most recent
// COMMIT WITH SNAPSHOT on this connection.
func (c *Conn) LastSnapshot() uint64 { return c.lastSnapshot }

// InTx reports whether an explicit transaction is open.
func (c *Conn) InTx() bool { return c.mainTx != nil }

// Exec parses and executes one or more semicolon-separated statements
// against the current state, invoking cb for every result row.
func (c *Conn) Exec(sqlText string, cb RowCallback, params ...record.Value) error {
	return c.execAsOf(sqlText, nil, false, 0, cb, params)
}

// ExecAsOf executes statements with SELECTs bound to the given snapshot
// (equivalent to rewriting each query with "AS OF snap", the paper's §3
// Qq rewrite). Write statements are rejected under a snapshot binding.
func (c *Conn) ExecAsOf(sqlText string, snap uint64, cb RowCallback, params ...record.Value) error {
	return c.execAsOf(sqlText, nil, false, retro.SnapshotID(snap), cb, params)
}

// ExecAsOfSet is ExecAsOf against a pre-built reader set: when snap is
// a member of set, the statement reads through the set's pre-built
// SPT and shared pinned read transaction instead of building a fresh
// SPT — the per-iteration path of the RQL mechanisms. Snapshots outside
// the set fall back to a standalone OpenSnapshot.
//
// Plans are kept as for every statement (planPool), by the set when
// there is one: a SELECT is planned at the first member it runs on, and
// every later member binds the same iterator tree to its own snapshot
// (selectPlan) — until the member's catalog differs, which plans it
// anew. Without a set the Conn keeps the plan. Either way the rows cb
// receives are the plan's own buffers, valid only until cb returns.
func (c *Conn) ExecAsOfSet(sqlText string, set *ReaderSet, snap uint64, cb RowCallback, params ...record.Value) error {
	return c.execAsOf(sqlText, set, true, retro.SnapshotID(snap), cb, params)
}

// plansFor returns the pool that keeps the plans of a run against set:
// the set's own, or the Conn's when set is nil.
func (c *Conn) plansFor(set *ReaderSet) *planPool {
	if set != nil {
		return &set.plans
	}
	return &c.stmts
}

// execAsOf runs a statement batch, its SELECTs on the plans the batch's
// text ran with last time (planPool). lend says whether a callback may
// be handed the plans' own row buffers or gets rows to keep.
func (c *Conn) execAsOf(sqlText string, set *ReaderSet, lend bool, asOf retro.SnapshotID, cb RowCallback, params []record.Value) error {
	// One span per statement batch; a timestamp is taken only when the
	// batch is traced or the slow-query log is armed, so the untraced
	// path pays two atomic loads and nothing else.
	sp := obs.StartSpan(c.span, "sql.exec")
	slowArmed := obs.SlowThreshold() > 0
	timed := sp != nil || slowArmed
	var start time.Time
	if timed {
		start = time.Now()
	}
	if sp != nil {
		c.lastTrace = sp.TraceID()
		sp.SetStr("sql", truncSQL(sqlText))
		if asOf != 0 {
			sp.SetInt("as_of", int64(asOf))
		}
	} else if c.span == nil && c.curStmt == nil {
		// An untraced top-level batch clears the remembered trace so
		// LastTrace never reports a stale ID; nested batches (UDF
		// re-entry) leave the outer batch's trace alone.
		c.lastTrace = 0
	}
	// The batch's slow-log entry. Saved and restored because execAsOf
	// re-enters through UDFs (a mechanism iteration executes Qq inside
	// the outer SELECT): a nested batch bills its own entry, not the
	// outer one's.
	savedSlow := c.slow
	c.slow = nil
	if slowArmed {
		c.slow = &obs.SlowEntry{SQL: truncSQL(sqlText), Trace: sp.TraceID()}
	}
	defer func() {
		if c.slow != nil {
			c.slow.Duration = time.Since(start)
			obs.ObserveQuery(*c.slow)
		}
		c.slow = savedSlow
	}()
	stmts, err := c.stmts.parse(sqlText)
	if sp != nil {
		obs.Record(sp, "sql.parse", start, time.Since(start))
	}
	if err == nil {
		// A run that panics does not put its plans back: the next run of
		// the text plans afresh.
		pool := c.plansFor(set)
		tp := pool.take(sqlText)
		saved := c.curStmt // restored per statement, for the same re-entry
		for i, stmt := range stmts {
			ssp := sp.Child("sql." + stmtName(stmt))
			c.curStmt = ssp
			err = c.execStmt(stmt, tp.plan(i, len(stmts)), set, lend, asOf, cb, params)
			c.curStmt = saved
			if ssp != nil {
				st := c.lastStats
				ssp.SetInt("rows", int64(st.RowsReturned))
				if st.PagelogReads != 0 {
					ssp.SetInt("pagelog_reads", int64(st.PagelogReads))
				}
				if st.CacheHits != 0 {
					ssp.SetInt("cache_hits", int64(st.CacheHits))
				}
				if st.DBReads != 0 {
					ssp.SetInt("db_reads", int64(st.DBReads))
				}
				ssp.End()
			}
			if c.slow != nil {
				c.slow.Rows += int64(c.lastStats.RowsReturned)
				obs.AddCost(c.slow, &c.lastStats)
			}
			if err != nil {
				break
			}
		}
		pool.put(tp)
	}
	sp.End()
	return err
}

// Query executes a single SELECT and returns the fully materialized
// result (column names and rows).
func (c *Conn) Query(sqlText string, params ...record.Value) (*Rows, error) {
	rows := &Rows{}
	err := c.Exec(sqlText, func(cols []string, row []record.Value) error {
		if rows.Cols == nil {
			rows.Cols = append([]string(nil), cols...)
		}
		rows.Rows = append(rows.Rows, row) // Exec's rows are the callback's to keep
		return nil
	}, params...)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Rows is a materialized query result.
type Rows struct {
	Cols []string
	Rows [][]record.Value
}

// Begin opens an explicit transaction (the paper's BEGIN).
func (c *Conn) Begin() error {
	if c.mainTx != nil {
		return ErrTxOpen
	}
	tx, err := c.beginWrite(c.db.main)
	if err != nil {
		return err
	}
	c.mainTx = tx
	return nil
}

// Commit commits the explicit transaction.
func (c *Conn) Commit() error {
	if c.mainTx == nil {
		return ErrNoTx
	}
	c.mainTx.SetTraceSpan(c.traceParent())
	err := c.mainTx.Commit()
	c.mainTx = nil
	return err
}

// CommitWithSnapshot commits the explicit transaction and declares a
// snapshot that includes it (the paper's COMMIT WITH SNAPSHOT),
// returning the new snapshot id.
func (c *Conn) CommitWithSnapshot() (uint64, error) {
	return c.commitWithSnapshot(nil)
}

// commitWithSnapshot is CommitWithSnapshot with the declaration's
// registration (nil for none) handed to the commit path.
func (c *Conn) commitWithSnapshot(reg any) (uint64, error) {
	if c.mainTx == nil {
		return 0, ErrNoTx
	}
	c.mainTx.SetTraceSpan(c.traceParent())
	id, err := c.mainTx.CommitWithSnapshot(reg)
	c.mainTx = nil
	if err != nil {
		return 0, err
	}
	c.lastSnapshot = id
	// Announce after the commit returned: commit groups drain in LSN
	// order, so every page of this snapshot (and of all earlier ones)
	// is installed and readable by now.
	c.db.notifySnapshot(id)
	return id, nil
}

// Rollback aborts the explicit transaction.
func (c *Conn) Rollback() error {
	if c.mainTx == nil {
		return ErrNoTx
	}
	c.mainTx.Rollback()
	c.mainTx = nil
	return nil
}

// execCtx is a statement's binding: what one run of its plan reads and
// bills — the pagers and schemas for both stores, the snapshot and its
// reader, the read-set being recorded, parameters, UDF auxiliary state,
// and the statistics being accumulated. A plan's iterators and compiled
// expressions point at one execCtx; a plan that outlives a run
// (selectPlan) refills it in place for the next (bindRead).
type execCtx struct {
	conn *Conn

	mainPager  storage.Pager
	sidePager  storage.Pager
	mainSchema *schema
	sideSchema *schema

	asOf       retro.SnapshotID
	snapReader *retro.SnapshotReader
	readSet    PageSet // recorded by snapReader when non-nil

	params []record.Value
	aux    map[*FuncCall]any
	stats  *ExecStats

	// shed: the run's plan outlives its statement (a Conn keeps it), so
	// closing the run drops what it grew with the data — sorted rows,
	// aggregate groups, a DISTINCT's seen set.
	shed bool

	closers []func()
}

// StmtFinalizer is implemented by UDF auxiliary state (FuncContext.Aux)
// that needs an end-of-statement signal — the RQL mechanism states use
// it to commit their result-table writer and publish run statistics.
// commit is false when the statement failed or was aborted.
type StmtFinalizer interface {
	FinalizeStmt(commit bool) error
}

// finalize notifies every finalizable aux state; the first error wins.
func (ec *execCtx) finalize(commit bool) error {
	var first error
	for _, v := range ec.aux {
		if f, ok := v.(StmtFinalizer); ok {
			if err := f.FinalizeStmt(commit); err != nil && first == nil {
				first = err
			}
		}
	}
	ec.aux = nil
	return first
}

func (ec *execCtx) close() {
	for i := len(ec.closers) - 1; i >= 0; i-- {
		ec.closers[i]()
	}
	clear(ec.closers)
	ec.closers = ec.closers[:0]
	if ec.snapReader != nil {
		obs.AddCost(&ec.stats.Counters, &ec.snapReader.Counters)
	}
	if ec.readSet != nil {
		ec.conn.lastReadSet = ec.readSet
	}
	// Drop the binding's references: a plan kept for later runs must not
	// hold this run's read transactions, reader and parameters.
	ec.mainPager, ec.sidePager, ec.snapReader, ec.readSet = nil, nil, nil, nil
	ec.params = nil
}

// resolveTable finds a table by name, looking in the side store first
// (temp shadows main, as in SQLite) and then the main store.
func (ec *execCtx) resolveTable(name string) (*Table, *schema, error) {
	if t := ec.sideSchema.table(name); t != nil {
		return t, ec.sideSchema, nil
	}
	if t := ec.mainSchema.table(name); t != nil {
		return t, ec.mainSchema, nil
	}
	return nil, nil, fmt.Errorf("%w: %s", ErrNoTable, name)
}

// pagerFor returns the pager the binding reads t through: the side
// store's for temp tables, the main store's otherwise.
func (ec *execCtx) pagerFor(t *Table) storage.Pager {
	if t.Temp {
		return ec.sidePager
	}
	return ec.mainPager
}

// bindRead fills ec with the binding of a read-only statement. When set
// is non-nil and contains asOf, the snapshot is served from the set's
// pre-built SPT (O(1) open, no fresh MVCC pin). The schemas come from
// the catalog bytes memos, so a binding whose catalogs equal the
// previous one's gets the same *schema values.
func (c *Conn) bindRead(ec *execCtx, set *ReaderSet, asOf retro.SnapshotID, params []record.Value, stats *ExecStats) error {
	*ec = execCtx{conn: c, asOf: asOf, params: params, stats: stats, closers: ec.closers[:0]}

	// Side store: always the current state.
	srt, err := c.db.side.BeginRead()
	if err != nil {
		return err
	}
	ec.closers = append(ec.closers, srt.Close)
	ec.sidePager = srt
	ec.sideSchema, err = c.db.currentSchema(c.db.side, srt, srt.LSN(), true)
	if err != nil {
		ec.close()
		return err
	}

	// Main store: snapshot, explicit transaction, or current state.
	switch {
	case asOf != 0:
		r, err := openSnapReader(c.db.rsys, set, asOf)
		if err != nil {
			ec.close()
			return err
		}
		ec.snapReader = r
		ec.closers = append(ec.closers, r.Close)
		ec.mainPager = r
		if sp := c.traceParent(); sp != nil {
			r.SetTraceSpan(sp)
			// A standalone open just built its SPT; surface it as a
			// retroactive child (set-opened readers have build time 0 —
			// the set's build is the run-level spt_batch_build span).
			if bt := r.Counters.SPTBuildTime; bt > 0 {
				obs.Record(sp, "retro.spt_build", time.Now().Add(-bt), bt,
					obs.Attr{Key: "snapshot", Int: int64(asOf)},
					obs.Attr{Key: "map_scanned", Int: int64(r.Counters.MapScanned)})
			}
		}
		if c.recordReads {
			// Recording starts before the catalog load below, so schema
			// pages are part of the read-set too (a schema change between
			// members must defeat pruning like any other page change).
			ec.readSet = make(PageSet)
			r.RecordReadSet(ec.readSet)
		}
		// The snapshot's own catalog: schema as of the snapshot.
		ec.mainSchema, err = c.db.mainMemo.load(r, false)
		if err != nil {
			ec.close()
			return err
		}
	case c.mainTx != nil:
		ec.mainPager = c.mainTx
		ec.mainSchema, err = c.db.mainMemo.load(c.mainTx, false)
		if err != nil {
			ec.close()
			return err
		}
	default:
		mrt, err := c.db.main.BeginRead()
		if err != nil {
			ec.close()
			return err
		}
		ec.closers = append(ec.closers, mrt.Close)
		ec.mainPager = mrt
		ec.mainSchema, err = c.db.currentSchema(c.db.main, mrt, mrt.LSN(), false)
		if err != nil {
			ec.close()
			return err
		}
	}
	return nil
}

// execStmt dispatches one parsed statement. p is the statement's plan
// slot, which a SELECT (or the one an EXPLAIN wraps) runs on.
func (c *Conn) execStmt(stmt Statement, p *selectPlan, set *ReaderSet, lend bool, asOf retro.SnapshotID, cb RowCallback, params []record.Value) error {
	start := time.Now()
	stats := ExecStats{}
	var err error
	switch s := stmt.(type) {
	case *SelectStmt:
		err = c.execSelect(s, p, set, lend, asOf, cb, params, &stats, nil)
	case *ExplainStmt:
		if s.Analyze {
			err = c.execExplainAnalyze(s, p, set, asOf, cb, params, &stats)
		} else {
			err = c.execExplain(s, p, set, asOf, cb, params, &stats)
		}
	case *BeginStmt:
		err = c.Begin()
	case *CommitStmt:
		if s.WithSnapshot {
			_, err = c.CommitWithSnapshot()
		} else {
			err = c.Commit()
		}
	case *RollbackStmt:
		err = c.Rollback()
	case *CreateRetroViewStmt:
		if asOf != 0 {
			return ErrReadOnly
		}
		if err = c.execWrite(s, params, &stats); err == nil {
			def := RetroViewDef{Name: s.Name, Mechanism: s.Mechanism, Qq: s.Qq, Extra: s.Extra, HasExtra: s.HasExtra}
			if h := c.db.retroViewHook(); h != nil {
				h.ViewCreated(def)
			}
			c.db.notifyViewDDL(true, def)
		}
	case *DropRetroViewStmt:
		if asOf != 0 {
			return ErrReadOnly
		}
		existed := false
		if _, gerr := c.db.GetView(s.Name); gerr == nil {
			existed = true
		}
		if err = c.execWrite(s, params, &stats); err == nil && existed {
			if h := c.db.retroViewHook(); h != nil {
				h.ViewDropped(s.Name)
			}
			c.db.notifyViewDDL(false, RetroViewDef{Name: s.Name})
		}
	case *RefreshRetroViewStmt:
		if asOf != 0 {
			return ErrReadOnly
		}
		h := c.db.retroViewHook()
		if h == nil {
			err = errors.New("sql: retro views are not supported on this database")
		} else {
			err = h.ViewRefresh(s.Name)
		}
	default:
		if asOf != 0 {
			return ErrReadOnly
		}
		err = c.execWrite(stmt, params, &stats)
	}
	stats.Duration = time.Since(start)
	c.lastStats = stats
	return err
}

// execSelect runs a SELECT on p, a plan kept across runs (bindPlan),
// streaming rows to cb. lend says whether cb may be handed the plan's
// own row buffers (ExecAsOfSet) or gets rows to keep (Exec, ExecAsOf).
// plan, when non-nil, receives the description of the iterator tree
// that ran (EXPLAIN ANALYZE).
func (c *Conn) execSelect(s *SelectStmt, p *selectPlan, set *ReaderSet, lend bool, asOf retro.SnapshotID, cb RowCallback, params []record.Value, stats *ExecStats, plan *[]string) error {
	if err := c.bindPlan(s, p, set, asOf, params, stats); err != nil {
		return err
	}
	ec := &p.ec
	defer ec.close()

	err := func() error {
		it := p.fin
		it.copyOut = cb != nil && !lend
		defer it.Close()
		if err := it.reset(); err != nil {
			return err
		}
		if plan != nil {
			describe(it, 0, plan)
		}
		for {
			row, err := it.Next()
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			stats.RowsReturned++
			if cb != nil {
				if err := cb(p.names, row); err != nil {
					return err
				}
			}
		}
	}()
	if ferr := ec.finalize(err == nil); err == nil {
		err = ferr
	}
	return err
}

// bindPlan binds p to one run of s: to the snapshot s reads
// (snapshotOf), through bindRead. Its tree is planned when it has none,
// or when the binding's schemas are not the ones it was planned against,
// and is otherwise kept for reset to rewind onto the new binding. On
// success the caller closes p.ec.
func (c *Conn) bindPlan(s *SelectStmt, p *selectPlan, set *ReaderSet, asOf retro.SnapshotID, params []record.Value, stats *ExecStats) error {
	// A function registered since p was compiled may replace one that
	// its expressions call.
	if gen := c.db.funcGen.Load(); p.funcs != gen {
		p.fin, p.asOf, p.funcs = nil, nil, gen
	}
	asOf, err := p.snapshotOf(c, s, asOf, params, stats)
	if err != nil {
		return err
	}
	ec := &p.ec
	if err := c.bindRead(ec, set, asOf, params, stats); err != nil {
		return err
	}
	ec.shed = set == nil // the Conn keeps the plan (plansFor)
	if p.fin == nil || p.main != ec.mainSchema || p.side != ec.sideSchema {
		if err := c.plan(s, p); err != nil {
			ec.close()
			return err
		}
	}
	return nil
}

// plan (re)plans s into p against the schemas of p's current binding.
func (c *Conn) plan(s *SelectStmt, p *selectPlan) error {
	var planStart time.Time
	if c.curStmt != nil {
		planStart = time.Now()
	}
	fin, cols, err := planSelect(s, &p.ec)
	if c.curStmt != nil {
		obs.Record(c.curStmt, "sql.plan", planStart, time.Since(planStart))
	}
	if err != nil {
		p.fin = nil
		return err
	}
	p.fin, p.main, p.side = fin, p.ec.mainSchema, p.ec.sideSchema
	p.names = make([]string, len(cols))
	for i, ci := range cols {
		p.names[i] = ci.name
	}
	return nil
}

// DeclareSnapshot commits the open explicit transaction WITH SNAPSHOT —
// an empty one when none is open — and returns the new snapshot id. The
// declaring commit carries reg, the snapshot's registration, to the
// commit observers (replication ships it in the same frame as the
// snapshot); this layer never reads it.
func (c *Conn) DeclareSnapshot(reg any) (uint64, error) {
	if c.mainTx == nil {
		if err := c.Begin(); err != nil {
			return 0, err
		}
	}
	return c.commitWithSnapshot(reg)
}

// quoteIdent quotes an identifier for inclusion in generated SQL.
func quoteIdent(name string) string {
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

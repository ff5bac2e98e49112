// Package rql is the public API of the RQL reproduction: a declarative
// SQL extension for retrospective computations over sets of database
// snapshots, as described in "RQL: Retrospective Computations over
// Snapshot Sets" (EDBT 2018).
//
// The stack underneath — a transactional page store with MVCC (playing
// Berkeley DB's role), the Retro page-level copy-on-write snapshot
// system (Pagelog, Maplog with Skippy indexing, snapshot page tables),
// and a SQL engine with a UDF callback framework (playing SQLite's
// role) — is implemented from scratch in this module's internal
// packages.
//
// # Quick start
//
//	db, _ := rql.Open(rql.Options{})
//	defer db.Close()
//	conn := db.Conn()
//	conn.Exec(`CREATE TABLE logged_in (user TEXT, country TEXT)`, nil)
//	conn.Exec(`INSERT INTO logged_in VALUES ('ann', 'USA')`, nil)
//	snap, _ := conn.DeclareSnapshot("day-1")       // BEGIN; COMMIT WITH SNAPSHOT
//	conn.Exec(`DELETE FROM logged_in`, nil)
//	rows, _ := conn.Query(fmt.Sprintf(`SELECT AS OF %d * FROM logged_in`, snap))
//
// Multi-snapshot computations use the four RQL mechanisms, either
// through the Go API:
//
//	stats, _ := conn.CollateData(
//	    `SELECT snap_id FROM SnapIds`,
//	    `SELECT DISTINCT user, current_snapshot() AS sid FROM logged_in`,
//	    "Result")
//
// or in SQL, with the mechanism interposed on the snapshot-set query as
// a UDF (the paper's Figure 5 structure):
//
//	SELECT CollateData(snap_id,
//	    'SELECT DISTINCT user, current_snapshot() AS sid FROM logged_in',
//	    'Result') FROM SnapIds;
//
// # Concurrency
//
// A DB is safe for concurrent use; a Conn is not. Open one Conn per
// goroutine (or per network session — internal/server does exactly
// this): each Conn carries its own explicit-transaction state,
// per-statement statistics, and snapshot read contexts, while the DB
// underneath serves any number of concurrent MVCC snapshot readers.
// The shared pieces — schema caches, the UDF registry, the Retro
// snapshot system and its page cache, and the store's version chains —
// are internally synchronized.
//
// Every writer, on either store, commits through one group-commit
// pipeline. BEGIN does not take a lock: each writer stages its write
// set privately against a snapshot-isolation baseline, and COMMIT
// enqueues it on a commit queue whose leader drains whole batches —
// first-committer-wins conflict detection on overlapping page writes,
// consecutive LSNs, and one device flush per group. Non-conflicting
// writers therefore commit concurrently; a writer that loses a conflict
// race gets ErrWriteConflict at COMMIT (autocommit statements retry
// transparently inside the engine), and a long-running BEGIN blocks no
// other writer.
//
// One cross-session convention follows from the paper's two-database
// layout: temporary tables (including SnapIds and the RQL result tables
// T) live in one side store shared by every Conn of a DB, so concurrent
// mechanism runs must use distinct result-table names.
package rql

import (
	"time"

	"rql/internal/core"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
	"rql/internal/storage"
)

// Value is a dynamically typed SQL value.
type Value = record.Value

// Convenience constructors for Values.
var (
	Null  = record.Null
	Int   = record.Int
	Float = record.Float
	Text  = record.Text
	Blob  = record.Blob
)

// Re-exported result and statistics types.
type (
	// Rows is a materialized query result.
	Rows = sql.Rows
	// ExecStats is the per-statement cost breakdown.
	ExecStats = sql.ExecStats
	// RunStats is a mechanism run's statistics (per-iteration costs).
	RunStats = core.RunStats
	// IterationCost is one RQL loop iteration's cost breakdown.
	IterationCost = core.IterationCost
	// RowCallback receives result rows, sqlite3_exec style.
	RowCallback = sql.RowCallback
	// FuncDef registers a scalar function or UDF.
	FuncDef = sql.FuncDef
	// FuncContext is passed to scalar function invocations.
	FuncContext = sql.FuncContext
	// TableStats reports a table's size (rows, data bytes, index bytes).
	TableStats = sql.TableStats
	// ObjectInfo describes one catalog object (tables and indexes).
	ObjectInfo = sql.ObjectInfo
	// StorageStats is a point-in-time copy of the main store's counters.
	StorageStats = storage.StatsSnapshot
	// RetroStats is a point-in-time copy of the snapshot system's counters.
	RetroStats = retro.StatsSnapshot
	// CompactionOptions configures the tiered-Pagelog background
	// compactor (sealed compressed cold segments behind a hot tail).
	CompactionOptions = retro.CompactionOptions
	// ViewInfo is one materialized retro view's status line.
	ViewInfo = core.ViewInfo
	// ViewBatch is one view extension delivered to subscribers.
	ViewBatch = core.ViewBatch
	// ViewSub is a subscription to a view's extension stream.
	ViewSub = core.ViewSub
)

// Options configures Open.
type Options struct {
	// PagelogPath backs the snapshot archive with a file; empty keeps
	// it in memory.
	PagelogPath string
	// CachePages is the snapshot page cache capacity in pages
	// (default 16384 = 64 MiB; negative disables).
	CachePages int
	// SimulatedReadLatency models the cost of one Pagelog read that
	// misses the snapshot cache; it is accounted, never slept (see
	// retro.DefaultReadLatency).
	SimulatedReadLatency time.Duration
	// SkipFactor is the Skippy skip-merge fanout (default 4).
	SkipFactor int
	// Compaction configures the tiered-Pagelog background compactor
	// (off by default; see retro.CompactionOptions).
	Compaction retro.CompactionOptions
}

// DB is a database with the Retro snapshot system and the RQL
// mechanisms attached.
type DB struct {
	inner *sql.DB
	rql   *core.RQL
	views *core.ViewManager
}

// Open creates a new database.
func Open(opts Options) (*DB, error) {
	inner, err := sql.Open(sql.Options{Retro: retro.Options{
		PagelogPath:          opts.PagelogPath,
		CachePages:           opts.CachePages,
		SimulatedReadLatency: opts.SimulatedReadLatency,
		SkipFactor:           opts.SkipFactor,
		Compaction:           opts.Compaction,
	}})
	if err != nil {
		return nil, err
	}
	r := core.Attach(inner)
	views, err := core.NewViewManager(inner, r)
	if err != nil {
		_ = inner.Close()
		return nil, err
	}
	inner.SetRetroViewHook(views)
	inner.SetSnapshotHook(views.AnnounceSnapshot)
	views.Start()
	return &DB{inner: inner, rql: r, views: views}, nil
}

// Close releases the database.
func (db *DB) Close() error {
	db.views.Close()
	return db.inner.Close()
}

// Views reports every materialized retro view's status in name order.
func (db *DB) Views() []ViewInfo { return db.views.Infos() }

// ViewStats sums the per-view maintenance counters.
func (db *DB) ViewStats() core.ViewStats { return db.views.Stats() }

// SubscribeView opens a subscription to a view's extension stream:
// every snapshot the view materializes is delivered as one ViewBatch.
// buf is the subscriber's batch buffer; a subscriber that falls more
// than buf batches behind is disconnected (its channel closes).
func (db *DB) SubscribeView(view string, buf int) (*ViewSub, error) {
	return db.views.Subscribe(view, buf)
}

// AnnounceSnapshot tells the view maintenance engine that snapshot id
// is installed and readable. The engine hears local COMMIT WITH
// SNAPSHOT by itself; this entry point exists for replication, which
// installs snapshots below the SQL layer.
func (db *DB) AnnounceSnapshot(id uint64) { db.views.AnnounceSnapshot(id) }

// ErrWriteConflict is returned by COMMIT when a concurrent transaction
// already committed a write to a page this transaction also wrote
// (first-committer-wins under snapshot isolation). The losing
// transaction is rolled back; the client retries it on a fresh
// snapshot. Autocommit statements are retried by the engine itself.
var ErrWriteConflict = storage.ErrWriteConflict

// Engine exposes the underlying SQL engine. It exists for in-process
// infrastructure layered on the database — the replication subsystem
// and the server — not for application queries, which go through Conn.
func (db *DB) Engine() *sql.DB { return db.inner }

// RegisterFunc registers a scalar function or UDF.
func (db *DB) RegisterFunc(def FuncDef) { db.inner.RegisterFunc(def) }

// LastRun returns the statistics of the most recent mechanism run.
func (db *DB) LastRun() *RunStats { return db.rql.LastRun() }

// SetDeltaPrune enables or disables delta pruning for the Go-level
// mechanism API and retro views (on by default): when on, a run whose
// Qq is statically prune-safe records the page read-set of each
// executed iteration and skips any iteration whose member delta does
// not intersect it, replaying the previous iteration's cached Qq
// output instead.
func (db *DB) SetDeltaPrune(on bool) { db.rql.SetDeltaPrune(on) }

// ParallelCollateData is CollateData with the snapshot iterations
// spread over worker goroutines sharing one batch-built SPT set.
func (db *DB) ParallelCollateData(qs, qq, table string, workers int) (*RunStats, error) {
	return db.rql.ParallelCollateData(qs, qq, table, workers)
}

// ParallelAggregateDataInVariable is AggregateDataInVariable across
// worker goroutines.
func (db *DB) ParallelAggregateDataInVariable(qs, qq, table, aggFunc string, workers int) (*RunStats, error) {
	return db.rql.ParallelAggregateDataInVariable(qs, qq, table, aggFunc, workers)
}

// ParallelAggregateDataInTable is AggregateDataInTable across worker
// goroutines.
func (db *DB) ParallelAggregateDataInTable(qs, qq, table, pairs string, workers int) (*RunStats, error) {
	return db.rql.ParallelAggregateDataInTable(qs, qq, table, pairs, workers)
}

// ParallelCollateDataIntoIntervals is CollateDataIntoIntervals across
// worker goroutines.
func (db *DB) ParallelCollateDataIntoIntervals(qs, qq, table string, workers int) (*RunStats, error) {
	return db.rql.ParallelCollateDataIntoIntervals(qs, qq, table, workers)
}

// ResetSnapshotCache empties the snapshot page cache (produces the
// paper's "cold" starting condition for measurements).
func (db *DB) ResetSnapshotCache() { db.inner.Retro().ResetCache() }

// PagelogPages reports the number of archived page pre-states.
func (db *DB) PagelogPages() int64 { return db.inner.Retro().PagelogPages() }

// CachedPages reports the number of pages in the snapshot page cache.
func (db *DB) CachedPages() int { return db.inner.Retro().CachedPages() }

// StorageStats reports the main store's counters (commits, pages
// written, current-DB page reads).
func (db *DB) StorageStats() StorageStats { return db.inner.MainStore().Stats() }

// RetroStats reports the snapshot system's counters (snapshots
// declared, Pagelog writes/reads, cache hits, SPT builds).
func (db *DB) RetroStats() RetroStats { return db.inner.Retro().Stats() }

// Metrics samples every metric the database's layers declare — storage,
// the snapshot system, retro views — as one self-describing list: the
// form the server's STATS reply, /metrics and rqlshell's .stats render.
// StorageStats, RetroStats and ViewStats are typed views of the same
// values.
func (db *DB) Metrics() []obs.Metric {
	ms := db.inner.MainStore().Metrics()
	ms = append(ms, db.inner.Retro().Metrics()...)
	return append(ms, db.views.Metrics()...)
}

// SealPagelog synchronously seals every eligible hot-tail run into
// compressed cold segments and reports how many segments were sealed.
// Requires compaction enabled in Options; a no-op (0, nil) otherwise.
func (db *DB) SealPagelog() (int, error) { return db.inner.Retro().SealNow() }

// DropExpiredSegments unlinks sealed segments that retention
// (TRUNCATE RETROSPECTION BEFORE) has made wholly unreachable and
// reports how many were dropped.
func (db *DB) DropExpiredSegments() int { return db.inner.Retro().DropExpiredSegments() }

// PagelogFootprint reports the archive's logical size (pages ×
// PageSize) and its physical size after dedup and compression. Equal
// when compaction is off or nothing is sealed.
func (db *DB) PagelogFootprint() (logicalBytes, diskBytes int64) {
	return db.inner.Retro().PagelogFootprint()
}

// ResetStats zeroes the cumulative storage and snapshot-system counters
// and clears the last mechanism-run statistics. Page state, the
// Pagelog, and the snapshot cache are untouched — only the accounting
// restarts, so experiments can measure phases from a clean baseline
// without reopening the database.
func (db *DB) ResetStats() {
	db.inner.MainStore().ResetStats()
	db.inner.Retro().ResetStats()
	db.rql.ResetLastRun()
}

// SetTracing toggles the process-wide span recorder (internal/obs):
// when on, requests, statements, mechanism iterations, snapshot fetches
// and device commands emit hierarchical spans into a bounded in-memory
// ring. Disabled (the default) the instrumentation is a single atomic
// load per call site, and no logical counter changes either way.
func SetTracing(on bool) { obs.SetTracing(on) }

// TracingEnabled reports whether the span recorder is on.
func TracingEnabled() bool { return obs.Enabled() }

// SetSlowQueryThreshold enables the process-wide slow-query log:
// statements slower than d are recorded (most recent entries kept).
// Zero disables. The slow log works with tracing on or off.
func SetSlowQueryThreshold(d time.Duration) { obs.SetSlowThreshold(d) }

// Conn opens a connection. A Conn is not safe for concurrent use; open
// one per goroutine (see the package-level Concurrency section). Any
// number of Conns may be used concurrently on one DB.
func (db *DB) Conn() *Conn { return &Conn{Conn: db.inner.Conn(), db: db} }

// Conn is a database connection with the RQL mechanisms bound.
type Conn struct {
	*sql.Conn
	db *DB
}

// DeclareSnapshot commits the open transaction WITH SNAPSHOT (an empty
// one when none is open) and records the snapshot in the SnapIds table
// with the current time and the given label.
func (c *Conn) DeclareSnapshot(label string) (uint64, error) {
	return core.DeclareSnapshot(c.Conn, time.Now(), label)
}

// EnsureSnapIds creates the SnapIds table if needed. The helpers above
// create it on demand; call this directly when populating SnapIds
// manually after COMMIT WITH SNAPSHOT statements.
func (c *Conn) EnsureSnapIds() error { return core.EnsureSnapIds(c.Conn) }

// RecordSnapshot registers an already-declared snapshot id in SnapIds.
func (c *Conn) RecordSnapshot(snapID uint64, ts time.Time, label string) error {
	return core.RecordSnapshot(c.Conn, snapID, ts, label)
}

// CollateData collects the records Qq returns on every snapshot of the
// Qs set into table T (paper §2.1).
func (c *Conn) CollateData(qs, qq, table string) (*RunStats, error) {
	return c.db.rql.CollateData(c.Conn, qs, qq, table)
}

// AggregateDataInVariable applies an aggregate function (min, max, sum,
// count or avg) to the single value Qq returns per snapshot, storing
// the final value in T (paper §2.2).
func (c *Conn) AggregateDataInVariable(qs, qq, table, aggFunc string) (*RunStats, error) {
	return c.db.rql.AggregateDataInVariable(c.Conn, qs, qq, table, aggFunc)
}

// AggregateDataInTable aggregates Qq's records across snapshots in
// table T; pairs names the aggregated columns and their functions, e.g.
// "(cn,MAX):(av,MAX)" (paper §2.3).
func (c *Conn) AggregateDataInTable(qs, qq, table, pairs string) (*RunStats, error) {
	return c.db.rql.AggregateDataInTable(c.Conn, qs, qq, table, pairs)
}

// CollateDataIntoIntervals collects Qq's records into lifetime
// intervals [start_snapshot, end_snapshot] in table T (paper §2.4).
func (c *Conn) CollateDataIntoIntervals(qs, qq, table string) (*RunStats, error) {
	return c.db.rql.CollateDataIntoIntervals(c.Conn, qs, qq, table)
}

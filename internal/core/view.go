package core

import (
	"fmt"
	"maps"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// Materialized retro views: the batch mechanisms turned into live,
// incrementally-maintained views. A view is one mechanism invocation
// whose per-snapshot results land in a side-store table named after the
// view. Its refresh cursor (the last materialized snapshot id) and the
// mechanism's loop-body state (read-set, cached rows, aggregate
// accumulators) live in memory only, in the view's lane: they are
// derived from the definition and the snapshot history, so a manager
// attached to stores that already hold definitions rebuilds each view
// from snapshot 1 instead of reading a second durable copy. Each
// COMMIT WITH SNAPSHOT extends the view by exactly one loop-body
// iteration — delta-pruned through the Maplog when nothing on the
// view's read path changed — instead of the O(n)-snapshot recompute a
// fresh mechanism run would pay, and commits the side store once.
//
// The ViewManager implements sql.RetroViewHook (DDL callbacks), runs a
// single background refresher goroutine woken by the post-commit
// snapshot announcement (sql.DB.SetSnapshotHook), and fans newly
// materialized rows out to subscribers. Replicas run one too: their
// replication layer announces snapshots after each applied delta group,
// and the side store is locally writable, so views refresh from shipped
// deltas and subscriptions are served read-only.

// ViewBatch is one view extension delivered to subscribers: the rows
// the view materialized for one snapshot (the Qq output at that
// snapshot, re-tagged when replayed from the prune cache; the running
// aggregate value for AggregateDataInVariable views).
type ViewBatch struct {
	View   string
	Snap   uint64
	Cols   []string
	Rows   [][]record.Value
	Pruned bool // materialized by cached-row replay, no query evaluation
}

// ViewSub is one subscription to a view's extension stream. Receive
// from C; a closed C means the subscription ended (view dropped,
// manager closed, or the subscriber fell too far behind and was
// disconnected rather than allowed to stall the refresh path).
type ViewSub struct {
	C    <-chan ViewBatch
	ch   chan ViewBatch
	id   int
	view string
	m    *ViewManager
}

// Cancel ends the subscription and closes C.
func (s *ViewSub) Cancel() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if v := s.m.views[s.view]; v != nil {
		if _, ok := v.subs[s.id]; ok {
			delete(v.subs, s.id)
			close(s.ch)
		}
	}
}

// ViewInfo is one view's status line (.views, wire ReqViews).
type ViewInfo struct {
	Name            string
	Mechanism       string
	Qq              string
	LastSnap        uint64 // refresh cursor: last materialized snapshot
	Rows            int    // rows currently in the result table
	Refreshes       uint64 // snapshots materialized
	PrunedRefreshes uint64 // of those, materialized by replay
	RowsPushed      uint64 // rows delivered to subscribers
	Subscribers     int
	LastError       string
}

// viewState is the manager's per-view record.
type viewState struct {
	def sql.RetroViewDef

	// runMu serializes materialization work on this view (the
	// background refresher vs synchronous REFRESH RETRO VIEW).
	runMu sync.Mutex
	ln    *lane // the view's mechanism state, stepped once per snapshot
	// conn materializes the view (sql.Conn.MaintainView), one catch-up
	// at a time, and keeps Qq's plan from snapshot to snapshot.
	conn *sql.Conn

	cursor          atomic.Uint64 // last materialized snapshot
	refreshes       atomic.Uint64
	prunedRefreshes atomic.Uint64
	rowsPushed      atomic.Uint64

	subs    map[int]*ViewSub // guarded by manager mu
	lastErr string           // guarded by manager mu
}

// ViewManager owns every materialized retro view of one database.
type ViewManager struct {
	db  *sql.DB
	rql *RQL

	mu     sync.Mutex
	views  map[string]*viewState // lower-cased name
	subSeq int
	closed bool

	// announced is the highest snapshot id known fully installed and
	// readable: on a primary, set by the post-commit hook (the commit
	// that declared it has returned, and groups drain in LSN order);
	// on a replica, set after ApplyReplicated finished a delta group.
	// The refresher materializes up to it and never past it — a
	// declared-but-still-committing snapshot is left for the next wake.
	announced atomic.Uint64

	wake chan struct{} // capacity 1: refresher wake signal
	stop chan struct{}
	done chan struct{}

	stats   viewMetrics
	metrics *obs.Set // over stats
}

// viewMetrics declares the manager's metrics (see obs.Set): maintenance
// work summed over every view that ever existed, and the current view
// and subscriber counts.
type viewMetrics struct {
	Views           obs.Gauge   `metric:"views" help:"Materialized retro views."`
	Refreshes       obs.Counter `metric:"view_refreshes" help:"Incremental view refreshes across all views."`
	PrunedRefreshes obs.Counter `metric:"view_pruned_refreshes" help:"Refreshes satisfied by delta pruning, all views."`
	RowsPushed      obs.Counter `metric:"view_rows_pushed" help:"Rows pushed to view subscribers, all views."`
	Subscribers     obs.Gauge   `metric:"view_subscribers" help:"Active view subscriptions."`
}

// NewViewManager loads the view definitions the side store holds and
// returns a manager ready to Start. Call on an idle database
// (open/attach time). A view's state lives in memory only, so each
// defined view's result table, left by an earlier manager, is dropped:
// the view backfills from snapshot 1 on the first pass, as a replica's
// views do after bootstrap.
func NewViewManager(db *sql.DB, r *RQL) (*ViewManager, error) {
	m := &ViewManager{
		db:    db,
		rql:   r,
		views: make(map[string]*viewState),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	m.metrics = obs.NewSet(&m.stats)
	defs, err := db.ListViews()
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		v, err := m.newViewState(def)
		if err != nil {
			return nil, fmt.Errorf("rql: reloading view %s: %w", def.Name, err)
		}
		if err := v.conn.Exec("DROP TABLE IF EXISTS "+sql.QuoteIdent(def.Name), nil); err != nil {
			return nil, fmt.Errorf("rql: dropping view %s's stale result table: %w", def.Name, err)
		}
		m.views[strings.ToLower(def.Name)] = v
	}
	m.announced.Store(uint64(db.Retro().LastSnapshot()))
	return m, nil
}

// Start launches the background refresher. Views behind the last
// announced snapshot (re-attach, or snapshots declared before Start)
// catch up on the first pass.
func (m *ViewManager) Start() {
	go m.refresher()
	m.poke()
}

// Close stops the refresher and closes every subscription.
func (m *ViewManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	for _, v := range m.views {
		for id, s := range v.subs {
			delete(v.subs, id)
			close(s.ch)
		}
	}
	m.mu.Unlock()
}

// AnnounceSnapshot records that snapshot id is installed and readable
// and wakes the refresher. Monotonic: stale announcements are ignored.
func (m *ViewManager) AnnounceSnapshot(id uint64) {
	for {
		cur := m.announced.Load()
		if id <= cur || m.announced.CompareAndSwap(cur, id) {
			break
		}
	}
	m.poke()
}

func (m *ViewManager) poke() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *ViewManager) refresher() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
		}
		m.refreshAll()
	}
}

// refreshAll catches every view up to the current announce mark.
func (m *ViewManager) refreshAll() {
	target := m.announced.Load()
	m.mu.Lock()
	names := make([]string, 0, len(m.views))
	for n := range m.views {
		names = append(names, n)
	}
	sort.Strings(names)
	m.mu.Unlock()
	for _, n := range names {
		m.mu.Lock()
		v := m.views[n]
		m.mu.Unlock()
		if v == nil {
			continue // dropped since the list was taken
		}
		if err := m.catchUp(v, target); err != nil {
			m.mu.Lock()
			if m.views[n] == v {
				v.lastErr = err.Error()
			}
			m.mu.Unlock()
		}
	}
}

// ---------------------------------------------------------------------------
// sql.RetroViewHook
// ---------------------------------------------------------------------------

// ValidateView rejects definitions the mechanisms could never run:
// unknown mechanism, missing/superfluous second argument, unparsable
// aggregate spec, or a Qq that is not a single SELECT. Column-level
// checks happen at first materialization, like a mechanism run's.
func (m *ViewManager) ValidateView(def sql.RetroViewDef) error {
	if _, err := m.newViewState(def); err != nil {
		return err
	}
	stmt, err := sql.Parse(def.Qq)
	if err != nil {
		return fmt.Errorf("rql: view query: %w", err)
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		return fmt.Errorf("rql: view query must be a single SELECT")
	}
	return nil
}

// ViewCreated registers a fresh view and schedules its backfill.
func (m *ViewManager) ViewCreated(def sql.RetroViewDef) {
	v, err := m.newViewState(def)
	if err != nil {
		return // ValidateView already vetted the definition
	}
	key := strings.ToLower(def.Name)
	m.mu.Lock()
	if m.closed || m.views[key] != nil {
		m.mu.Unlock()
		return
	}
	m.views[key] = v
	m.mu.Unlock()
	m.poke()
}

// ViewDropped unregisters a view and closes its subscriptions (the
// result table was dropped with the catalog entry, in the DDL's
// transaction).
func (m *ViewManager) ViewDropped(name string) {
	key := strings.ToLower(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := m.views[key]; v != nil {
		delete(m.views, key)
		for id, s := range v.subs {
			delete(v.subs, id)
			close(s.ch)
		}
	}
}

// ViewRefresh synchronously catches the named view up to the latest
// announced snapshot (REFRESH RETRO VIEW).
func (m *ViewManager) ViewRefresh(name string) error {
	m.mu.Lock()
	v := m.views[strings.ToLower(name)]
	m.mu.Unlock()
	if v == nil {
		return fmt.Errorf("%w: %s", sql.ErrNoView, name)
	}
	err := m.catchUp(v, m.announced.Load())
	m.mu.Lock()
	if err != nil {
		v.lastErr = err.Error()
	} else {
		v.lastErr = ""
	}
	m.mu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// Materialization
// ---------------------------------------------------------------------------

// newViewState builds the long-lived mechanism state for a view
// definition (cursor 0, nothing materialized): a lane writing the
// view's table, with no reader set — snapshots arrive one at a time.
func (m *ViewManager) newViewState(def sql.RetroViewDef) (*viewState, error) {
	kind, ok := mechKindByName(def.Mechanism)
	if !ok {
		return nil, fmt.Errorf("rql: unknown mechanism %q (want CollateData, AggregateDataInVariable, AggregateDataInTable or CollateDataIntoIntervals)", def.Mechanism)
	}
	mc, err := m.rql.newMech(mechCall{kind, def.Qq, def.Name, def.Extra, def.HasExtra})
	if err != nil {
		return nil, err
	}
	ln := mc.tableLane(nil)
	ln.keepRows = true
	conn := m.db.Conn()
	conn.MaintainView(def.Name)
	return &viewState{def: def, ln: ln, conn: conn, subs: make(map[int]*ViewSub)}, nil
}

// catchUp materializes v snapshot by snapshot up to target. Each
// snapshot's result rows commit before the cursor moves, and the
// extension is pushed to subscribers after both — a snapshot is never
// announced downstream before its rows are committed.
func (m *ViewManager) catchUp(v *viewState, target uint64) error {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	cur := v.cursor.Load()
	if target <= cur {
		return nil
	}
	conn := v.conn
	v.ln.conn = conn
	v.ln.run = newRunStats(v.ln.m.kind)
	// Pruning: decided per catch-up from the run-level toggle and the
	// static analysis of the (immutable) definition.
	v.ln.m.setupPrune(conn, v.ln.run)

	for snap := cur + 1; snap <= target; snap++ {
		mark := v.ln.mark()
		if err := m.extend(conn, v, snap); err != nil {
			// A failed step leaves no trace: abandon its result rows, drop
			// the table if this step created it (not one of the same name
			// that made the step fail), and put back the in-memory state
			// the step's records have already changed.
			v.ln.table.rollback()
			if !mark.shape.created && v.ln.m.created {
				_ = conn.Exec("DROP TABLE IF EXISTS "+sql.QuoteIdent(v.def.Name), nil) // best effort: the retry reports what is left
			}
			v.ln.undo(mark)
			return err
		}
	}
	return nil
}

// laneMark is what one step may change of a view's lane, taken just
// before the step. The fold and the prune memo are copied as values:
// an executed iteration replaces the memo's read-set and rows rather
// than editing them, and the fold's one map edited in place, the
// AggregateDataInTable weights, is cloned (no more work per step than
// the weights' count).
type laneMark struct {
	fold  fold
	cache pruneCache
	shape resultShape
	index sql.WriterIndex // the result table's search index, once built
}

// mark takes the lane's laneMark, before a step.
func (ln *lane) mark() laneMark {
	mk := laneMark{fold: ln.fold, cache: ln.cache, shape: ln.m.resultShape}
	mk.fold.counts = maps.Clone(ln.fold.counts)
	if ln.table != nil {
		mk.index = ln.table.index
	}
	return mk
}

// undo puts back the lane state of mark, after a failed step.
func (ln *lane) undo(mk laneMark) {
	ln.fold, ln.cache, ln.m.resultShape = mk.fold, mk.cache, mk.shape
	if ln.table != nil {
		ln.table.index = mk.index
	}
}

// extend runs one loop-body step of v on snap and commits its result
// rows, in one side-store transaction. A panic under the step (a
// registered function called by Qq, say) becomes its error, so that
// catchUp's cleanup runs and the background refresher survives.
func (m *ViewManager) extend(conn *sql.Conn, v *viewState, snap uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "rql: view %s step: panic: %v\n%s", v.def.Name, p, debug.Stack())
			err = fmt.Errorf("rql: view %s step panicked: %v", v.def.Name, p)
		}
	}()
	ln := v.ln
	if err := ln.step(snap); err != nil {
		return err
	}
	pruned, rows := ln.cost.Pruned, ln.rows
	// Result rows first …
	if err := ln.table.commit(); err != nil {
		return err
	}
	if ln.m.kind == mechAggVar {
		// T is empty until the view's first step stores its value.
		val, err := ln.fold.storeAggVar(conn, ln.fold.iterations > 1)
		if err != nil {
			return err
		}
		rows = [][]record.Value{{val}}
	}
	// … then the cursor …
	v.cursor.Store(snap)
	v.refreshes.Add(1)
	m.stats.Refreshes.Add(1)
	if pruned {
		v.prunedRefreshes.Add(1)
		m.stats.PrunedRefreshes.Add(1)
	}
	// … then the push.
	m.push(v, ViewBatch{
		View:   v.def.Name,
		Snap:   snap,
		Cols:   append([]string(nil), ln.m.qqCols...),
		Rows:   rows,
		Pruned: pruned,
	})
	return nil
}

// push delivers one extension batch to every subscriber. A subscriber
// whose buffer is full is disconnected (channel closed) instead of
// blocking the refresh path.
func (m *ViewManager) push(v *viewState, b ViewBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, s := range v.subs {
		select {
		case s.ch <- b:
			v.rowsPushed.Add(uint64(len(b.Rows)))
			m.stats.RowsPushed.Add(uint64(len(b.Rows)))
		default:
			delete(v.subs, id)
			close(s.ch)
		}
	}
}

// Subscribe opens a subscription to a view's extension stream. buf is
// the per-subscriber batch buffer (min 1); a subscriber that falls more
// than buf batches behind is disconnected.
func (m *ViewManager) Subscribe(view string, buf int) (*ViewSub, error) {
	if buf < 1 {
		buf = 1
	}
	key := strings.ToLower(view)
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[key]
	if v == nil {
		return nil, fmt.Errorf("%w: %s", sql.ErrNoView, view)
	}
	m.subSeq++
	ch := make(chan ViewBatch, buf)
	s := &ViewSub{C: ch, ch: ch, id: m.subSeq, view: key, m: m}
	v.subs[s.id] = s
	return s, nil
}

// Infos returns every view's status in name order.
func (m *ViewManager) Infos() []ViewInfo {
	m.mu.Lock()
	type entry struct {
		v       *viewState
		lastErr string
		subs    int
	}
	entries := make([]entry, 0, len(m.views))
	for _, v := range m.views {
		entries = append(entries, entry{v: v, lastErr: v.lastErr, subs: len(v.subs)})
	}
	m.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].v.def.Name < entries[j].v.def.Name })

	conn := m.db.Conn()
	out := make([]ViewInfo, 0, len(entries))
	for _, e := range entries {
		info := ViewInfo{
			Name:            e.v.def.Name,
			Mechanism:       e.v.def.Mechanism,
			Qq:              e.v.def.Qq,
			LastSnap:        e.v.cursor.Load(),
			Refreshes:       e.v.refreshes.Load(),
			PrunedRefreshes: e.v.prunedRefreshes.Load(),
			RowsPushed:      e.v.rowsPushed.Load(),
			Subscribers:     e.subs,
			LastError:       e.lastErr,
		}
		if ts, err := conn.TableStats(e.v.def.Name); err == nil {
			info.Rows = ts.Rows
		}
		out = append(out, info)
	}
	return out
}

// ViewStats is a typed point-in-time copy of the manager's metrics.
type ViewStats struct {
	Views           uint64
	Refreshes       uint64
	PrunedRefreshes uint64
	RowsPushed      uint64
	Subscribers     uint64
}

// sampleGauges stores the current view and subscriber counts.
func (m *ViewManager) sampleGauges() {
	m.mu.Lock()
	defer m.mu.Unlock()
	subs := 0
	for _, v := range m.views {
		subs += len(v.subs)
	}
	m.stats.Views.Store(int64(len(m.views)))
	m.stats.Subscribers.Store(int64(subs))
}

// Stats returns the aggregate view metrics, typed.
func (m *ViewManager) Stats() ViewStats {
	m.sampleGauges()
	var s ViewStats
	m.metrics.Fill(&s)
	return s
}

// Metrics samples the aggregate view metrics as the self-describing list.
func (m *ViewManager) Metrics() []obs.Metric {
	m.sampleGauges()
	return m.metrics.Snapshot()
}

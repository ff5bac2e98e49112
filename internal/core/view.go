package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
	"rql/internal/storage"
)

// Materialized retro views: the batch mechanisms turned into live,
// incrementally-maintained views. A view is one mechanism invocation
// whose per-snapshot results persist in a side-store table named after
// the view, together with a refresh cursor (the last materialized
// snapshot id) and the mechanism's loop-body state (read-set, cached
// rows, aggregate accumulators) in the rql_view_state side table. Each
// COMMIT WITH SNAPSHOT extends the view by exactly one loop-body
// iteration — delta-pruned through the Maplog when nothing on the
// view's read path changed — instead of the O(n)-snapshot recompute a
// fresh mechanism run would pay.
//
// The ViewManager implements sql.RetroViewHook (DDL callbacks), runs a
// single background refresher goroutine woken by the post-commit
// snapshot announcement (sql.DB.SetSnapshotHook), and fans newly
// materialized rows out to subscribers. Replicas run one too: their
// replication layer announces snapshots after each applied delta group,
// and the side store is locally writable, so views refresh from shipped
// deltas and subscriptions are served read-only.

// viewStateTable is the side-store table holding each view's refresh
// cursor and encoded mechanism state.
const viewStateTable = "rql_view_state"

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

// NewViewManager loads the persisted view definitions and their refresh
// state and returns a manager ready to Start. Call on an idle database
// (open/attach time): it reads the side-store catalog and state table.
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
	conn := db.Conn()
	if err := conn.Exec(`CREATE TEMP TABLE IF NOT EXISTS `+viewStateTable+` (
		name   TEXT,
		seq    INTEGER,
		cursor INTEGER,
		state  BLOB
	)`, nil); err != nil {
		return nil, err
	}
	defs, err := db.ListViews()
	if err != nil {
		return nil, err
	}
	for _, def := range defs {
		v, err := m.newViewState(def)
		if err != nil {
			return nil, fmt.Errorf("rql: reloading view %s: %w", def.Name, err)
		}
		if err := m.loadState(conn, v); err != nil {
			return nil, fmt.Errorf("rql: reloading view %s state: %w", def.Name, err)
		}
		m.views[strings.ToLower(def.Name)] = v
	}
	m.announced.Store(uint64(db.Retro().LastSnapshot()))
	return m, nil
}

// Start launches the background refresher. Views behind the last
// announced snapshot (restart, or snapshots declared before Start)
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
	// A dropped-and-recreated view must not resume from a stale cursor.
	conn := m.db.Conn()
	_ = conn.Exec("DELETE FROM "+viewStateTable+" WHERE name = ?", nil, record.Text(key))
	m.poke()
}

// ViewDropped unregisters a view, closes its subscriptions, and deletes
// its persisted refresh state (the result table was dropped with the
// catalog entry, in the DDL's transaction).
func (m *ViewManager) ViewDropped(name string) {
	key := strings.ToLower(name)
	m.mu.Lock()
	v := m.views[key]
	delete(m.views, key)
	if v != nil {
		for id, s := range v.subs {
			delete(v.subs, id)
			close(s.ch)
		}
	}
	m.mu.Unlock()
	if v == nil {
		return
	}
	// Serialize with an in-flight catch-up so its state persist cannot
	// resurrect the row after this delete.
	v.runMu.Lock()
	defer v.runMu.Unlock()
	conn := m.db.Conn()
	_ = conn.Exec("DELETE FROM "+viewStateTable+" WHERE name = ?", nil, record.Text(key))
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
	return &viewState{def: def, ln: ln, subs: make(map[int]*ViewSub)}, nil
}

// catchUp materializes v snapshot by snapshot up to target. Each
// snapshot's result rows commit before the cursor and mechanism state
// persist, and the extension is pushed to subscribers after both — a
// snapshot is never announced downstream before it is durable.
func (m *ViewManager) catchUp(v *viewState, target uint64) error {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	cur := v.cursor.Load()
	if target <= cur {
		return nil
	}
	conn := m.db.Conn()
	v.ln.conn = conn
	v.ln.run = newRunStats(v.ln.m.kind)
	// Pruning: decided per catch-up from the run-level toggle and the
	// static analysis of the (immutable) definition.
	v.ln.m.setupPrune(conn, v.ln.run)

	for snap := cur + 1; snap <= target; snap++ {
		hadTable := v.ln.m.created
		if err := m.extend(conn, v, snap); err != nil {
			// A failed step leaves no trace: abandon its result rows, drop
			// the table if this step created it (not one of the same name
			// that made the step fail), and rebuild the in-memory state —
			// which the step's records have already mutated — from what the
			// last successful step persisted.
			v.ln.table.rollback()
			if !hadTable && v.ln.m.created {
				_ = conn.Exec("DROP TABLE IF EXISTS "+sql.QuoteIdent(v.def.Name), nil) // best effort: the retry reports what is left
			}
			fresh, _ := m.newViewState(v.def) // the definition validated at CREATE
			if lerr := m.loadState(conn, fresh); lerr != nil {
				return fmt.Errorf("%w (reloading the view state: %v)", err, lerr)
			}
			v.ln = fresh.ln
			return err
		}
	}
	return nil
}

// extend runs one loop-body step of v on snap and makes it durable. A
// panic under the step (a registered function called by Qq, say)
// becomes its error, so that catchUp's cleanup runs and the background
// refresher survives.
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
		if err := conn.Exec("DELETE FROM "+sql.QuoteIdent(ln.m.table), nil); err != nil {
			return err
		}
		val, err := ln.fold.insertAggVar(conn)
		if err != nil {
			return err
		}
		rows = [][]record.Value{{val}}
	}
	// … then the cursor/state …
	if err := m.persistState(conn, v, snap); err != nil {
		return err
	}
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

// ---------------------------------------------------------------------------
// Refresh-state persistence
// ---------------------------------------------------------------------------

// viewStateChunk bounds each persisted state row's blob cell so that
// name + seq + cursor + chunk stay well under the btree's
// MaxCellPayload. The state blob grows with the prune memo (read-set
// page ids plus the cached rows of one iteration), so a wide view can
// exceed one page; persistState splits it across sequenced rows.
const viewStateChunk = 1024

// persistState writes v's cursor and encoded mechanism state, chunked
// into as many sequenced rows as the blob needs. Runs inside the same
// side-store transaction as the result-table extension, so cursor,
// state, and rows move together.
func (m *ViewManager) persistState(conn *sql.Conn, v *viewState, cursor uint64) error {
	blob := encodeViewState(v.ln)
	key := strings.ToLower(v.def.Name)
	if err := conn.Exec("DELETE FROM "+viewStateTable+" WHERE name = ?", nil, record.Text(key)); err != nil {
		return err
	}
	for seq := 0; ; seq++ {
		end := min((seq+1)*viewStateChunk, len(blob))
		chunk := blob[seq*viewStateChunk : end]
		if err := conn.Exec("INSERT INTO "+viewStateTable+" VALUES (?, ?, ?, ?)", nil,
			record.Text(key), record.Int(int64(seq)), record.Int(int64(cursor)),
			record.Blob(chunk)); err != nil {
			return err
		}
		if end == len(blob) {
			return nil
		}
	}
}

// loadState restores v's cursor and mechanism state from the side
// store, if rows exist (a fresh view has none). Chunks are reassembled
// in seq order; every chunk carries the same cursor.
func (m *ViewManager) loadState(conn *sql.Conn, v *viewState) error {
	rows, err := conn.Query("SELECT seq, cursor, state FROM "+viewStateTable+" WHERE name = ?",
		record.Text(strings.ToLower(v.def.Name)))
	if err != nil {
		return err
	}
	if len(rows.Rows) == 0 {
		return nil
	}
	sort.Slice(rows.Rows, func(i, j int) bool {
		return rows.Rows[i][0].AsInt() < rows.Rows[j][0].AsInt()
	})
	cursor := uint64(rows.Rows[0][1].AsInt())
	var blob []byte
	for i, row := range rows.Rows {
		if row[0].AsInt() != int64(i) || row[2].Type() != record.TypeBlob {
			return fmt.Errorf("rql: corrupt view state row")
		}
		blob = append(blob, row[2].Blob()...)
	}
	if err := decodeViewState(v.ln, blob); err != nil {
		return err
	}
	v.cursor.Store(cursor)
	return nil
}

const viewStateVersion = 1

// encodeViewState serializes the parts of a lane that must survive a
// restart: the fold's cursor (prevSnap, iterations), the resolved result
// shape, the aggregate accumulators, and the prune memo (read-set +
// cached rows) so the first refresh after a restart can still be pruned.
func encodeViewState(ln *lane) []byte {
	f := &ln.fold
	buf := []byte{viewStateVersion}
	var flags byte
	if ln.m.created {
		flags |= 1
	}
	if ln.table != nil && ln.table.index != "" {
		flags |= 2
	}
	if ln.cache.valid {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, f.prevSnap)
	buf = binary.AppendUvarint(buf, uint64(f.iterations))

	buf = binary.AppendUvarint(buf, uint64(len(ln.m.qqCols)))
	for _, c := range ln.m.qqCols {
		buf = appendBytes(buf, []byte(c))
	}

	// Accumulators: the value rides in a one-value row; avg state raw.
	buf = appendBytes(buf, record.EncodeRow(nil, []record.Value{f.val}))
	buf = binary.AppendUvarint(buf, uint64(f.avg.n))
	buf = binary.AppendUvarint(buf, math.Float64bits(f.avg.sum))
	buf = binary.AppendUvarint(buf, uint64(len(f.counts)))
	// Deterministic order is not required (a map restores a map), but
	// keeps encodings comparable in tests.
	rowids := make([]int64, 0, len(f.counts))
	for id := range f.counts {
		rowids = append(rowids, id)
	}
	sort.Slice(rowids, func(i, j int) bool { return rowids[i] < rowids[j] })
	for _, id := range rowids {
		buf = binary.AppendVarint(buf, id)
		buf = binary.AppendVarint(buf, f.counts[id])
	}

	if ln.cache.valid {
		buf = binary.AppendVarint(buf, int64(ln.cache.prev))
		pages := make([]uint64, 0, len(ln.cache.readSet))
		for p := range ln.cache.readSet {
			pages = append(pages, uint64(p))
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		buf = binary.AppendUvarint(buf, uint64(len(pages)))
		for _, p := range pages {
			buf = binary.AppendUvarint(buf, p)
		}
		buf = binary.AppendUvarint(buf, uint64(len(ln.cache.rows)))
		for _, r := range ln.cache.rows {
			buf = appendBytes(buf, record.EncodeRow(nil, r))
		}
	}
	return buf
}

// Every element count is read with stateDec.count before anything is
// sized by it, so a corrupt blob cannot reserve more than a small
// multiple of its own length.
func decodeViewState(ln *lane, blob []byte) error {
	f := &ln.fold
	d := &stateDec{b: blob}
	if d.byte() != viewStateVersion {
		return fmt.Errorf("rql: view state version mismatch")
	}
	flags := d.byte()
	f.prevSnap = d.uvarint()
	f.iterations = int(d.uvarint())

	n := d.count()
	if d.err != nil {
		return fmt.Errorf("rql: corrupt view state")
	}
	cols := make([]string, n)
	for i := range cols {
		cols[i] = string(d.bytes())
	}
	if n > 0 {
		if err := ln.m.resolveShape(cols); err != nil {
			return err
		}
	}
	ln.m.created = flags&1 != 0
	if flags&2 != 0 && ln.table != nil {
		ln.table.index = ln.m.indexName()
	}

	cv, err := record.DecodeRow(d.bytes())
	if err != nil || len(cv) != 1 {
		return fmt.Errorf("rql: corrupt view state accumulator")
	}
	f.val = cv[0]
	f.avg.n = int64(d.uvarint())
	f.avg.sum = math.Float64frombits(d.uvarint())
	cn := d.count()
	if d.err != nil || (cn > 0 && f.counts == nil) {
		return fmt.Errorf("rql: corrupt view state")
	}
	for i := 0; i < cn; i++ {
		id := d.varint()
		f.counts[id] = d.varint()
	}

	if flags&4 != 0 {
		ln.cache.valid = true
		ln.cache.prev = uint64(d.varint())
		pn := d.count()
		if d.err != nil {
			return fmt.Errorf("rql: corrupt view state read-set")
		}
		ln.cache.readSet = make(sql.PageSet, pn)
		for i := 0; i < pn; i++ {
			ln.cache.readSet[storage.PageID(d.uvarint())] = struct{}{}
		}
		rn := d.count()
		if d.err != nil {
			return fmt.Errorf("rql: corrupt view state rows")
		}
		ln.cache.rows = make([][]record.Value, 0, rn)
		for i := 0; i < rn; i++ {
			r, err := record.DecodeRow(d.bytes())
			if err != nil {
				return err
			}
			ln.cache.rows = append(ln.cache.rows, r)
		}
	}
	if d.err != nil {
		return fmt.Errorf("rql: truncated view state")
	}
	return nil
}

// stateDec is a tiny cursor over the encoded state blob.
type stateDec struct {
	b   []byte
	err error
}

func (d *stateDec) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.err = fmt.Errorf("short")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *stateDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("short")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count. An element takes at least one byte, so
// a count above the bytes left is corrupt; the comparison is unsigned
// because a count of 2^63 or more would pass it as a negative int.
func (d *stateDec) count() int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.err = fmt.Errorf("short")
		return 0
	}
	return int(n)
}

func (d *stateDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("short")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.err = fmt.Errorf("short")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func appendBytes(buf, v []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

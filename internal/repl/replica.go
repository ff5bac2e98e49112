package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/storage"
	"rql/internal/wire"
)

// ReplicaConfig configures NewReplica.
type ReplicaConfig struct {
	// Primary is the primary rqld's address (host:port). Required.
	Primary string
	// ID identifies this replica in the primary's registry.
	ID string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// ReconnectMin/Max bound the reconnect backoff (default 100ms..5s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

// Replica tails a primary's replication stream into a local database,
// applying snapshot groups atomically so the database's visible state
// always sits on a snapshot boundary. The database serves all four RQL
// mechanisms, AS OF reads and snapshot-set opens from its own local
// Pagelog/Maplog; writes are rejected with a redirect to the primary.
type Replica struct {
	db  *rql.DB
	cfg ReplicaConfig

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when horizon advances or replica stops
	horizon uint64     // last fully applied snapshot
	lsn     uint64     // last applied commit LSN
	booted  bool       // a bootstrap or first delta has been applied
	stopped bool
	fatal   error // the terminal error that ended the loop, if one did

	// Stream-apply state, owned by the run loop.
	pending []storage.ReplCommit // buffered commits of the open snapshot group
	partial *storage.ReplCommit  // commit being reassembled from chunked frames
	plEnd   int64                // primary Pagelog size after the last complete commit

	// sqlConn applies SnapIds rows and view DDL to the local side store;
	// only the run loop uses it.
	sqlConn *rql.Conn

	bytesReceived    atomic.Uint64
	deltasApplied    atomic.Uint64
	snapshotsApplied atomic.Uint64
	bootstraps       atomic.Uint64
	reconnects       atomic.Uint64
	lastErr          atomic.Value // string

	closed chan struct{}
	done   sync.WaitGroup

	// current connection, for Close to sever a blocked read.
	connMu sync.Mutex
	conn   net.Conn
}

// NewReplica attaches replication to db: the database becomes
// read-only for clients (writes redirect to cfg.Primary) and Start
// begins tailing the primary.
func NewReplica(db *rql.DB, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: replica needs a primary address")
	}
	if cfg.ID == "" {
		cfg.ID = "replica"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	r := &Replica{
		db:      db,
		cfg:     cfg,
		closed:  make(chan struct{}),
		sqlConn: db.Conn(),
	}
	r.cond = sync.NewCond(&r.mu)
	r.lastErr.Store("")
	// A replica restarted over a database that already applied state
	// resumes from its last applied snapshot instead of bootstrapping
	// (the replica only ever stops on snapshot boundaries, so the local
	// horizon fully describes the local state).
	if last := uint64(db.Engine().Retro().LastSnapshot()); last > 0 {
		r.horizon = last
		r.lsn = db.Engine().MainStore().LSN()
		r.booted = true
	}
	db.Engine().MainStore().SetReadOnly(RedirectError(cfg.Primary))
	return r, nil
}

// Start launches the replication loop.
func (r *Replica) Start() {
	r.done.Add(1)
	go r.loop()
}

// Close stops replication. The database stays open (and read-only).
func (r *Replica) Close() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.closed)
	r.connMu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.connMu.Unlock()
	r.cond.Broadcast()
	r.done.Wait()
}

// Horizon returns the last fully applied snapshot id.
func (r *Replica) Horizon() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizon
}

// PrimaryAddr returns the primary's address.
func (r *Replica) PrimaryAddr() string { return r.cfg.Primary }

// WaitForHorizon blocks until the applied horizon reaches snap, the
// timeout passes, or the replica stops.
func (r *Replica) WaitForHorizon(snap uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, r.cond.Broadcast)
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.horizon < snap {
		if r.stopped {
			return errors.New("repl: replica stopped")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("repl: horizon %d not reached (at %d) within %v", snap, r.horizon, timeout)
		}
		r.cond.Wait()
	}
	return nil
}

// Stats reports the replica's replication state.
func (r *Replica) Stats() wire.ReplStats {
	r.mu.Lock()
	horizon, lsn := r.horizon, r.lsn
	r.mu.Unlock()
	lastErr, _ := r.lastErr.Load().(string)
	return wire.ReplStats{
		Role:             wire.RoleReplica,
		Horizon:          horizon,
		LSN:              lsn,
		Primary:          r.cfg.Primary,
		BytesReceived:    r.bytesReceived.Load(),
		DeltasApplied:    r.deltasApplied.Load(),
		SnapshotsApplied: r.snapshotsApplied.Load(),
		Bootstraps:       r.bootstraps.Load(),
		Reconnects:       r.reconnects.Load(),
		LastError:        lastErr,
	}
}

// Wait blocks until the replication loop has stopped and returns the
// terminal error that stopped it, nil after Close.
func (r *Replica) Wait() error {
	r.done.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal
}

// loop dials, streams, and reconnects with backoff until Close. A
// divergence or protocol-version error (terminal) stops the loop;
// connection errors retry.
func (r *Replica) loop() {
	defer r.done.Done()
	backoff := r.cfg.ReconnectMin
	for {
		select {
		case <-r.closed:
			return
		default:
		}
		err := r.stream()
		if err == nil || r.isClosed() {
			return
		}
		r.lastErr.Store(err.Error())
		if errors.Is(err, storage.ErrReplMismatch) || errors.Is(err, retro.ErrReplDiverged) ||
			errors.Is(err, errNeedBootstrap) || errors.Is(err, wire.ErrVersionMismatch) {
			// Terminal: the local state can no longer follow the
			// primary, or the primary is a build of another protocol
			// version. Surfaced via Stats/LastError and Wait.
			r.mu.Lock()
			r.fatal = err
			r.mu.Unlock()
			return
		}
		r.reconnects.Add(1)
		select {
		case <-r.closed:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > r.cfg.ReconnectMax {
			backoff = r.cfg.ReconnectMax
		}
	}
}

func (r *Replica) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// errNeedBootstrap: the primary wants to bootstrap but this replica
// already holds state it cannot discard in place.
var errNeedBootstrap = errors.New("repl: primary requires re-bootstrap of a non-empty replica")

// stream runs one connection: handshake, subscribe, then apply frames
// until the connection dies.
func (r *Replica) stream() error {
	nc, err := net.DialTimeout("tcp", r.cfg.Primary, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	r.connMu.Lock()
	r.conn = nc
	r.connMu.Unlock()
	defer func() {
		r.connMu.Lock()
		r.conn = nil
		r.connMu.Unlock()
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, 1<<20)
	bw := bufio.NewWriterSize(nc, 64<<10)

	if err := wire.ClientHello(br, bw); err != nil {
		return err
	}

	r.mu.Lock()
	lastApplied := r.horizon
	r.mu.Unlock()
	// Every request frame opens with a trace context; a zero one keeps
	// the primary's local tracing behavior. Acks ride inside the
	// handed-off stream and carry no prefix.
	e := &wire.Enc{}
	wire.EncodeTraceContext(e, wire.TraceContext{})
	wire.EncodeReplSubscribe(e, wire.ReplSubscribe{ID: r.cfg.ID, LastApplied: lastApplied})
	if err := wire.WriteFrame(bw, wire.ReqReplSub, e.B); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Drop any half-reassembled group from a severed connection: the
	// resumed stream re-sends the whole group from its boundary.
	r.pending = nil
	r.partial = nil

	var boot *bootCollector
	for {
		op, payload, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		r.bytesReceived.Add(uint64(len(payload)))
		switch op {
		case wire.RespError:
			return wire.DecodeError(payload)
		case wire.RespReplBoot:
			d := &wire.Dec{B: payload}
			kind := d.Byte()
			if kind == wire.BootResume {
				continue
			}
			if boot == nil {
				boot = &bootCollector{}
			}
			done, err := boot.add(kind, d)
			if err != nil {
				return err
			}
			if done {
				if err := r.applyBootstrap(boot); err != nil {
					return err
				}
				boot = nil
			}
		case wire.RespReplDelta:
			d := &wire.Dec{B: payload}
			rd := wire.DecodeReplDelta(d)
			if d.Err() != nil {
				return d.Err()
			}
			if err := r.onDelta(rd, bw, nc); err != nil {
				return err
			}
		case wire.RespReplViewDDL:
			d := &wire.Dec{B: payload}
			ddl := wire.DecodeViewDDL(d)
			if d.Err() != nil {
				return d.Err()
			}
			if err := r.applyViewDDL(ddl); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unexpected frame 0x%02x on replication stream", op)
		}
	}
}

// onDelta merges chunked delta frames and, at each snapshot boundary,
// applies the buffered group atomically.
func (r *Replica) onDelta(rd wire.ReplDelta, bw *bufio.Writer, nc net.Conn) error {
	c := r.partial
	if c == nil {
		c = &storage.ReplCommit{LSN: rd.LSN}
		r.partial = c
	} else if c.LSN != rd.LSN {
		return fmt.Errorf("repl: delta chunk for LSN %d while reassembling %d", rd.LSN, c.LSN)
	}
	for _, pg := range rd.Pages {
		dp := storage.DirtyPage{ID: storage.PageID(pg.ID)}
		if pg.Data != nil {
			dp.New = new(storage.PageData)
			copy(dp.New[:], pg.Data)
		}
		c.Pages = append(c.Pages, dp)
	}
	if rd.Partial {
		return nil
	}
	c.Declare = rd.Declare
	c.SnapID = rd.SnapID
	r.plEnd = rd.PlEnd
	r.partial = nil
	// A resumed stream restarts at a snapshot-group boundary, which can
	// predate a bootstrap cut taken mid-group: commits at or below the
	// local LSN are already applied (store, Pagelog and Maplog alike)
	// and are dropped here rather than re-applied.
	r.mu.Lock()
	applied := r.lsn
	r.mu.Unlock()
	if c.LSN > applied {
		r.pending = append(r.pending, *c)
	}
	if !c.Declare {
		return nil
	}
	return r.applyGroup(bw, nc, rd.Annot)
}

// applyGroup applies the buffered snapshot group atomically through the
// store's commit path, checks the local Pagelog ends where the
// primary's did, applies the snapshot's SnapIds row (annot, when the
// declaration carried one), then moves the horizon and acks. A failed
// check or insert leaves the horizon behind the applied group: a
// divergence stops the replica, and a resumed stream after a failed
// insert stops on ErrReplMismatch.
func (r *Replica) applyGroup(bw *bufio.Writer, nc net.Conn, annot *wire.ReplAnnot) error {
	group := r.pending
	r.pending = nil
	if len(group) == 0 {
		return nil
	}
	sp := obs.StartSpan(nil, "repl.apply")
	err := r.db.Engine().MainStore().ApplyReplicated(group)
	if got := r.db.Engine().Retro().PagelogPages(); err == nil && got != r.plEnd {
		err = fmt.Errorf("%w: pagelog at %d after LSN %d, primary at %d", retro.ErrReplDiverged, got, group[len(group)-1].LSN, r.plEnd)
	}
	if err == nil && annot != nil {
		err = r.applyAnnot(*annot)
	}
	if err != nil {
		sp.End()
		return err
	}
	last := group[len(group)-1]
	r.deltasApplied.Add(uint64(len(group)))
	r.snapshotsApplied.Add(1)
	r.mu.Lock()
	r.horizon = last.SnapID
	r.lsn = last.LSN
	r.booted = true
	r.mu.Unlock()
	r.cond.Broadcast()
	// Local retro views extend from the applied snapshot, exactly as the
	// primary's do from its commit path.
	r.db.AnnounceSnapshot(last.SnapID)
	sp.SetInt("snapshot", int64(last.SnapID)).
		SetInt("commits", int64(len(group))).
		SetInt("lsn", int64(last.LSN))
	sp.End()

	ack := wire.ReplAck{Snap: last.SnapID, LSN: last.LSN, Bytes: r.bytesReceived.Load()}
	e := &wire.Enc{}
	wire.EncodeReplAck(e, ack)
	nc.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
	if err := wire.WriteFrame(bw, wire.ReqReplAck, e.B); err != nil {
		return err
	}
	return bw.Flush()
}

// applyAnnot re-inserts one SnapIds row, idempotently: the row may
// already exist from the bootstrap or a resumed stream.
func (r *Replica) applyAnnot(a wire.ReplAnnot) error {
	conn := r.sqlConn
	if err := conn.EnsureSnapIds(); err != nil {
		return err
	}
	exists := false
	err := conn.Exec(`SELECT snap_id FROM SnapIds WHERE snap_id = ?`, func([]string, []record.Value) error {
		exists = true
		return nil
	}, record.Int(int64(a.Snap)))
	if err != nil {
		return err
	}
	if exists {
		return nil
	}
	return conn.Exec(`INSERT INTO SnapIds (snap_id, snap_ts, label) VALUES (?, ?, ?)`, nil,
		record.Int(int64(a.Snap)), record.Text(a.TS), record.Text(a.Label))
}

// applyViewDDL replays one retro-view DDL statement, idempotently: the
// definition may already exist from a bootstrap or a resumed stream, so
// creates drop first. The DDL targets the side store, which stays
// locally writable on replicas — the view's maintenance then runs
// locally from the shipped snapshot deltas.
func (r *Replica) applyViewDDL(ddl wire.ViewDDL) error {
	conn := r.sqlConn
	drop := fmt.Sprintf(`DROP RETRO VIEW IF EXISTS %s`, ddl.Name)
	if err := conn.Exec(drop, nil); err != nil {
		return err
	}
	if !ddl.Create {
		return nil
	}
	stmt := fmt.Sprintf(`CREATE RETRO VIEW %s AS %s(%s`,
		ddl.Name, ddl.Mechanism, sqlString(ddl.Qq))
	if ddl.HasExtra {
		stmt += ", " + sqlString(ddl.Extra)
	}
	stmt += ")"
	return conn.Exec(stmt, nil)
}

// sqlString renders s as a SQL string literal (” escaping).
func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// bootCollector accumulates bootstrap chunks until BootDone.
type bootCollector struct {
	meta    wire.ReplBootMeta
	gotMeta bool
	pages   []storage.ReplPage
	segs    []retro.SealedSegmentBlob // sealed cold segments
	sealed  int64                     // Pagelog pages the segments cover
	plPages []*storage.PageData
	entries []retro.BootstrapEntry
	annots  []wire.ReplAnnot
	views   []wire.ViewDDL // create-form view definitions
}

// add consumes one chunk; done reports BootDone.
func (b *bootCollector) add(kind byte, d *wire.Dec) (done bool, err error) {
	switch kind {
	case wire.BootMeta:
		b.meta = wire.DecodeReplBootMeta(d)
		b.gotMeta = true
	case wire.BootPages:
		for _, pg := range wire.DecodeReplPages(d) {
			rp := storage.ReplPage{ID: storage.PageID(pg.ID)}
			if pg.Data != nil {
				rp.Data = new(storage.PageData)
				copy(rp.Data[:], pg.Data)
			}
			b.pages = append(b.pages, rp)
		}
	case wire.BootSegment:
		base, pages, blob := wire.DecodeReplSegmentChunk(d)
		if d.Err() != nil {
			return false, d.Err()
		}
		if base != b.sealed || len(b.plPages) != 0 {
			return false, fmt.Errorf("repl: segment chunk at %d, expected %d before raw pages", base, b.sealed)
		}
		b.segs = append(b.segs, retro.SealedSegmentBlob{
			Base:  base,
			Pages: pages,
			Blob:  append([]byte(nil), blob...), // blob aliases the frame
		})
		b.sealed += pages
	case wire.BootPagelog:
		off, raw := wire.DecodeReplPagelogChunk(d)
		if b.sealed+int64(len(b.plPages)) != off {
			return false, fmt.Errorf("repl: pagelog chunk at %d, expected %d", off, b.sealed+int64(len(b.plPages)))
		}
		for _, pg := range raw {
			data := new(storage.PageData)
			copy(data[:], pg)
			b.plPages = append(b.plPages, data)
		}
	case wire.BootMaplog:
		for _, en := range wire.DecodeReplMapEntries(d) {
			b.entries = append(b.entries, retro.BootstrapEntry{
				Snap: retro.SnapshotID(en.Snap),
				Page: storage.PageID(en.Page),
				Off:  en.Off,
			})
		}
	case wire.BootAnnots:
		b.annots = append(b.annots, wire.DecodeReplAnnots(d)...)
	case wire.BootViews:
		b.views = append(b.views, wire.DecodeBootViews(d)...)
	case wire.BootDone:
		return true, nil
	default:
		return false, fmt.Errorf("repl: unknown bootstrap chunk kind %d", kind)
	}
	return false, d.Err()
}

// applyBootstrap loads a collected bootstrap into the local database.
// Only a replica that never applied state may bootstrap: the Pagelog
// cannot be rebuilt in place under live readers.
func (r *Replica) applyBootstrap(b *bootCollector) error {
	if !b.gotMeta {
		return errors.New("repl: bootstrap without meta chunk")
	}
	r.mu.Lock()
	booted := r.booted
	r.mu.Unlock()
	if booted {
		return errNeedBootstrap
	}
	sp := obs.StartSpan(nil, "repl.bootstrap.apply")
	defer sp.End()
	eng := r.db.Engine()
	free := make([]storage.PageID, len(b.meta.Free))
	for i, id := range b.meta.Free {
		free[i] = storage.PageID(id)
	}
	bs := retro.BootstrapState{
		LastSnap:     retro.SnapshotID(b.meta.LastSnap),
		SnapLSNs:     b.meta.SnapLSNs,
		Entries:      b.entries,
		PagelogPages: b.meta.PagelogPages,
	}
	if err := eng.Retro().ApplyBootstrap(bs, b.segs, b.plPages); err != nil {
		return err
	}
	if err := eng.MainStore().ApplyBootstrap(b.meta.LSN, int(b.meta.NumPages), b.pages, free); err != nil {
		return err
	}
	for _, a := range b.annots {
		if err := r.applyAnnot(a); err != nil {
			return err
		}
	}
	for _, v := range b.views {
		if err := r.applyViewDDL(v); err != nil {
			return err
		}
	}
	r.bootstraps.Add(1)
	r.mu.Lock()
	r.horizon = b.meta.LastSnap
	r.lsn = b.meta.LSN
	r.booted = true
	r.mu.Unlock()
	r.cond.Broadcast()
	// Wake the local view maintenance layer: the bootstrapped history is
	// new material for any views the DDL above (re)created.
	r.db.AnnounceSnapshot(b.meta.LastSnap)
	sp.SetInt("pages", int64(len(b.pages))).
		SetInt("pagelog_pages", b.meta.PagelogPages).
		SetInt("last_snap", int64(b.meta.LastSnap))
	return nil
}

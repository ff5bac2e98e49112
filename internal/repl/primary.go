package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rql"
	"rql/internal/core"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
	"rql/internal/storage"
	"rql/internal/wire"
)

// event is one entry in the primary's replication log: a replicated
// commit — a declaring one carries its snapshot's SnapIds registration —
// or a logical retro-view DDL (view definitions live in the side store,
// which page deltas do not cover). Page pointers inside commit deltas
// are the committed versions themselves (immutable under the store's
// copy-on-write discipline), so the log holds no page copies.
type event struct {
	seq     uint64
	commit  *retro.CommitDelta // nil for a view DDL event
	viewDDL *wire.ViewDDL
}

// annot returns the SnapIds row a declaring commit carries, nil for
// any other event.
func (ev *event) annot() *wire.ReplAnnot {
	if ev.commit == nil {
		return nil
	}
	if reg, ok := ev.commit.Reg.(core.Registration); ok {
		return &wire.ReplAnnot{Snap: uint64(ev.commit.SnapID), TS: reg.TS, Label: reg.Label}
	}
	return nil
}

// PrimaryConfig configures NewPrimary.
type PrimaryConfig struct {
	// RetainSnapshots bounds the delta history kept for resume
	// (default DefaultRetainSnapshots).
	RetainSnapshots int
	// WriteTimeout bounds each stream write (backpressure: a replica
	// that cannot drain the stream is disconnected; default 30s).
	WriteTimeout time.Duration
}

// Primary is the write side of replication: it observes every commit
// and retro-view DDL of a database and feeds them to subscribed replica
// streams, keeping a bounded history for reconnect-resume.
type Primary struct {
	db  *rql.DB
	cfg PrimaryConfig

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on append and on close
	events  []*event
	baseSeq uint64            // seq of events[0]
	nextSeq uint64            // seq the next event gets
	declSeq map[uint64]uint64 // snapshot id -> seq of its declaring commit
	declIDs []uint64          // snapshot ids in declare order (trim queue)
	closed  bool

	streams map[*stream]struct{}
	history []*stream // every stream ever registered, for stats
}

// stream is one replica's subscription.
type stream struct {
	id   string
	addr string
	nc   net.Conn

	dead      atomic.Bool // set when the connection is gone; wakes the feeder
	connected atomic.Bool
	ackSnap   atomic.Uint64
	ackLSN    atomic.Uint64
	sentBytes atomic.Uint64
}

// NewPrimary attaches a replication primary to db. There is no cost
// until a replica subscribes beyond retaining delta history.
func NewPrimary(db *rql.DB, cfg PrimaryConfig) *Primary {
	if cfg.RetainSnapshots <= 0 {
		cfg.RetainSnapshots = DefaultRetainSnapshots
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	p := &Primary{
		db:      db,
		cfg:     cfg,
		declSeq: make(map[uint64]uint64),
		streams: make(map[*stream]struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	db.Engine().Retro().SetCommitObserver(p.onCommit)
	db.Engine().SetViewDDLHook(p.onViewDDL)
	return p
}

// Close detaches the primary and closes all streams.
func (p *Primary) Close() {
	p.db.Engine().Retro().SetCommitObserver(nil)
	p.db.Engine().SetViewDDLHook(nil)
	p.mu.Lock()
	p.closed = true
	for st := range p.streams {
		st.dead.Store(true)
		st.nc.Close()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// DisconnectAll severs every live stream (server shutdown). The
// primary itself stays attached; replicas will reconnect if the server
// comes back.
func (p *Primary) DisconnectAll() {
	p.mu.Lock()
	for st := range p.streams {
		st.dead.Store(true)
		st.nc.Close()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// onCommit runs on the commit path (under the store and retro locks);
// it must only append to the log. It receives one whole commit group
// per call, appended under a single lock hold and announced with one
// broadcast, so the feeder wakes once per group and ships the group's
// deltas in one write batch.
func (p *Primary) onCommit(ds []retro.CommitDelta) {
	p.mu.Lock()
	for i := range ds {
		d := ds[i]
		ev := &event{seq: p.nextSeq, commit: &d}
		p.nextSeq++
		p.events = append(p.events, ev)
		if d.Declare {
			p.declSeq[uint64(d.SnapID)] = ev.seq
			p.declIDs = append(p.declIDs, uint64(d.SnapID))
			p.trimLocked()
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// onViewDDL runs on the connection that committed retro-view DDL.
// Replicated logically: view definitions live in the non-snapshotable
// side store, outside the page-delta stream.
func (p *Primary) onViewDDL(create bool, def sql.RetroViewDef) {
	p.mu.Lock()
	ev := &event{seq: p.nextSeq, viewDDL: &wire.ViewDDL{
		Create:    create,
		Name:      def.Name,
		Mechanism: def.Mechanism,
		Qq:        def.Qq,
		Extra:     def.Extra,
		HasExtra:  def.HasExtra,
	}}
	p.nextSeq++
	p.events = append(p.events, ev)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// trimLocked drops history older than the last RetainSnapshots
// snapshot groups. Callers hold p.mu.
func (p *Primary) trimLocked() {
	excess := len(p.declIDs) - p.cfg.RetainSnapshots
	if excess <= 0 {
		return
	}
	// Keep everything after the declare of the newest trimmed snapshot:
	// the retained suffix then starts exactly at a group boundary.
	cutSnap := p.declIDs[excess-1]
	cutSeq := p.declSeq[cutSnap] + 1
	for _, id := range p.declIDs[:excess] {
		delete(p.declSeq, id)
	}
	p.declIDs = append(p.declIDs[:0], p.declIDs[excess:]...)
	drop := int(cutSeq - p.baseSeq)
	p.events = append(p.events[:0], p.events[drop:]...)
	p.baseSeq = cutSeq
}

// resolveStart decides where a subscriber's stream starts: the seq
// after its last applied snapshot's declare when that history is
// retained, or a full bootstrap otherwise.
func (p *Primary) resolveStart(lastApplied uint64) (startSeq uint64, needBoot bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lastApplied == 0 {
		return 0, true
	}
	seq, ok := p.declSeq[lastApplied]
	if !ok {
		return 0, true
	}
	return seq + 1, false
}

// ServeStream runs one replica subscription on an accepted connection.
// It takes over the connection — the session layer hands it off after
// decoding the subscribe request — and returns when the stream ends
// (replica gone, primary closed, or backpressure disconnect).
func (p *Primary) ServeStream(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, sub wire.ReplSubscribe) error {
	st := &stream{id: sub.ID, nc: nc}
	if ra := nc.RemoteAddr(); ra != nil {
		st.addr = ra.String()
	}
	st.connected.Store(true)
	st.ackSnap.Store(sub.LastApplied)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("repl: primary closed")
	}
	p.streams[st] = struct{}{}
	p.history = append(p.history, st)
	p.mu.Unlock()
	defer func() {
		st.connected.Store(false)
		p.mu.Lock()
		delete(p.streams, st)
		p.mu.Unlock()
		nc.Close()
	}()

	startSeq, needBoot := p.resolveStart(sub.LastApplied)
	if needBoot {
		var err error
		startSeq, err = p.sendBootstrap(st, bw)
		if err != nil {
			return fmt.Errorf("repl: bootstrap to %s: %w", sub.ID, err)
		}
	} else {
		e := &wire.Enc{}
		e.Byte(wire.BootResume)
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}

	// Ack reader: the replica sends ReqReplAck frames on the same
	// connection; a read error (replica gone) unblocks the feeder by
	// closing the conn.
	go func() {
		for {
			op, payload, err := wire.ReadFrame(br)
			if err != nil {
				st.dead.Store(true)
				nc.Close()
				p.cond.Broadcast()
				return
			}
			if op != wire.ReqReplAck {
				continue
			}
			d := &wire.Dec{B: payload}
			ack := wire.DecodeReplAck(d)
			if d.Err() == nil {
				st.ackSnap.Store(ack.Snap)
				st.ackLSN.Store(ack.LSN)
			}
		}
	}()

	return p.feed(st, bw, startSeq)
}

// feed streams events from startSeq onward until the stream dies.
func (p *Primary) feed(st *stream, bw *bufio.Writer, startSeq uint64) error {
	cur := startSeq
	for {
		p.mu.Lock()
		for !p.closed && !st.dead.Load() && cur >= p.nextSeq {
			p.cond.Wait()
		}
		if p.closed || st.dead.Load() {
			p.mu.Unlock()
			return errors.New("repl: stream closed")
		}
		if cur < p.baseSeq {
			p.mu.Unlock()
			return fmt.Errorf("repl: stream to %s fell behind retained history", st.id)
		}
		batch := append([]*event(nil), p.events[cur-p.baseSeq:]...)
		p.mu.Unlock()
		for _, ev := range batch {
			if err := p.sendEvent(st, bw, ev); err != nil {
				return err
			}
			cur = ev.seq + 1
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// sendEvent writes one log event, chunking large commits.
func (p *Primary) sendEvent(st *stream, bw *bufio.Writer, ev *event) error {
	if ev.viewDDL != nil {
		e := &wire.Enc{}
		wire.EncodeViewDDL(e, *ev.viewDDL)
		return p.writeFrame(st, bw, wire.RespReplViewDDL, e.B)
	}
	d := ev.commit
	pages := d.Pages
	for first := true; first || len(pages) > 0; first = false {
		rd := wire.ReplDelta{LSN: d.LSN}
		n := min(len(pages), deltaPagesPerFrame)
		rd.Pages = make([]wire.ReplPageImage, n)
		for i, pg := range pages[:n] {
			rd.Pages[i].ID = uint32(pg.ID)
			if pg.New != nil {
				rd.Pages[i].Data = pg.New[:]
			}
		}
		pages = pages[n:]
		rd.Partial = len(pages) > 0
		if !rd.Partial {
			rd.Declare = d.Declare
			rd.SnapID = uint64(d.SnapID)
			rd.PlEnd = d.PlEnd
			rd.Annot = ev.annot()
		}
		e := &wire.Enc{}
		wire.EncodeReplDelta(e, rd)
		if err := p.writeFrame(st, bw, wire.RespReplDelta, e.B); err != nil {
			return err
		}
	}
	return nil
}

func (p *Primary) writeFrame(st *stream, bw *bufio.Writer, op byte, payload []byte) error {
	st.nc.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if err := wire.WriteFrame(bw, op, payload); err != nil {
		return err
	}
	st.sentBytes.Add(uint64(len(payload)))
	return nil
}

// sendBootstrap ships the full state: a consistent cut of the store,
// Pagelog and Maplog, the SnapIds rows of the snapshots up to the cut,
// and the retro-view definitions. It returns the log seq the delta
// stream continues from.
func (p *Primary) sendBootstrap(st *stream, bw *bufio.Writer) (startSeq uint64, err error) {
	sp := obs.StartSpan(nil, "repl.bootstrap")
	defer sp.End()
	eng := p.db.Engine()
	store := eng.MainStore()
	rsys := eng.Retro()

	// Consistent cut: quiesce the commit path (commit-group leaders
	// and replicated applies both pass through the writer semaphore),
	// freezing store LSN, retro state and the event log together; pin
	// an MVCC read at that LSN; record where the delta stream will
	// continue; then release. The bulk export below reads the pinned
	// LSN and the append-only log prefixes at leisure. Sessions may
	// stage (and even allocate pages) during the cut — uncommitted
	// allocations have no versions, so the export skips them, and
	// their commits queue behind the quiesce.
	release, err := store.Quiesce()
	if err != nil {
		return 0, err
	}
	boot, err := rsys.ExportBootstrap()
	if err != nil {
		release()
		return 0, err
	}
	rt, err := store.BeginRead()
	if err != nil {
		release()
		return 0, err
	}
	defer rt.Close()
	numPages := store.NumPages()
	freeList := store.FreeList()
	var carried []wire.ReplAnnot
	p.mu.Lock()
	startSeq = p.nextSeq
	for _, ev := range p.events {
		if a := ev.annot(); a != nil {
			carried = append(carried, *a)
		}
	}
	p.mu.Unlock()
	release()

	cutLSN := rt.LSN()
	meta := wire.ReplBootMeta{
		LSN:           cutLSN,
		NumPages:      uint64(numPages),
		LastSnap:      uint64(boot.LastSnap),
		PagelogPages:  boot.PagelogPages,
		MaplogEntries: uint64(len(boot.Entries)),
	}
	meta.Free = make([]uint32, len(freeList))
	for i, id := range freeList {
		meta.Free[i] = uint32(id)
	}
	meta.SnapLSNs = boot.SnapLSNs
	e := &wire.Enc{}
	e.Byte(wire.BootMeta)
	wire.EncodeReplBootMeta(e, meta)
	if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
		return 0, err
	}

	// Current-state pages at the cut LSN, in batches. Absent (free)
	// pages are skipped; the replica leaves their slots empty.
	var batch []wire.ReplPageImage
	flushPages := func() error {
		if len(batch) == 0 {
			return nil
		}
		e := &wire.Enc{}
		e.Byte(wire.BootPages)
		wire.EncodeReplPages(e, batch)
		batch = batch[:0]
		return p.writeFrame(st, bw, wire.RespReplBoot, e.B)
	}
	for id := 1; id <= numPages; id++ {
		data := store.PageAt(storage.PageID(id), cutLSN)
		if data == nil {
			continue
		}
		batch = append(batch, wire.ReplPageImage{ID: uint32(id), Data: data[:]})
		if len(batch) >= bootPagesPerChunk {
			if err := flushPages(); err != nil {
				return 0, err
			}
		}
	}
	if err := flushPages(); err != nil {
		return 0, err
	}

	// Sealed cold segments first: each ships as one blob at its
	// compressed size and lands on the replica verbatim — no
	// decompression or re-sealing on either side. Only segments wholly
	// below the bootstrap cut qualify; ExportSealedSegments reports how
	// far they reach and the raw loop below picks up there.
	segs, segStart, err := rsys.ExportSealedSegments(boot.PagelogPages)
	if err != nil {
		return 0, err
	}
	for _, sg := range segs {
		e := &wire.Enc{}
		e.Byte(wire.BootSegment)
		wire.EncodeReplSegmentChunk(e, sg.Base, sg.Pages, sg.Blob)
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return 0, err
		}
	}

	// Pagelog prefix [segStart, boot.PagelogPages), in runs.
	for off := segStart; off < boot.PagelogPages; {
		n := bootPagesPerChunk
		if rem := boot.PagelogPages - off; rem < int64(n) {
			n = int(rem)
		}
		run, err := rsys.ExportPagelog(off, n)
		if err != nil {
			return 0, err
		}
		raw := make([][]byte, len(run))
		for i, pg := range run {
			raw[i] = pg[:]
		}
		e := &wire.Enc{}
		e.Byte(wire.BootPagelog)
		wire.EncodeReplPagelogChunk(e, off, raw)
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return 0, err
		}
		off += int64(len(run))
	}

	// Maplog entries, chunked.
	for i := 0; i < len(boot.Entries); i += mapEntriesPerChunk {
		j := i + mapEntriesPerChunk
		if j > len(boot.Entries) {
			j = len(boot.Entries)
		}
		chunk := make([]wire.ReplMapEntry, j-i)
		for k, en := range boot.Entries[i:j] {
			chunk[k] = wire.ReplMapEntry{Snap: uint64(en.Snap), Page: uint32(en.Page), Off: en.Off}
		}
		e := &wire.Enc{}
		e.Byte(wire.BootMaplog)
		wire.EncodeReplMapEntries(e, chunk)
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return 0, err
		}
	}

	// SnapIds rows: the table, read after the cut, and the registrations
	// the retained declaring commits before the cut carry, so a snapshot
	// whose primary-side insert lands after the read still ships one. A
	// snapshot declared after the cut brings its row in its own delta.
	anns, err := p.exportAnnots(carried)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(anns); i += annotsPerChunk {
		j := i + annotsPerChunk
		if j > len(anns) {
			j = len(anns)
		}
		e := &wire.Enc{}
		e.Byte(wire.BootAnnots)
		wire.EncodeReplAnnots(e, anns[i:j])
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return 0, err
		}
	}

	// Retro-view definitions, shipped as create-form DDL events.
	// Definitions committed since the cut also arrive as stream events;
	// the replica's apply is idempotent.
	defs, err := eng.ListViews()
	if err != nil {
		return 0, err
	}
	if len(defs) > 0 {
		views := make([]wire.ViewDDL, len(defs))
		for i, def := range defs {
			views[i] = wire.ViewDDL{
				Create:    true,
				Name:      def.Name,
				Mechanism: def.Mechanism,
				Qq:        def.Qq,
				Extra:     def.Extra,
				HasExtra:  def.HasExtra,
			}
		}
		e := &wire.Enc{}
		e.Byte(wire.BootViews)
		wire.EncodeBootViews(e, views)
		if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
			return 0, err
		}
	}

	e = &wire.Enc{}
	e.Byte(wire.BootDone)
	if err := p.writeFrame(st, bw, wire.RespReplBoot, e.B); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	sp.SetInt("pages", int64(numPages)).
		SetInt("pagelog_pages", boot.PagelogPages).
		SetInt("last_snap", int64(boot.LastSnap)).
		SetInt("bytes", int64(st.sentBytes.Load()))
	return startSeq, nil
}

// exportAnnots returns the SnapIds rows a bootstrap ships: the
// primary's table, then those of carried whose id the table lacks. The
// table may not exist yet (no snapshot ever recorded); that is an empty
// table. Any other failure fails the bootstrap: a replica must not start
// without the primary's SnapIds rows.
func (p *Primary) exportAnnots(carried []wire.ReplAnnot) ([]wire.ReplAnnot, error) {
	rows, err := p.db.Engine().Conn().Query(`SELECT snap_id, snap_ts, label FROM SnapIds ORDER BY snap_id`)
	if errors.Is(err, sql.ErrNoTable) {
		rows, err = &sql.Rows{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repl: export SnapIds: %w", err)
	}
	var out []wire.ReplAnnot
	inTable := make(map[uint64]bool)
	for _, r := range rows.Rows {
		if len(r) != 3 {
			continue
		}
		a := wire.ReplAnnot{Snap: uint64(r[0].AsInt())}
		if r[1].Type() == record.TypeText {
			a.TS = r[1].Text()
		}
		if r[2].Type() == record.TypeText {
			a.Label = r[2].Text()
		}
		out = append(out, a)
		inTable[a.Snap] = true
	}
	for _, a := range carried {
		if !inTable[a.Snap] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Stats reports the primary's replication state.
func (p *Primary) Stats() wire.ReplStats {
	eng := p.db.Engine()
	s := wire.ReplStats{
		Role:    wire.RolePrimary,
		Horizon: uint64(eng.Retro().LastSnapshot()),
		LSN:     eng.MainStore().LSN(),
	}
	p.mu.Lock()
	hist := append([]*stream(nil), p.history...)
	p.mu.Unlock()
	for _, st := range hist {
		s.Replicas = append(s.Replicas, wire.ReplicaStat{
			ID:        st.id,
			Addr:      st.addr,
			Connected: st.connected.Load(),
			AckedSnap: st.ackSnap.Load(),
			AckedLSN:  st.ackLSN.Load(),
			SentBytes: st.sentBytes.Load(),
		})
	}
	return s
}

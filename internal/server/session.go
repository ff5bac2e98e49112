package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/wire"
)

// batchRows / batchBytes bound one RespBatch frame: rows are flushed to
// the client once either limit is reached, so large results stream with
// bounded memory on both sides.
const (
	batchRows  = 256
	batchBytes = 64 << 10
)

// session is one client connection: it owns a private rql.Conn (its
// independent read context over the MVCC/Retro stack) and serves one
// request at a time from its goroutine.
type session struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	conn *rql.Conn

	// cancel fires the session's lifetime context: the Conn's
	// commit-queue waits abort instead of parking a dead session's
	// transaction forever.
	cancel context.CancelFunc

	mu            sync.Mutex
	busy          bool         // a request is executing
	closeWhenIdle bool         // drain: exit after the in-flight request
	viewSub       *rql.ViewSub // active view subscription, if streaming
}

func newSession(s *Server, nc net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	conn := s.db.Conn()
	conn.SetContext(ctx)
	return &session{
		srv:    s,
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 32<<10),
		bw:     bufio.NewWriterSize(nc, 32<<10),
		conn:   conn,
		cancel: cancel,
	}
}

// beginShutdown is called by Server.Shutdown: idle sessions close right
// away (unblocking their read), busy ones exit after the in-flight
// request completes.
func (ss *session) beginShutdown() {
	ss.mu.Lock()
	ss.closeWhenIdle = true
	busy := ss.busy
	ss.mu.Unlock()
	// A view-subscription session is "busy" indefinitely; cancelling the
	// subscription closes its channel, so the stream loop exits.
	ss.cancelViewSub()
	if !busy {
		ss.nc.Close()
	}
}

// forceClose severs the connection regardless of in-flight work and
// cancels the session context, unblocking a writer parked behind the
// writer lock or the commit queue.
func (ss *session) forceClose() {
	ss.cancel()
	ss.cancelViewSub()
	ss.nc.Close()
}

func (ss *session) setBusy(b bool) (exit bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.busy = b
	return ss.closeWhenIdle
}

// run is the session loop: handshake, then request/response until the
// client goes away, a protocol error occurs, or the server drains. A
// request that panics ends its own session the same way — counted, its
// stack on stderr, the client told — and no other.
func (ss *session) run() {
	defer func() {
		if p := recover(); p != nil {
			ss.srv.stats.Panics.Add(1)
			fmt.Fprintf(os.Stderr, "rqld: session %s: panic: %v\n%s", ss.nc.RemoteAddr(), p, debug.Stack())
			ss.writeError(fmt.Errorf("server: request panicked: %v", p))
			ss.flush()
		}
		// Roll back if the client died mid transaction — releasing the
		// staged write set and its snapshot pin — and drop the
		// connection.
		ss.cancel()
		if ss.conn.InTx() {
			ss.conn.Rollback()
		}
		ss.nc.Close()
	}()

	if err := ss.handshake(); err != nil {
		return
	}
	for {
		ss.nc.SetReadDeadline(time.Now().Add(ss.srv.cfg.IdleTimeout))
		op, payload, err := wire.ReadFrame(ss.br)
		if err != nil {
			return
		}
		if exit := ss.setBusy(true); exit {
			// Shutdown won the race with this request: refuse it.
			ss.writeError(ErrServerClosed)
			ss.flush()
			return
		}
		req, ok := wire.RequestFor(op)
		if !ok {
			ss.rejectOpcode(op)
			ss.flush()
			return
		}
		// Every request payload opens with the caller's trace context.
		// Strip it here, once, so the handlers below see only operands.
		d := &wire.Dec{B: payload}
		tc := wire.DecodeTraceContext(d)
		if d.Err() != nil {
			return
		}
		payload = d.B
		// One root span per request: the session's Conn carries it as
		// the ambient parent, so the statement, mechanism-iteration,
		// snapshot-fetch and device spans underneath all join this
		// request's trace. A propagated context roots the span inside
		// the caller's trace — the primary and replica legs of one
		// cluster query share a trace ID — and its sampling flag is the
		// caller's decision: unsampled requests record no server span.
		start := time.Now()
		var sp *obs.Span
		if tc.Trace != 0 {
			if tc.Sampled {
				sp = obs.StartSpanInTrace(tc.Trace, req.Name)
			}
		} else {
			sp = obs.StartSpan(nil, req.Name)
		}
		if sp != nil {
			ss.conn.SetTraceSpan(sp)
		}
		err = ss.dispatch(op, payload)
		if sp != nil {
			ss.conn.SetTraceSpan(nil)
			sp.End()
		}
		ss.srv.stats.Latency.Observe(uint64(time.Since(start)))
		ferr := ss.flush()
		exit := ss.setBusy(false)
		if err != nil || ferr != nil || exit {
			return
		}
	}
}

// handshake validates the client hello.
func (ss *session) handshake() error {
	ss.nc.SetReadDeadline(time.Now().Add(ss.srv.cfg.IdleTimeout))
	op, payload, err := wire.ReadFrame(ss.br)
	if err != nil {
		return err
	}
	d := &wire.Dec{B: payload}
	if op != wire.ReqHello || d.String() != wire.Magic {
		ss.writeError(wire.ErrBadMagic)
		ss.flush()
		return wire.ErrBadMagic
	}
	v := d.Uvarint()
	if d.Err() != nil || v == 0 {
		err := fmt.Errorf("server: bad protocol version %d", v)
		ss.writeError(err)
		ss.flush()
		return err
	}
	// ProtocolVersion is also the floor: every peer is built from this
	// tree. A newer peer is answered with our version and decides for
	// itself; an older one gets one clean error naming the floor.
	if v < wire.ProtocolVersion {
		err := fmt.Errorf("server: protocol v%d is below the supported floor v%d", v, wire.ProtocolVersion)
		ss.writeError(err)
		ss.flush()
		return err
	}
	e := &wire.Enc{}
	e.Uvarint(wire.ProtocolVersion)
	e.String("rqld")
	if err := ss.writeFrame(wire.RespHello, e.B); err != nil {
		return err
	}
	return ss.flush()
}

// dispatch executes one request and writes its response frames. A
// returned error means the connection is no longer usable (I/O or
// protocol failure); statement errors go to the client as RespError and
// return nil.
func (ss *session) dispatch(op byte, payload []byte) error {
	switch op {
	case wire.ReqExec:
		return ss.handleExec(payload)
	case wire.ReqSnap:
		return ss.handleSnapshot(payload)
	case wire.ReqMech:
		return ss.handleMech(payload)
	case wire.ReqStats:
		e := &wire.Enc{}
		wire.EncodeMetrics(e, ss.srv.Metrics())
		return ss.writeFrame(wire.RespStats, e.B)
	case wire.ReqObjs:
		return ss.handleObjects()
	case wire.ReqRun:
		e := &wire.Enc{}
		run := ss.srv.db.LastRun()
		e.Bool(run != nil)
		if run != nil {
			wire.EncodeRunStats(e, run)
		}
		return ss.writeFrame(wire.RespRun, e.B)
	case wire.ReqTblSt:
		return ss.handleTableStats(payload)
	case wire.ReqPing:
		return ss.writeFrame(wire.RespPong, nil)
	case wire.ReqTrace:
		return ss.handleTrace(payload)
	case wire.ReqSlow:
		return ss.handleSlow(payload)
	case wire.ReqReset:
		ss.srv.ResetStats()
		return ss.writeFrame(wire.RespPong, nil)
	case wire.ReqHorizon:
		return ss.handleHorizon()
	case wire.ReqReplStats:
		return ss.handleReplStats()
	case wire.ReqReplSub:
		return ss.handleReplSub(payload)
	case wire.ReqViews:
		return ss.handleViews()
	case wire.ReqViewSub:
		return ss.handleViewSub(payload)
	case wire.ReqTimeline:
		return ss.handleTimeline()
	default:
		// Hello and ReplAck have rows in wire.Requests but are not
		// requests a session serves after the handshake.
		return ss.rejectOpcode(op)
	}
}

// rejectOpcode answers an opcode that is no request: the stream cannot
// be trusted any further, so the returned error ends the session.
func (ss *session) rejectOpcode(op byte) error {
	err := fmt.Errorf("server: unknown opcode %#x", op)
	ss.writeError(err)
	return err
}

// handleExec runs SQL and streams the result: header frames when the
// column set changes, batched row frames, and a final RespDone carrying
// the statement statistics.
func (ss *session) handleExec(payload []byte) error {
	d := &wire.Dec{B: payload}
	asOf := d.Uvarint()
	sqlText := d.String()
	params := d.Row()
	if d.Err() != nil {
		return d.Err()
	}
	ss.srv.stats.QueriesServed.Add(1)

	var (
		lastCols  []string
		batch     wire.Enc
		batchN    int
		streamErr error // I/O failure while streaming
	)
	flushBatch := func() error {
		if batchN == 0 {
			return nil
		}
		hdr := wire.Enc{}
		hdr.Uvarint(uint64(batchN))
		hdr.B = append(hdr.B, batch.B...)
		batch.B = batch.B[:0]
		ss.srv.stats.RowsStreamed.Add(uint64(batchN))
		batchN = 0
		return ss.writeFrame(wire.RespBatch, hdr.B)
	}

	start := time.Now()
	limit := ss.srv.cfg.RequestTimeout
	cb := func(cols []string, row []rql.Value) error {
		if time.Since(start) > limit {
			return deadlineError(limit)
		}
		if !sameCols(lastCols, cols) {
			if err := flushBatch(); err != nil {
				streamErr = err
				return err
			}
			e := &wire.Enc{}
			e.Uvarint(uint64(len(cols)))
			for _, c := range cols {
				e.String(c)
			}
			if err := ss.writeFrame(wire.RespHeader, e.B); err != nil {
				streamErr = err
				return err
			}
			lastCols = append(lastCols[:0], cols...)
		}
		batch.Row(row)
		batchN++
		if batchN >= batchRows || len(batch.B) >= batchBytes {
			if err := flushBatch(); err != nil {
				streamErr = err
				return err
			}
		}
		return nil
	}

	var err error
	if asOf != 0 {
		err = ss.conn.ExecAsOf(sqlText, asOf, cb, params...)
	} else {
		err = ss.conn.Exec(sqlText, cb, params...)
	}
	if streamErr != nil {
		return streamErr
	}
	if err != nil {
		ss.writeError(err)
		return nil
	}
	if err := flushBatch(); err != nil {
		return err
	}
	e := &wire.Enc{}
	st := ss.conn.LastStats()
	wire.EncodeCost(e, &st)
	e.Uvarint(ss.conn.LastSnapshot())
	e.Bool(ss.conn.InTx())
	// The statement's trace ID (0 when untraced), so the client can
	// fetch this exact request's span tree afterwards.
	e.Uvarint(ss.conn.LastTrace())
	return ss.writeFrame(wire.RespDone, e.B)
}

// handleTrace serves the TRACE request: toggle the recorder or fetch
// recorded spans (one trace, or the whole ring for id 0).
func (ss *session) handleTrace(payload []byte) error {
	d := &wire.Dec{B: payload}
	cmd := d.Byte()
	id := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	// TraceOn/TraceOff answer with an empty span list.
	var spans []obs.Span
	switch cmd {
	case wire.TraceOff, wire.TraceOn:
		obs.SetTracing(cmd == wire.TraceOn)
	case wire.TraceFetch:
		if id == 0 {
			spans = obs.Spans()
		} else {
			spans = obs.TraceSpans(id)
		}
	default:
		ss.writeError(fmt.Errorf("server: unknown trace command %d", cmd))
		return nil
	}
	e := &wire.Enc{}
	wire.EncodeSpans(e, spans)
	return ss.writeFrame(wire.RespTrace, e.B)
}

// handleSlow serves the slow-query log with the active threshold; a
// request that carries a threshold sets it first (0 turns the log off).
func (ss *session) handleSlow(payload []byte) error {
	if len(payload) > 0 {
		d := &wire.Dec{B: payload}
		th := d.Duration()
		if d.Err() != nil {
			return d.Err()
		}
		obs.SetSlowThreshold(th)
	}
	e := &wire.Enc{}
	wire.EncodeSlowEntries(e, obs.SlowThreshold(), obs.SlowEntries())
	return ss.writeFrame(wire.RespSlow, e.B)
}

// handleTimeline serves the telemetry timeline ring. A server without a
// running sampler answers with an empty ring, period 0.
func (ss *session) handleTimeline() error {
	e := &wire.Enc{}
	if tl := ss.srv.timeline; tl != nil {
		wire.EncodeTimeline(e, tl.Period(), tl.Points())
	} else {
		wire.EncodeTimeline(e, 0, nil)
	}
	return ss.writeFrame(wire.RespTimeline, e.B)
}

func (ss *session) handleSnapshot(payload []byte) error {
	d := &wire.Dec{B: payload}
	label := d.String()
	if d.Err() != nil {
		return d.Err()
	}
	ss.srv.stats.QueriesServed.Add(1)
	id, err := ss.conn.DeclareSnapshot(label)
	if err != nil {
		ss.writeError(err)
		return nil
	}
	e := &wire.Enc{}
	e.Uvarint(id)
	return ss.writeFrame(wire.RespSnapID, e.B)
}

func (ss *session) handleMech(payload []byte) error {
	d := &wire.Dec{B: payload}
	kind := d.Byte()
	qs := d.String()
	qq := d.String()
	table := d.String()
	extra := d.String()
	if d.Err() != nil {
		return d.Err()
	}
	ss.srv.stats.QueriesServed.Add(1)
	var (
		run *rql.RunStats
		err error
	)
	switch kind {
	case wire.MechCollate:
		run, err = ss.conn.CollateData(qs, qq, table)
	case wire.MechAggVar:
		run, err = ss.conn.AggregateDataInVariable(qs, qq, table, extra)
	case wire.MechAggTable:
		run, err = ss.conn.AggregateDataInTable(qs, qq, table, extra)
	case wire.MechIntervals:
		run, err = ss.conn.CollateDataIntoIntervals(qs, qq, table)
	default:
		err = fmt.Errorf("server: unknown mechanism kind %d", kind)
	}
	if err != nil {
		ss.writeError(err)
		return nil
	}
	e := &wire.Enc{}
	e.Bool(true)
	wire.EncodeRunStats(e, run)
	return ss.writeFrame(wire.RespRun, e.B)
}

func (ss *session) handleObjects() error {
	objs, err := ss.conn.Objects()
	if err != nil {
		ss.writeError(err)
		return nil
	}
	e := &wire.Enc{}
	wire.EncodeObjects(e, objs)
	return ss.writeFrame(wire.RespObjs, e.B)
}

func (ss *session) handleTableStats(payload []byte) error {
	d := &wire.Dec{B: payload}
	name := d.String()
	if d.Err() != nil {
		return d.Err()
	}
	st, err := ss.conn.TableStats(name)
	if err != nil {
		ss.writeError(err)
		return nil
	}
	e := &wire.Enc{}
	e.Uvarint(uint64(st.Rows))
	e.Varint(st.DataBytes)
	e.Varint(st.IndexBytes)
	return ss.writeFrame(wire.RespTblSt, e.B)
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ss *session) writeFrame(op byte, payload []byte) error {
	ss.nc.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
	return wire.WriteFrame(ss.bw, op, payload)
}

func (ss *session) writeError(err error) {
	ss.srv.stats.Errors.Add(1)
	ss.writeFrame(wire.RespError, wire.EncodeError(err))
}

func (ss *session) flush() error {
	ss.nc.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
	return ss.bw.Flush()
}

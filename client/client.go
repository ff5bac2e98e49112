// Package client is the Go client for rqld, the RQL network server.
// Conn mirrors rql.Conn's API — Exec with streaming row callbacks,
// Query, transactions, COMMIT WITH SNAPSHOT, DeclareSnapshot, and the
// four RQL mechanisms — so code written against the in-process API runs
// unchanged against a remote server:
//
//	conn, _ := client.Dial("localhost:7427")
//	defer conn.Close()
//	conn.Exec(`CREATE TABLE logged_in (user TEXT, country TEXT)`, nil)
//	snap, _ := conn.DeclareSnapshot("day-1")
//	rows, _ := conn.Query(fmt.Sprintf(`SELECT AS OF %d * FROM logged_in`, snap))
//	stats, _ := conn.CollateData(`SELECT snap_id FROM SnapIds`, qq, "Result")
//
// A Conn carries one request at a time and is safe for use from one
// goroutine; open one Conn per goroutine, exactly like rql.Conn.
package client

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/wire"
)

// RemoteError is a server-reported statement error.
type RemoteError = wire.RemoteError

// ErrVersionMismatch is Dial's and OpenCluster's error when the server
// is a build of another protocol version; match it with errors.Is.
var ErrVersionMismatch = wire.ErrVersionMismatch

// ServerStats is the server's STATS reply: every metric the server
// reports, self-described, plus the request-latency histogram pulled
// out in native units for callers that compute percentiles from it.
type ServerStats struct {
	Metrics []obs.Metric

	// LatencyBuckets are the per-bucket request counts (the last is
	// +Inf) and LatencyBounds the len-1 upper bounds the server used.
	LatencyBuckets []uint64
	LatencyBounds  []time.Duration
}

// Value returns the named counter or gauge (0 when the server does not
// report it). Labelled series use their dotted key, e.g.
// "view_rows.myview".
func (s ServerStats) Value(key string) uint64 {
	m, _ := obs.Find(s.Metrics, key)
	return m.Value
}

// Span is one recorded trace span as reported by the server.
type Span = obs.Span

// SlowEntry is one slow-query log entry as reported by the server.
type SlowEntry = obs.SlowEntry

// ErrConnClosed is returned after Close.
var ErrConnClosed = errors.New("client: connection closed")

// ErrConnBroken is wrapped by every error a Conn returns because the
// connection itself failed — an I/O error, a reply frame the protocol
// does not allow there, or a reply body that does not decode. The Conn
// is unusable from then on. A *RemoteError or a row-callback error, by
// contrast, is a verdict on one statement and leaves the Conn usable.
var ErrConnBroken = errors.New("client: connection broken")

// Conn is a connection to an rqld server. It mirrors rql.Conn; it is
// not safe for concurrent use — open one Conn per goroutine.
type Conn struct {
	mu sync.Mutex
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// RequestTimeout, when positive, bounds each request round-trip on
	// the client side (the server enforces its own deadline regardless).
	RequestTimeout time.Duration

	fatal        error // sticky: ErrConnClosed, or the first failure wrapping ErrConnBroken
	streaming    bool  // a view subscription consumed the connection
	lastStats    rql.ExecStats
	lastSnapshot uint64
	lastTrace    uint64
	inTx         bool

	// trace, when non-zero, pins the trace context sent with every
	// request (SetTraceContext); zero means a fresh trace id is minted
	// per request. traceSampled only applies to a pinned trace.
	trace        uint64
	traceSampled bool
}

// traceSeq mints client-side trace ids. The high bit is set so a
// client-minted id can never collide with a server-local span id, which
// counts up from zero. The counter starts at a random offset so ids
// from different client processes don't collide on a shared server's
// span ring (a zero start would make every process mint the same
// sequence).
var traceSeq atomic.Uint64

func init() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		traceSeq.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		traceSeq.Store(uint64(time.Now().UnixNano()))
	}
}

// NewTraceID mints a process-unique trace id suitable for
// SetTraceContext. Ids have the high bit set so they are disjoint from
// the server's locally rooted trace ids.
func NewTraceID() uint64 { return traceSeq.Add(1) | 1<<63 }

// errStreaming rejects requests on a connection consumed by a view
// subscription.
var errStreaming = errors.New("client: connection is consumed by a view subscription")

// Dial connects to an rqld server.
func Dial(addr string) (*Conn, error) { return DialTimeout(addr, 10*time.Second) }

// DialTimeout connects with a bound on connection establishment and the
// protocol handshake.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc.SetDeadline(time.Now().Add(timeout))
	c, err := NewConn(nc)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// NewConn runs the protocol handshake over an established connection —
// a dialed socket, or one end of a net.Pipe whose other end a
// server.ServeConn session serves. It owns nc from then on and closes
// it when the handshake fails.
func NewConn(nc net.Conn) (*Conn, error) {
	c := &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
	if err := wire.ClientHello(c.br, c.bw); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal == nil {
		c.fatal = ErrConnClosed
	}
	return c.nc.Close()
}

// fail marks the connection unusable and returns the sticky error: the
// first failure, wrapped so that errors.Is finds both ErrConnBroken and
// the cause.
func (c *Conn) fail(err error) error {
	if c.fatal == nil {
		c.fatal = fmt.Errorf("%w: %w", ErrConnBroken, err)
		c.nc.Close()
	}
	return c.fatal
}

// SetTraceContext pins the distributed trace context sent with every
// subsequent request on this connection: the server roots its spans in
// trace instead of minting a local trace id, so legs issued on several
// connections stitch into one tree. sampled=false tells the server to
// record no spans for these requests at all. A zero trace restores the
// default (a fresh NewTraceID per request, sampled).
func (c *Conn) SetTraceContext(trace uint64, sampled bool) {
	c.mu.Lock()
	c.trace, c.traceSampled = trace, sampled
	c.mu.Unlock()
}

// tracePrefix prepends the trace context to a request payload. Callers
// hold c.mu.
func (c *Conn) tracePrefix(payload []byte) []byte {
	tc := wire.TraceContext{Trace: c.trace, Sampled: c.traceSampled}
	if tc.Trace == 0 {
		tc = wire.TraceContext{Trace: NewTraceID(), Sampled: true}
	}
	if tc.Sampled {
		// Remember the context we sent so LastTrace works for every
		// request kind — mechanism runs answer with RespRun, which has
		// no trace echo.
		c.lastTrace = tc.Trace
	}
	e := &wire.Enc{}
	wire.EncodeTraceContext(e, tc)
	return append(e.B, payload...)
}

// send writes one request frame, arming the RequestTimeout deadline.
// Callers hold c.mu for the whole round-trip (one request at a time)
// and call endRequest once the reply is in.
func (c *Conn) send(op byte, payload []byte) error {
	if c.fatal != nil {
		return c.fatal
	}
	if c.streaming {
		return errStreaming
	}
	if c.RequestTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.RequestTimeout))
	}
	if err := wire.WriteFrame(c.bw, op, c.tracePrefix(payload)); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// endRequest clears the deadline send armed.
func (c *Conn) endRequest() {
	if c.RequestTimeout > 0 {
		c.nc.SetDeadline(time.Time{})
	}
}

// unexpected poisons the connection over a reply frame the protocol
// does not allow at this point: the stream position is no longer
// trustworthy.
func (c *Conn) unexpected(op byte) error {
	return c.fail(fmt.Errorf("client: unexpected response frame %#x", op))
}

// call runs one single-reply request and owns its whole contract: the
// reply wire.Requests declares for req is handed to decode (nil for an
// empty body); RespError comes back as a *RemoteError with the
// connection still usable; any other frame, a body decode cannot finish
// or an I/O error poisons the connection (ErrConnBroken).
func (c *Conn) call(req byte, payload []byte, decode func(*wire.Dec)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(req, payload); err != nil {
		return err
	}
	defer c.endRequest()
	op, body, err := wire.ReadFrame(c.br)
	if err != nil {
		return c.fail(err)
	}
	want, _ := wire.RequestFor(req)
	switch op {
	case want.Reply:
		d := &wire.Dec{B: body}
		if decode != nil {
			decode(d)
		}
		if d.Err() != nil {
			return c.fail(d.Err())
		}
		return nil
	case wire.RespError:
		return wire.DecodeError(body)
	default:
		return c.unexpected(op)
	}
}

// Exec executes one or more semicolon-separated statements, streaming
// result rows to cb. Unlike the in-process API, a callback error does
// not abort the statement server-side: the remaining rows are drained
// and the error is returned afterwards.
func (c *Conn) Exec(sqlText string, cb rql.RowCallback, params ...rql.Value) error {
	return c.exec(sqlText, 0, cb, params)
}

// ExecAsOf executes statements with SELECTs bound to the given snapshot.
func (c *Conn) ExecAsOf(sqlText string, snap uint64, cb rql.RowCallback, params ...rql.Value) error {
	return c.exec(sqlText, snap, cb, params)
}

// exec is the one streaming request: header and batch frames until
// RespDone (statistics) or RespError ends the statement.
func (c *Conn) exec(sqlText string, asOf uint64, cb rql.RowCallback, params []rql.Value) error {
	e := &wire.Enc{}
	e.Uvarint(asOf)
	e.String(sqlText)
	e.Row(params)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(wire.ReqExec, e.B); err != nil {
		return err
	}
	defer c.endRequest()
	var (
		cols  []string
		cbErr error
	)
	for {
		op, body, err := wire.ReadFrame(c.br)
		if err != nil {
			return c.fail(err)
		}
		d := &wire.Dec{B: body}
		switch op {
		case wire.RespHeader:
			n := d.Len()
			cols = make([]string, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				cols = append(cols, d.String())
			}
		case wire.RespBatch:
			for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
				row := d.Row()
				if d.Err() == nil && cb != nil && cbErr == nil {
					cbErr = cb(cols, row)
				}
			}
		case wire.RespDone:
			wire.DecodeCost(d, &c.lastStats)
			c.lastSnapshot = d.Uvarint()
			c.inTx = d.Bool()
			c.lastTrace = d.Uvarint()
			if d.Err() == nil {
				return cbErr
			}
		case wire.RespError:
			return wire.DecodeError(body)
		default:
			return c.unexpected(op)
		}
		if d.Err() != nil {
			return c.fail(d.Err())
		}
	}
}

// collect returns a row callback that materializes a result into rows:
// the column names once, a copy of every row (a callback's slices are
// only valid during the call).
func collect(rows *rql.Rows) rql.RowCallback {
	return func(cols []string, row []rql.Value) error {
		if rows.Cols == nil {
			rows.Cols = append([]string(nil), cols...)
		}
		cp := make([]rql.Value, len(row))
		copy(cp, row)
		rows.Rows = append(rows.Rows, cp)
		return nil
	}
}

// Query executes a single SELECT and returns the materialized result.
func (c *Conn) Query(sqlText string, params ...rql.Value) (*rql.Rows, error) {
	rows := &rql.Rows{}
	if err := c.Exec(sqlText, collect(rows), params...); err != nil {
		return nil, err
	}
	return rows, nil
}

// LastStats returns the statistics of the most recent statement.
func (c *Conn) LastStats() rql.ExecStats { return c.lastStats }

// LastSnapshot returns the snapshot id declared by the most recent
// COMMIT WITH SNAPSHOT on this connection.
func (c *Conn) LastSnapshot() uint64 { return c.lastSnapshot }

// InTx reports whether the server session has an explicit transaction
// open.
func (c *Conn) InTx() bool { return c.inTx }

// Begin opens an explicit transaction on the server session.
func (c *Conn) Begin() error { return c.Exec("BEGIN", nil) }

// Commit commits the explicit transaction.
func (c *Conn) Commit() error { return c.Exec("COMMIT", nil) }

// CommitWithSnapshot commits the explicit transaction and declares a
// snapshot that includes it, returning the new snapshot id.
func (c *Conn) CommitWithSnapshot() (uint64, error) {
	if err := c.Exec("COMMIT WITH SNAPSHOT", nil); err != nil {
		return 0, err
	}
	return c.lastSnapshot, nil
}

// Rollback aborts the explicit transaction.
func (c *Conn) Rollback() error { return c.Exec("ROLLBACK", nil) }

// DeclareSnapshot commits the session's open transaction WITH SNAPSHOT
// (an empty one when none is open) and records the snapshot in SnapIds
// with the current time and the given label.
func (c *Conn) DeclareSnapshot(label string) (id uint64, err error) {
	e := &wire.Enc{}
	e.String(label)
	if err = c.call(wire.ReqSnap, e.B, func(d *wire.Dec) { id = d.Uvarint() }); err == nil {
		c.lastSnapshot, c.inTx = id, false
	}
	return id, err
}

// EnsureSnapIds creates the SnapIds table if needed (same DDL as the
// in-process API).
func (c *Conn) EnsureSnapIds() error {
	return c.Exec(`CREATE TEMP TABLE IF NOT EXISTS SnapIds (
		snap_id INTEGER PRIMARY KEY,
		snap_ts TEXT,
		label   TEXT
	)`, nil)
}

// RecordSnapshot registers an already-declared snapshot id in SnapIds.
func (c *Conn) RecordSnapshot(snapID uint64, ts time.Time, label string) error {
	return c.Exec(`INSERT INTO SnapIds (snap_id, snap_ts, label) VALUES (?, ?, ?)`, nil,
		record.Int(int64(snapID)),
		record.Text(ts.UTC().Format("2006-01-02 15:04:05")),
		record.Text(label),
	)
}

// CollateData collects the records Qq returns on every snapshot of the
// Qs set into table T, server-side.
func (c *Conn) CollateData(qs, qq, table string) (*rql.RunStats, error) {
	return c.mech(wire.MechCollate, qs, qq, table, "")
}

// AggregateDataInVariable applies an aggregate function to the single
// value Qq returns per snapshot, storing the final value in T.
func (c *Conn) AggregateDataInVariable(qs, qq, table, aggFunc string) (*rql.RunStats, error) {
	return c.mech(wire.MechAggVar, qs, qq, table, aggFunc)
}

// AggregateDataInTable aggregates Qq's records across snapshots in
// table T with the per-column functions of pairs.
func (c *Conn) AggregateDataInTable(qs, qq, table, pairs string) (*rql.RunStats, error) {
	return c.mech(wire.MechAggTable, qs, qq, table, pairs)
}

// CollateDataIntoIntervals collects Qq's records into lifetime
// intervals in table T.
func (c *Conn) CollateDataIntoIntervals(qs, qq, table string) (*rql.RunStats, error) {
	return c.mech(wire.MechIntervals, qs, qq, table, "")
}

func (c *Conn) mech(kind byte, qs, qq, table, extra string) (*rql.RunStats, error) {
	e := &wire.Enc{}
	e.Byte(kind)
	e.String(qs)
	e.String(qq)
	e.String(table)
	e.String(extra)
	return c.runStats(wire.ReqMech, e.B)
}

// LastRun returns the statistics of the most recent mechanism run on
// the server (nil if none has run yet).
func (c *Conn) LastRun() (*rql.RunStats, error) { return c.runStats(wire.ReqRun, nil) }

// runStats runs a request answered by RespRun: a presence flag, then
// the run's statistics.
func (c *Conn) runStats(req byte, payload []byte) (run *rql.RunStats, err error) {
	err = c.call(req, payload, func(d *wire.Dec) {
		if d.Bool() {
			run = wire.DecodeRunStats(d)
		}
	})
	return run, err
}

// Objects lists every table and index in both stores.
func (c *Conn) Objects() (objs []rql.ObjectInfo, err error) {
	err = c.call(wire.ReqObjs, nil, func(d *wire.Dec) { objs = wire.DecodeObjects(d) })
	return objs, err
}

// TableStats measures the named table in the current state.
func (c *Conn) TableStats(name string) (out rql.TableStats, err error) {
	e := &wire.Enc{}
	e.String(name)
	err = c.call(wire.ReqTblSt, e.B, func(d *wire.Dec) {
		out = rql.TableStats{Rows: int(d.Uvarint()), DataBytes: d.Varint(), IndexBytes: d.Varint()}
	})
	return out, err
}

// ServerStats fetches the server's STATS reply: its metric list —
// connections, queries, streamed rows, the request-latency histogram,
// and the storage/Retro/view metrics of the served database.
func (c *Conn) ServerStats() (out ServerStats, err error) {
	err = c.call(wire.ReqStats, nil, func(d *wire.Dec) { out.Metrics = wire.DecodeMetrics(d) })
	lat, _ := obs.Find(out.Metrics, "request_latency_seconds")
	out.LatencyBuckets = lat.Counts
	for _, b := range lat.Bounds {
		out.LatencyBounds = append(out.LatencyBounds, time.Duration(math.Round(b*1e9)))
	}
	return out, err
}

// Horizon reports the server's replication role and applied-snapshot
// horizon: on a primary the latest declared snapshot, on a replica the
// latest snapshot applied atomically from the primary's stream.
func (c *Conn) Horizon() (out wire.HorizonInfo, err error) {
	err = c.call(wire.ReqHorizon, nil, func(d *wire.Dec) { out = wire.DecodeHorizonInfo(d) })
	return out, err
}

// ReplStats fetches the server's replication statistics: per-replica
// ack/lag rows on a primary, stream counters on a replica.
func (c *Conn) ReplStats() (out wire.ReplStats, err error) {
	err = c.call(wire.ReqReplStats, nil, func(d *wire.Dec) { out = wire.DecodeReplStats(d) })
	return out, err
}

// TimelinePoint is one telemetry sample as reported by the server: the
// per-second rates and instantaneous gauges of one sampling tick.
type TimelinePoint = obs.Point

// Timeline fetches the server's telemetry timeline: the sampling period
// and the ring of rate/gauge points, oldest first. A zero period means
// the timeline is disabled server-side.
func (c *Conn) Timeline() (period time.Duration, points []TimelinePoint, err error) {
	err = c.call(wire.ReqTimeline, nil, func(d *wire.Dec) { period, points = wire.DecodeTimeline(d) })
	return period, points, err
}

// Ping round-trips an empty request.
func (c *Conn) Ping() error { return c.call(wire.ReqPing, nil, nil) }

// SetTracing toggles the server's process-wide span recorder.
func (c *Conn) SetTracing(on bool) error {
	cmd := wire.TraceOff
	if on {
		cmd = wire.TraceOn
	}
	_, err := c.traceRequest(cmd, 0)
	return err
}

// LastTrace returns the trace ID of the most recent statement on this
// connection (0 when the statement was not traced). Pass it to
// TraceSpans to fetch that statement's span tree.
func (c *Conn) LastTrace() uint64 { return c.lastTrace }

// TraceSpans fetches recorded spans from the server: one trace by ID,
// or the server's whole span ring for id 0.
func (c *Conn) TraceSpans(id uint64) ([]Span, error) { return c.traceRequest(wire.TraceFetch, id) }

func (c *Conn) traceRequest(cmd byte, id uint64) (spans []Span, err error) {
	e := &wire.Enc{}
	e.Byte(cmd)
	e.Uvarint(id)
	err = c.call(wire.ReqTrace, e.B, func(d *wire.Dec) { spans = wire.DecodeSpans(d) })
	return spans, err
}

// SlowQueries fetches the server's slow-query log along with the active
// threshold (0 = the log is disabled). Given a threshold, it first sets
// the server's to it (0 turns the log off).
func (c *Conn) SlowQueries(set ...time.Duration) (threshold time.Duration, entries []SlowEntry, err error) {
	e := &wire.Enc{}
	if len(set) > 0 {
		e.Duration(set[0])
	}
	err = c.call(wire.ReqSlow, e.B, func(d *wire.Dec) { threshold, entries = wire.DecodeSlowEntries(d) })
	return threshold, entries, err
}

// ResetStats zeroes the server's cumulative counters: the server's own
// request counters and latency histogram, plus the storage and
// snapshot-system counters and the last mechanism-run statistics.
func (c *Conn) ResetStats() error { return c.call(wire.ReqReset, nil, nil) }

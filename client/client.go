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

// ErrConnClosed is returned after Close or a fatal protocol failure.
var ErrConnClosed = errors.New("client: connection closed")

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

	fatal        error // sticky: protocol or I/O failure
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
	c := &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
	nc.SetDeadline(time.Now().Add(timeout))
	if err := wire.ClientHello(c.br, c.bw); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
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

// fail marks the connection unusable and returns err.
func (c *Conn) fail(err error) error {
	if c.fatal == nil {
		c.fatal = fmt.Errorf("client: connection broken: %w", err)
		c.nc.Close()
	}
	return err
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

// request sends one frame and hands response frames to handle until it
// returns done. The connection lock is held for the whole round-trip:
// one request at a time.
func (c *Conn) request(op byte, payload []byte, handle func(op byte, payload []byte) (done bool, err error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return c.fatal
	}
	if c.streaming {
		return errStreaming
	}
	if c.RequestTimeout > 0 {
		c.nc.SetDeadline(time.Now().Add(c.RequestTimeout))
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(c.bw, op, c.tracePrefix(payload)); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	for {
		rop, rpayload, err := wire.ReadFrame(c.br)
		if err != nil {
			return c.fail(err)
		}
		done, err := handle(rop, rpayload)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// errUnexpected makes a protocol-violation error; the caller wraps it
// through fail since the stream position is no longer trustworthy.
func (c *Conn) unexpected(op byte) error {
	return c.fail(fmt.Errorf("client: unexpected response frame %#x", op))
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

func (c *Conn) exec(sqlText string, asOf uint64, cb rql.RowCallback, params []rql.Value) error {
	e := &wire.Enc{}
	e.Uvarint(asOf)
	e.String(sqlText)
	e.Row(params)

	var (
		cols   []string
		cbErr  error
		result error
	)
	err := c.request(wire.ReqExec, e.B, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespHeader:
			d := &wire.Dec{B: payload}
			n := d.Uvarint()
			cols = make([]string, 0, n)
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				cols = append(cols, d.String())
			}
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return false, nil
		case wire.RespBatch:
			d := &wire.Dec{B: payload}
			n := d.Uvarint()
			for i := uint64(0); i < n; i++ {
				row := d.Row()
				if d.Err() != nil {
					return true, c.fail(d.Err())
				}
				if cb != nil && cbErr == nil {
					cbErr = cb(cols, row)
				}
			}
			return false, nil
		case wire.RespDone:
			d := &wire.Dec{B: payload}
			c.lastStats = wire.DecodeExecStats(d)
			c.lastSnapshot = d.Uvarint()
			c.inTx = d.Bool()
			c.lastTrace = d.Uvarint()
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			result = wire.DecodeError(payload)
			return true, nil
		default:
			return true, c.unexpected(op)
		}
	})
	if err != nil {
		return err
	}
	if result != nil {
		return result
	}
	return cbErr
}

// Query executes a single SELECT and returns the materialized result.
func (c *Conn) Query(sqlText string, params ...rql.Value) (*rql.Rows, error) {
	rows := &rql.Rows{}
	err := c.Exec(sqlText, func(cols []string, row []rql.Value) error {
		if rows.Cols == nil {
			rows.Cols = append([]string(nil), cols...)
		}
		cp := make([]rql.Value, len(row))
		copy(cp, row)
		rows.Rows = append(rows.Rows, cp)
		return nil
	}, params...)
	if err != nil {
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

// DeclareSnapshot declares a snapshot of the current state and records
// it in the SnapIds table with the current time and the given label.
func (c *Conn) DeclareSnapshot(label string) (uint64, error) {
	e := &wire.Enc{}
	e.String(label)
	var id uint64
	err := c.request(wire.ReqSnap, e.B, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespSnapID:
			d := &wire.Dec{B: payload}
			id = d.Uvarint()
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
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
	var run *rql.RunStats
	err := c.request(wire.ReqMech, e.B, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespRun:
			d := &wire.Dec{B: payload}
			if d.Bool() {
				run = wire.DecodeRunStats(d)
			}
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return run, err
}

// LastRun returns the statistics of the most recent mechanism run on
// the server (nil if none has run yet).
func (c *Conn) LastRun() (*rql.RunStats, error) {
	var run *rql.RunStats
	err := c.request(wire.ReqRun, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespRun:
			d := &wire.Dec{B: payload}
			if d.Bool() {
				run = wire.DecodeRunStats(d)
			}
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return run, err
}

// Objects lists every table and index in both stores.
func (c *Conn) Objects() ([]rql.ObjectInfo, error) {
	var out []rql.ObjectInfo
	err := c.request(wire.ReqObjs, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespObjs:
			d := &wire.Dec{B: payload}
			objs := wire.DecodeObjects(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			out = make([]rql.ObjectInfo, len(objs))
			for i, o := range objs {
				out[i] = rql.ObjectInfo{Kind: o.Kind, Name: o.Name, Table: o.Table, Temp: o.Temp}
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return out, err
}

// TableStats measures the named table in the current state.
func (c *Conn) TableStats(name string) (rql.TableStats, error) {
	e := &wire.Enc{}
	e.String(name)
	var out rql.TableStats
	err := c.request(wire.ReqTblSt, e.B, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespTblSt:
			d := &wire.Dec{B: payload}
			out.Rows = int(d.Uvarint())
			out.DataBytes = d.Varint()
			out.IndexBytes = d.Varint()
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return out, err
}

// ServerStats fetches the server's STATS reply: its metric list —
// connections, queries, streamed rows, the request-latency histogram,
// and the storage/Retro/view metrics of the served database.
func (c *Conn) ServerStats() (ServerStats, error) {
	var out ServerStats
	err := c.request(wire.ReqStats, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespStats:
			d := &wire.Dec{B: payload}
			out.Metrics = wire.DecodeMetrics(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			lat, _ := obs.Find(out.Metrics, "request_latency_seconds")
			out.LatencyBuckets = lat.Counts
			for _, b := range lat.Bounds {
				out.LatencyBounds = append(out.LatencyBounds, time.Duration(math.Round(b*1e9)))
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return out, err
}

// Horizon reports the server's replication role and applied-snapshot
// horizon: on a primary the latest declared snapshot, on a replica the
// latest snapshot applied atomically from the primary's stream.
func (c *Conn) Horizon() (wire.HorizonInfo, error) {
	var out wire.HorizonInfo
	err := c.request(wire.ReqHorizon, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespHorizon:
			d := &wire.Dec{B: payload}
			out = wire.DecodeHorizonInfo(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return out, err
}

// ReplStats fetches the server's replication statistics: per-replica
// ack/lag rows on a primary, stream counters on a replica.
func (c *Conn) ReplStats() (wire.ReplStats, error) {
	var out wire.ReplStats
	err := c.request(wire.ReqReplStats, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespReplStats:
			d := &wire.Dec{B: payload}
			out = wire.DecodeReplStats(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return out, err
}

// TimelinePoint is one telemetry sample as reported by the server: the
// per-second rates and instantaneous gauges of one sampling tick.
type TimelinePoint = obs.Point

// Timeline fetches the server's telemetry timeline: the sampling period
// and the ring of rate/gauge points, oldest first. A zero period means
// the timeline is disabled server-side.
func (c *Conn) Timeline() (time.Duration, []TimelinePoint, error) {
	var (
		period time.Duration
		points []TimelinePoint
	)
	err := c.request(wire.ReqTimeline, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespTimeline:
			d := &wire.Dec{B: payload}
			period, points = wire.DecodeTimeline(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return period, points, err
}

// Ping round-trips an empty request.
func (c *Conn) Ping() error {
	return c.request(wire.ReqPing, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespPong:
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
}

// pongRequest round-trips a request whose only success reply is RespPong.
func (c *Conn) pongRequest(reqOp byte, payload []byte) error {
	return c.request(reqOp, payload, func(op byte, p []byte) (bool, error) {
		switch op {
		case wire.RespPong:
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(p)
		default:
			return true, c.unexpected(op)
		}
	})
}

// SetTracing toggles the server's process-wide span recorder.
func (c *Conn) SetTracing(on bool) error {
	e := &wire.Enc{}
	if on {
		e.Byte(wire.TraceOn)
	} else {
		e.Byte(wire.TraceOff)
	}
	e.Uvarint(0)
	return c.pongRequest(wire.ReqTrace, e.B)
}

// LastTrace returns the trace ID of the most recent statement on this
// connection (0 when the statement was not traced). Pass it to
// TraceSpans to fetch that statement's span tree.
func (c *Conn) LastTrace() uint64 { return c.lastTrace }

// TraceSpans fetches recorded spans from the server: one trace by ID,
// or the server's whole span ring for id 0.
func (c *Conn) TraceSpans(id uint64) ([]Span, error) {
	e := &wire.Enc{}
	e.Byte(wire.TraceFetch)
	e.Uvarint(id)
	var spans []Span
	err := c.request(wire.ReqTrace, e.B, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespTrace:
			d := &wire.Dec{B: payload}
			spans = wire.DecodeSpans(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return spans, err
}

// SlowQueries fetches the server's slow-query log along with the active
// threshold (0 = the log is disabled).
func (c *Conn) SlowQueries() (time.Duration, []SlowEntry, error) {
	var (
		threshold time.Duration
		entries   []SlowEntry
	)
	err := c.request(wire.ReqSlow, nil, func(op byte, payload []byte) (bool, error) {
		switch op {
		case wire.RespSlow:
			d := &wire.Dec{B: payload}
			threshold, entries = wire.DecodeSlowEntries(d)
			if d.Err() != nil {
				return true, c.fail(d.Err())
			}
			return true, nil
		case wire.RespError:
			return true, wire.DecodeError(payload)
		default:
			return true, c.unexpected(op)
		}
	})
	return threshold, entries, err
}

// ResetStats zeroes the server's cumulative counters: the server's own
// request counters and latency histogram, plus the storage and
// snapshot-system counters and the last mechanism-run statistics.
func (c *Conn) ResetStats() error {
	return c.pongRequest(wire.ReqReset, nil)
}

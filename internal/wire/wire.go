// Package wire defines the rqld client/server protocol: length-prefixed
// binary frames over a byte stream (TCP), stdlib only. Each frame is
//
//	| u32 payload length (big endian) | u8 opcode | payload |
//
// Payloads are built from three primitives — unsigned varints, varint
// length-prefixed strings, and rows in internal/record's self-describing
// record encoding — so the value marshalling on the wire is byte-for-byte
// the storage engine's own row codec.
//
// A connection carries one request at a time (no pipelining): the client
// writes a request frame and reads response frames until a terminal
// RespDone / RespError / single-frame reply arrives. Query results
// stream: RespRowHeader announces the column names, RespRowBatch frames
// carry groups of rows, and RespDone ends the statement with its
// execution statistics.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"time"

	"rql/internal/core"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/sql"
)

// ProtocolVersion is the one protocol version this tree speaks, bumped
// on any frame-format change. It is also the floor: the only peers are
// built from this repository (client, repl.Replica, rqlshell, rqlbench,
// benchmark/), so a HELLO below it is refused with an error naming it,
// and a HELLO above it is answered with it. DESIGN.md has the frame
// table. v14: the statement and iteration cost records lose their
// queue_wait field.
const ProtocolVersion = 14

// Magic opens the client hello.
const Magic = "RQL1"

// MaxFrame caps a frame payload (64 MiB), bounding per-request memory.
const MaxFrame = 64 << 20

// Request opcodes (client -> server).
const (
	ReqHello byte = 0x01 // magic, version
	ReqExec  byte = 0x02 // asOf, sql, params row
	ReqSnap  byte = 0x03 // label — DeclareSnapshot
	ReqMech  byte = 0x04 // kind, qs, qq, table, extra
	ReqStats byte = 0x05 // —
	ReqObjs  byte = 0x06 // —
	ReqRun   byte = 0x07 // — last mechanism run stats
	ReqTblSt byte = 0x08 // table name — TableStats
	ReqPing  byte = 0x09 // —
	ReqTrace byte = 0x0A // cmd byte (TraceOff/TraceOn/TraceFetch), trace id
	ReqSlow  byte = 0x0B // [threshold] — slow-query log; a threshold sets it first
	ReqReset byte = 0x0C // — reset server/storage/retro counters

	// Replication / cluster requests.
	ReqHorizon   byte = 0x0D // — role, applied snapshot horizon, LSN
	ReqReplSub   byte = 0x0E // replica id, last applied snapshot — open stream
	ReqReplStats byte = 0x0F // — replication stats (role-dependent)
	ReqReplAck   byte = 0x10 // applied snapshot, LSN, bytes — sent on the stream

	// Retro-view requests.
	ReqViews   byte = 0x11 // — list materialized retro views
	ReqViewSub byte = 0x12 // view name, last seen snapshot — open subscription

	// Telemetry request.
	ReqTimeline byte = 0x13 // — telemetry timeline ring
)

// ReqTrace command bytes.
const (
	TraceOff   byte = 0 // disable tracing
	TraceOn    byte = 1 // enable tracing
	TraceFetch byte = 2 // fetch spans (trace id 0 = whole ring)
)

// Response opcodes (server -> client).
const (
	RespHello  byte = 0x81 // version, server banner
	RespHeader byte = 0x82 // column names
	RespBatch  byte = 0x83 // row batch
	RespDone   byte = 0x84 // exec stats, last snapshot, in-tx flag
	RespError  byte = 0x85 // message
	RespSnapID byte = 0x86 // snapshot id
	RespRun    byte = 0x87 // run stats (or absent)
	RespStats  byte = 0x88 // metric list
	RespObjs   byte = 0x89 // object list
	RespTblSt  byte = 0x8A // table stats
	RespPong   byte = 0x8B // — (also acks ReqReset)
	RespTrace  byte = 0x8C // span list (empty for TraceOn/TraceOff)
	RespSlow   byte = 0x8D // slow-query entries

	// Replication / cluster responses.
	RespHorizon   byte = 0x8E // HorizonInfo
	RespReplBoot  byte = 0x8F // bootstrap chunk (kind byte + body)
	RespReplDelta byte = 0x90 // one replicated commit (possibly chunked)
	RespReplStats byte = 0x92 // ReplStats

	// Retro-view responses.
	RespViews       byte = 0x93 // ViewInfo list
	RespViewBatch   byte = 0x94 // one materialized refresh pushed on a subscription
	RespReplViewDDL byte = 0x95 // one replicated view CREATE/DROP event

	// Telemetry response.
	RespTimeline byte = 0x96 // sampling period + timeline points
)

// Request declares one request kind. Requests is the only place a
// request is named: the server roots each request's span under Name and
// refuses opcodes without a row; the client takes the reply it must
// expect from Reply.
type Request struct {
	Op   byte
	Name string // root-span name
	// Reply is the one frame that ends the request successfully
	// (RespError is the other way any request may end). Zero marks the
	// kinds that are not one request, one reply: Exec streams header and
	// batch frames before RespDone, the two subscriptions take the
	// connection over, and ReplAck rides such a stream unanswered.
	Reply byte
}

// Requests has one row per Req* opcode.
var Requests = []Request{
	{ReqHello, "server.hello", RespHello},
	{ReqExec, "server.exec", 0},
	{ReqSnap, "server.snapshot", RespSnapID},
	{ReqMech, "server.mechanism", RespRun},
	{ReqStats, "server.stats", RespStats},
	{ReqObjs, "server.objects", RespObjs},
	{ReqRun, "server.run", RespRun},
	{ReqTblSt, "server.table_stats", RespTblSt},
	{ReqPing, "server.ping", RespPong},
	{ReqTrace, "server.trace", RespTrace},
	{ReqSlow, "server.slow", RespSlow},
	{ReqReset, "server.reset", RespPong},
	{ReqHorizon, "server.horizon", RespHorizon},
	{ReqReplSub, "server.repl_subscribe", 0},
	{ReqReplStats, "server.repl_stats", RespReplStats},
	{ReqReplAck, "server.repl_ack", 0},
	{ReqViews, "server.views", RespViews},
	{ReqViewSub, "server.view_subscribe", 0},
	{ReqTimeline, "server.timeline", RespTimeline},
}

// RequestFor returns op's row of Requests.
func RequestFor(op byte) (Request, bool) {
	for _, r := range Requests {
		if r.Op == op {
			return r, true
		}
	}
	return Request{}, false
}

// Mechanism kinds carried by ReqMech.
const (
	MechCollate byte = iota
	MechAggVar
	MechAggTable
	MechIntervals
)

// Errors returned by frame and payload decoding.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrBadMagic      = errors.New("wire: bad protocol magic")
	// ErrVersionMismatch is ClientHello's error when the two ends are
	// builds of different protocol versions: retrying cannot succeed.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
)

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the most ReadFrame reserves on the word of a 5-byte
// header; a larger payload grows as its bytes actually arrive.
const frameChunk = 1 << 20

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (op byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	n := int(size)
	payload = make([]byte, min(n, frameChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, payload[filled:]); err != nil {
			return 0, nil, err
		}
		filled = len(payload)
		if filled == n {
			return hdr[4], payload, nil
		}
		payload = append(payload, make([]byte, min(n-filled, filled))...)
	}
}

// ClientHello runs the dialing side of the handshake: send the HELLO,
// read the reply, and insist the peer speaks exactly ProtocolVersion. A
// peer of another version — one that answers with its own number, or a
// server refusing this HELLO with RespError (the version is all a
// well-formed HELLO can be refused for; server's
// TestCrossVersionHandshake holds session.handshake to that) — is an
// ErrVersionMismatch; a refusal wraps the server's RemoteError too.
func ClientHello(br *bufio.Reader, bw *bufio.Writer) error {
	e := &Enc{}
	e.String(Magic)
	e.Uvarint(ProtocolVersion)
	if err := WriteFrame(bw, ReqHello, e.B); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	op, payload, err := ReadFrame(br)
	if err != nil {
		return err
	}
	if op == RespError {
		return fmt.Errorf("%w: v%d HELLO refused: %w", ErrVersionMismatch, ProtocolVersion, DecodeError(payload))
	}
	if op != RespHello {
		return fmt.Errorf("wire: unexpected handshake reply %#x", op)
	}
	d := &Dec{B: payload}
	v := d.Uvarint()
	if d.Err() != nil {
		return fmt.Errorf("wire: bad handshake reply: %w", d.Err())
	}
	if v != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks v%d, this build speaks v%d", ErrVersionMismatch, v, ProtocolVersion)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

// Enc accumulates a frame payload.
type Enc struct{ B []byte }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

// Varint appends a signed varint.
func (e *Enc) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Byte appends one byte.
func (e *Enc) Byte(b byte) { e.B = append(e.B, b) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(b bool) {
	if b {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// String appends a varint length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Row appends a varint length-prefixed record-encoded row.
func (e *Enc) Row(vals []record.Value) {
	enc := record.EncodeRow(nil, vals)
	e.Uvarint(uint64(len(enc)))
	e.B = append(e.B, enc...)
}

// Duration appends a duration as varint nanoseconds.
func (e *Enc) Duration(d time.Duration) { e.Varint(int64(d)) }

// Float64 appends an IEEE 754 double as 8 fixed big-endian bytes.
func (e *Enc) Float64(v float64) {
	e.B = binary.BigEndian.AppendUint64(e.B, math.Float64bits(v))
}

// Dec consumes a frame payload. The first decode error sticks; check
// Err once after the reads.
type Dec struct {
	B   []byte
	err error
}

// Err returns the first decoding error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.B)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.B = d.B[n:]
	return v
}

// Len reads a list's element count and fails the decode when it exceeds
// the bytes remaining: every encoded element is at least one byte, so a
// larger count cannot be honest, and the caller may size its slice from
// the result without trusting the peer.
func (d *Dec) Len() int {
	n := d.Uvarint()
	if n > uint64(len(d.B)) {
		d.fail()
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.B) < 1 {
		d.fail()
		return 0
	}
	b := d.B[0]
	d.B = d.B[1:]
	return b
}

// Bool reads a one-byte boolean.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// String reads a varint length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.B)) < n {
		d.fail()
		return ""
	}
	s := string(d.B[:n])
	d.B = d.B[n:]
	return s
}

// Row reads a varint length-prefixed record-encoded row.
func (d *Dec) Row() []record.Value {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.B)) < n {
		d.fail()
		return nil
	}
	vals, err := record.DecodeRow(d.B[:n])
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		return nil
	}
	d.B = d.B[n:]
	return vals
}

// Duration reads a varint-nanosecond duration.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Varint()) }

// Float64 reads an 8-byte big-endian IEEE 754 double.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.B) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.B[:8]))
	d.B = d.B[8:]
	return v
}

// ---------------------------------------------------------------------------
// Composite message bodies shared by client and server
// ---------------------------------------------------------------------------

// TraceContext is the caller's distributed-trace identity. Every
// post-handshake request payload opens with this prefix: the server
// roots its per-request span inside Trace (instead of minting a fresh
// local trace), so the primary-write and replica-read legs of one
// logical cluster query stitch into a single trace. Trace == 0 means
// "no caller trace": the server roots a local one; Sampled == false
// with a non-zero Trace means "record no server span for this request".
type TraceContext struct {
	Trace   uint64
	Sampled bool
}

// EncodeTraceContext appends the request prefix.
func EncodeTraceContext(e *Enc, tc TraceContext) {
	e.Uvarint(tc.Trace)
	e.Bool(tc.Sampled)
}

// DecodeTraceContext reads the request prefix.
func DecodeTraceContext(d *Dec) TraceContext {
	return TraceContext{Trace: d.Uvarint(), Sampled: d.Bool()}
}

// EncodeMetrics appends a RespStats body: the metric list as
// self-describing (name, kind, label, value | bounds+counts+sum)
// entries, so a metric the server gains needs no codec change. Help
// text stays with the declaring process.
func EncodeMetrics(e *Enc, ms []obs.Metric) {
	e.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.String(m.Name)
		e.Byte(byte(m.Kind))
		e.String(m.Label)
		e.String(m.LabelValue)
		if m.Kind != obs.KindHistogram {
			e.Uvarint(m.Value)
			continue
		}
		e.Uvarint(uint64(len(m.Bounds)))
		for _, b := range m.Bounds {
			e.Float64(b)
		}
		for _, c := range m.Counts {
			e.Uvarint(c)
		}
		e.Float64(m.Sum)
	}
}

// DecodeMetrics reads a RespStats body.
func DecodeMetrics(d *Dec) []obs.Metric {
	n := d.Len()
	out := make([]obs.Metric, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		m := obs.Metric{Name: d.String(), Kind: obs.Kind(d.Byte()), Label: d.String(), LabelValue: d.String()}
		if m.Kind != obs.KindHistogram {
			m.Value = d.Uvarint()
		} else {
			nb := d.Len()
			m.Bounds = make([]float64, nb)
			for j := range m.Bounds {
				m.Bounds[j] = d.Float64()
			}
			m.Counts = make([]uint64, nb+1)
			for j := range m.Counts {
				m.Counts[j] = d.Uvarint()
			}
			m.Sum = d.Float64()
		}
		out = append(out, m)
	}
	return out
}

func encodeNamedValues(e *Enc, vals map[string]float64) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, k := range names {
		e.String(k)
		e.Float64(vals[k])
	}
}

func decodeNamedValues(d *Dec) map[string]float64 {
	n := d.Len()
	out := make(map[string]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		out[k] = d.Float64()
	}
	return out
}

// EncodeTimeline appends a RespTimeline body: the sampling period and
// the retained points, oldest first. Names ride on every point, so a
// client renders whatever metrics the server samples.
func EncodeTimeline(e *Enc, period time.Duration, points []obs.Point) {
	e.Duration(period)
	e.Uvarint(uint64(len(points)))
	for _, p := range points {
		e.Varint(p.When.UnixNano())
		e.Duration(p.Interval)
		encodeNamedValues(e, p.Rates)
		encodeNamedValues(e, p.Gauges)
	}
}

// DecodeTimeline reads a RespTimeline body.
func DecodeTimeline(d *Dec) (period time.Duration, points []obs.Point) {
	period = d.Duration()
	n := d.Len()
	points = make([]obs.Point, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		points = append(points, obs.Point{
			When:     time.Unix(0, d.Varint()),
			Interval: d.Duration(),
			Rates:    decodeNamedValues(d),
			Gauges:   decodeNamedValues(d),
		})
	}
	return period, points
}

// EncodeCost appends a cost record (obs/cost.go) — a statement's
// sql.ExecStats in RespDone, an iteration's or a run's record in RespRun,
// a slow-log entry's in RespSlow: its declared fields in declaration
// order, so a field the record gains needs no codec change.
func EncodeCost(e *Enc, rec any) {
	obs.WalkCost(rec, func(_ obs.CostField, v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			e.Bool(v.Bool())
		case reflect.String:
			e.String(v.String())
		case reflect.Uint64:
			e.Uvarint(v.Uint())
		default:
			e.Varint(v.Int())
		}
	})
}

// DecodeCost reads a cost record body into the record rec points to.
func DecodeCost(d *Dec, rec any) {
	obs.WalkCost(rec, func(_ obs.CostField, v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(d.Bool())
		case reflect.String:
			v.SetString(d.String())
		case reflect.Uint64:
			v.SetUint(d.Uvarint())
		default:
			v.SetInt(d.Varint())
		}
	})
}

// EncodeRunStats appends a mechanism run (RespRun): its name, its
// run-level record, and one record per iteration.
func EncodeRunStats(e *Enc, r *sql.RunStats) {
	e.String(r.Mechanism)
	EncodeCost(e, r)
	e.Uvarint(uint64(len(r.Iterations)))
	for i := range r.Iterations {
		EncodeCost(e, &r.Iterations[i])
	}
}

// DecodeRunStats reads a RunStats body.
func DecodeRunStats(d *Dec) *sql.RunStats {
	r := &sql.RunStats{Mechanism: d.String()}
	DecodeCost(d, r)
	n := d.Len()
	r.Iterations = make([]sql.IterationCost, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		DecodeCost(d, &r.Iterations[i])
	}
	return r
}

// EncodeObjects appends an object list body (RespObjs).
func EncodeObjects(e *Enc, objs []sql.ObjectInfo) {
	e.Uvarint(uint64(len(objs)))
	for _, o := range objs {
		e.String(o.Kind)
		e.String(o.Name)
		e.String(o.Table)
		e.Bool(o.Temp)
	}
}

// DecodeObjects reads an object list body.
func DecodeObjects(d *Dec) []sql.ObjectInfo {
	n := d.Len()
	out := make([]sql.ObjectInfo, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, sql.ObjectInfo{
			Kind:  d.String(),
			Name:  d.String(),
			Table: d.String(),
			Temp:  d.Bool(),
		})
	}
	return out
}

// EncodeViews appends a view status list body (RespViews): each
// materialized retro view's definition plus its maintenance counters.
func EncodeViews(e *Enc, views []core.ViewInfo) {
	e.Uvarint(uint64(len(views)))
	for _, v := range views {
		e.String(v.Name)
		e.String(v.Mechanism)
		e.String(v.Qq)
		e.Uvarint(v.LastSnap)
		e.Uvarint(uint64(v.Rows))
		e.Uvarint(v.Refreshes)
		e.Uvarint(v.PrunedRefreshes)
		e.Uvarint(v.RowsPushed)
		e.Uvarint(uint64(v.Subscribers))
		e.String(v.LastError)
	}
}

// DecodeViews reads a view status list body.
func DecodeViews(d *Dec) []core.ViewInfo {
	n := d.Len()
	out := make([]core.ViewInfo, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, core.ViewInfo{
			Name:            d.String(),
			Mechanism:       d.String(),
			Qq:              d.String(),
			LastSnap:        d.Uvarint(),
			Rows:            int(d.Uvarint()),
			Refreshes:       d.Uvarint(),
			PrunedRefreshes: d.Uvarint(),
			RowsPushed:      d.Uvarint(),
			Subscribers:     int(d.Uvarint()),
			LastError:       d.String(),
		})
	}
	return out
}

// EncodeViewBatch appends a RespViewBatch body: the rows a view
// materialized for one new snapshot. Column names ride on every frame
// (they are stable per view, but the first pushed batch may come from
// any point of the view's life).
func EncodeViewBatch(e *Enc, b core.ViewBatch) {
	e.String(b.View)
	e.Uvarint(b.Snap)
	e.Bool(b.Pruned)
	e.Uvarint(uint64(len(b.Cols)))
	for _, c := range b.Cols {
		e.String(c)
	}
	e.Uvarint(uint64(len(b.Rows)))
	for _, r := range b.Rows {
		e.Row(r)
	}
}

// DecodeViewBatch reads a RespViewBatch body.
func DecodeViewBatch(d *Dec) core.ViewBatch {
	b := core.ViewBatch{
		View:   d.String(),
		Snap:   d.Uvarint(),
		Pruned: d.Bool(),
	}
	n := d.Len()
	b.Cols = make([]string, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		b.Cols = append(b.Cols, d.String())
	}
	n = d.Len()
	b.Rows = make([][]record.Value, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		b.Rows = append(b.Rows, d.Row())
	}
	return b
}

// ViewDDL is one replicated retro-view DDL event: a CREATE carrying
// the full definition, or a DROP carrying only the name. View
// definitions live in the non-snapshotable side store, which page-level
// replication deltas do not cover, so the primary ships them logically.
type ViewDDL struct {
	Create    bool
	Name      string
	Mechanism string
	Qq        string
	Extra     string
	HasExtra  bool
}

// EncodeViewDDL appends a ViewDDL body.
func EncodeViewDDL(e *Enc, v ViewDDL) {
	e.Bool(v.Create)
	e.String(v.Name)
	e.String(v.Mechanism)
	e.String(v.Qq)
	e.String(v.Extra)
	e.Bool(v.HasExtra)
}

// DecodeViewDDL reads a ViewDDL body.
func DecodeViewDDL(d *Dec) ViewDDL {
	return ViewDDL{
		Create:    d.Bool(),
		Name:      d.String(),
		Mechanism: d.String(),
		Qq:        d.String(),
		Extra:     d.String(),
		HasExtra:  d.Bool(),
	}
}

// RemoteError is a server-reported statement error delivered to the
// client. It unwraps to nothing — the server's error chain does not
// cross the wire — but preserves the full message.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// DecodeError turns a RespError payload into a RemoteError.
func DecodeError(payload []byte) error {
	d := &Dec{B: payload}
	msg := d.String()
	if d.Err() != nil {
		msg = fmt.Sprintf("(corrupt error frame: %v)", d.Err())
	}
	return &RemoteError{Msg: msg}
}

// EncodeError builds a RespError payload.
func EncodeError(err error) []byte {
	e := &Enc{}
	e.String(err.Error())
	return e.B
}

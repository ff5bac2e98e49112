package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"
	"time"

	"rql/internal/core"
	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 100_000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		op, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if op != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: op=%#x len=%d, want op=%#x len=%d", i, op, len(got), i+1, len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read past the last frame should fail")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
	// A forged oversized header must be rejected before allocation.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("oversized read: %v, want ErrFrameTooLarge", err)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	row := []record.Value{
		record.Null(),
		record.Int(-42),
		record.Float(3.5),
		record.Text("héllo"),
		record.Blob([]byte{0, 1, 2}),
	}
	e := &Enc{}
	e.Uvarint(0)
	e.Uvarint(1 << 62)
	e.Varint(-1 << 40)
	e.Byte(0x7F)
	e.Bool(true)
	e.Bool(false)
	e.String("")
	e.String("snapshot set")
	e.Row(row)
	e.Duration(-time.Second)

	d := &Dec{B: e.B}
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<62 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -1<<40 {
		t.Fatalf("varint = %d", v)
	}
	if v := d.Byte(); v != 0x7F {
		t.Fatalf("byte = %#x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if v := d.String(); v != "" {
		t.Fatalf("string = %q", v)
	}
	if v := d.String(); v != "snapshot set" {
		t.Fatalf("string = %q", v)
	}
	got := d.Row()
	if len(got) != len(row) {
		t.Fatalf("row has %d values, want %d", len(got), len(row))
	}
	for i := range row {
		if record.Compare(got[i], row[i]) != 0 {
			t.Fatalf("row[%d] = %v, want %v", i, got[i], row[i])
		}
	}
	if v := d.Duration(); v != -time.Second {
		t.Fatalf("duration = %v", v)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(d.B) != 0 {
		t.Fatalf("%d bytes left over", len(d.B))
	}
}

func TestDecStickyError(t *testing.T) {
	d := &Dec{B: []byte{0x05}} // string length 5 with no bytes behind it
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("truncated string: %q, err %v", s, d.Err())
	}
	// Every later read must keep failing without panicking.
	d.Uvarint()
	d.Byte()
	d.Row()
	if d.Err() != ErrTruncated {
		t.Fatalf("sticky error = %v, want ErrTruncated", d.Err())
	}
}

// decodeExecStats reads a statement's cost record (the head of RespDone).
func decodeExecStats(d *Dec) (s sql.ExecStats) {
	DecodeCost(d, &s)
	return s
}

// Seed values shared by the round-trip tests and the fuzz targets.
var (
	seedExecStats = sql.ExecStats{
		RowsReturned: 5, Duration: time.Millisecond, AutoIndex: time.Second,
		Counters: retro.Counters{MapScanned: 1, PagelogReads: 2, CacheHits: 3, DBReads: 4,
			SPTBuildTime: time.Microsecond},
	}
	seedSlowEntries = []obs.SlowEntry{
		{SQL: "SELECT * FROM big", Duration: 2 * time.Second, Trace: 7,
			When: time.Unix(1000, 1), Rows: 1_000_000,
			Mechanism: "CollateData", PagelogReads: 123, PrunedIters: 4},
		{SQL: "", Duration: time.Millisecond, When: time.Unix(0, 0)},
	}
	seedRunStats = &core.RunStats{
		Mechanism: "CollateData", ResultRows: 7,
		ResultDataBytes: 100, ResultIndexBytes: 50,
		BatchBuilds: 1, BatchMapScanned: 123, BatchBuildTime: time.Millisecond,
		PrunedIterations: 1, PrunedRowsReplayed: 9, DeltaIntersections: 2,
		PruneReason: "Qq not prune-safe: non-builtin function f()",
		Iterations: []core.IterationCost{
			{Snapshot: 1, SPTBuild: time.Millisecond, QqRows: 9, ResultInserts: 9},
			{Snapshot: 2, IOTime: time.Second, PagelogReads: 3, CacheHits: 1},
			{Snapshot: 3, QqRows: 9, Pruned: true, DeltaPages: 4, ResultUpdates: 2, ResultSearch: 3},
		},
	}
	seedMetrics = []obs.Metric{
		{Name: "queries_served", Value: 3},
		{Name: "conns_active", Kind: obs.KindGauge, Value: 1 << 40},
		{Name: "view_rows", Kind: obs.KindGauge, Label: "view", LabelValue: "v1", Value: 12},
		{Name: "request_latency_seconds", Kind: obs.KindHistogram,
			Bounds: []float64{0.0001, 0.001, 0.01}, Counts: []uint64{10, 20, 30, 40}, Sum: 1.25},
	}
	seedObjects = []sql.ObjectInfo{
		{Kind: "table", Name: "orders"},
		{Kind: "index", Name: "idx", Table: "orders", Temp: true},
	}
	seedViews = []core.ViewInfo{
		{Name: "live", Mechanism: "CollateData", Qq: "SELECT k FROM t", LastSnap: 9, Rows: 40,
			Refreshes: 8, PrunedRefreshes: 3, RowsPushed: 120, Subscribers: 2},
		{Name: "broken", Mechanism: "AggregateDataInTable", Qq: "SELECT x FROM gone", LastError: "no such table: gone"},
	}
	seedViewBatch = core.ViewBatch{
		View: "live", Snap: 9, Pruned: true, Cols: []string{"k", "sid"},
		Rows: [][]record.Value{{record.Int(1), record.Int(9)}, {record.Text("two"), record.Int(9)}},
	}
)

func TestCompositeRoundTrips(t *testing.T) {
	e := &Enc{}
	EncodeCost(e, &seedExecStats)
	d := &Dec{B: e.B}
	if got := decodeExecStats(d); got != seedExecStats || d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("ExecStats = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), seedExecStats)
	}

	e = &Enc{}
	EncodeRunStats(e, seedRunStats)
	d = &Dec{B: e.B}
	if got := DecodeRunStats(d); !reflect.DeepEqual(got, seedRunStats) || d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("RunStats = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), seedRunStats)
	}

	e = &Enc{}
	EncodeObjects(e, seedObjects)
	if got := DecodeObjects(&Dec{B: e.B}); !reflect.DeepEqual(got, seedObjects) {
		t.Fatalf("Objects = %+v, want %+v", got, seedObjects)
	}

	e = &Enc{}
	EncodeViews(e, seedViews)
	d = &Dec{B: e.B}
	if got := DecodeViews(d); !reflect.DeepEqual(got, seedViews) || d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("Views = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), seedViews)
	}

	e = &Enc{}
	EncodeViewBatch(e, seedViewBatch)
	d = &Dec{B: e.B}
	if got := DecodeViewBatch(d); !reflect.DeepEqual(got, seedViewBatch) || d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("ViewBatch = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), seedViewBatch)
	}
}

// TestRequestTable holds wire.Requests to its claim of being the one
// declaration of a request: every Req* constant in this package's source
// has exactly one row, and every row a unique, non-empty name.
func TestRequestTable(t *testing.T) {
	files, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts []string
	for _, f := range files["wire"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for _, id := range vs.Names {
					if strings.HasPrefix(id.Name, "Req") && id.Obj != nil && id.Obj.Kind == ast.Con {
						consts = append(consts, id.Name)
					}
				}
			}
			return true
		})
	}
	if len(consts) != len(Requests) {
		t.Errorf("%d Req* constants %v, %d rows in Requests", len(consts), consts, len(Requests))
	}
	ops, names := map[byte]bool{}, map[string]bool{}
	for _, r := range Requests {
		if ops[r.Op] || names[r.Name] || r.Name == "" {
			t.Errorf("row %+v: duplicate opcode, or duplicate or empty name", r)
		}
		ops[r.Op], names[r.Name] = true, true
		if got, ok := RequestFor(r.Op); !ok || got != r {
			t.Errorf("RequestFor(%#x) = %+v, %v, want %+v", r.Op, got, ok, r)
		}
	}
	if _, ok := RequestFor(RespDone); ok {
		t.Error("RequestFor found a row for a response opcode")
	}
}

// TestMetricsRoundTrip pins the STATS frame: every kind round-trips,
// labelled series keep their label, and a histogram carries its own
// bounds, counts and sum so clients never render counts against a
// compiled-in bucketing.
func TestMetricsRoundTrip(t *testing.T) {
	e := &Enc{}
	EncodeMetrics(e, seedMetrics)
	d := &Dec{B: e.B}
	got := DecodeMetrics(d)
	if d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), len(d.B))
	}
	if !reflect.DeepEqual(got, seedMetrics) {
		t.Fatalf("metrics = %+v, want %+v", got, seedMetrics)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	spans := []obs.Span{
		{Trace: 1, ID: 1, Name: "server.exec", Start: time.Unix(100, 500), Duration: time.Millisecond, Attrs: []obs.Attr{}},
		{Trace: 1, ID: 2, Parent: 1, Name: "sql.exec",
			Start: time.Unix(100, 600), Duration: 900 * time.Microsecond,
			Attrs: []obs.Attr{
				{Key: "sql", Str: "SELECT 1", IsStr: true},
				{Key: "rows", Int: 42},
				{Key: "off", Int: -8192},
			}},
	}
	e := &Enc{}
	EncodeSpans(e, spans)
	d := &Dec{B: e.B}
	got := DecodeSpans(d)
	if d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), len(d.B))
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("spans = %+v, want %+v", got, spans)
	}
}

func TestSlowEntryRoundTrip(t *testing.T) {
	in := seedSlowEntries
	e := &Enc{}
	EncodeSlowEntries(e, 50*time.Millisecond, in)
	d := &Dec{B: e.B}
	threshold, got := DecodeSlowEntries(d)
	if d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), len(d.B))
	}
	if threshold != 50*time.Millisecond {
		t.Fatalf("threshold = %v", threshold)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("entries = %+v, want %+v", got, in)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	for _, tc := range []TraceContext{
		{},
		{Trace: 1<<63 | 42, Sampled: true},
		{Trace: 7, Sampled: false},
	} {
		e := &Enc{}
		EncodeTraceContext(e, tc)
		d := &Dec{B: e.B}
		got := DecodeTraceContext(d)
		if d.Err() != nil || got != tc || len(d.B) != 0 {
			t.Fatalf("TraceContext = %+v (err %v, %d left), want %+v", got, d.Err(), len(d.B), tc)
		}
	}
}

func TestTimelineRoundTrip(t *testing.T) {
	points := []obs.Point{
		{When: time.Unix(1, 0), Interval: time.Second,
			Rates:  map[string]float64{"storage_commits": 12.5, "queries_served": 300},
			Gauges: map[string]float64{"conns_active": 4}},
		{When: time.Unix(2, 0), Interval: time.Second,
			Rates: map[string]float64{}, Gauges: map[string]float64{}},
	}
	e := &Enc{}
	EncodeTimeline(e, time.Second, points)
	d := &Dec{B: e.B}
	period, got := DecodeTimeline(d)
	if d.Err() != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), len(d.B))
	}
	if period != time.Second {
		t.Fatalf("period = %v", period)
	}
	if !reflect.DeepEqual(got, points) {
		t.Fatalf("points = %+v, want %+v", got, points)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	err := DecodeError(EncodeError(&RemoteError{Msg: "no such table: nope"}))
	re, ok := err.(*RemoteError)
	if !ok || re.Msg != "no such table: nope" {
		t.Fatalf("round-tripped error = %#v", err)
	}
}

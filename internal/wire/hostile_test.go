package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rql/internal/obs"
	"rql/internal/sql"
)

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestListDecodersRejectOversizedCounts feeds every list decoder a
// well-formed prefix, then a maximal element count with no bytes behind
// it — a 6-byte frame a hostile server or primary can send. The decode
// must fail, and must not have reserved memory on the count's word.
func TestListDecodersRejectOversizedCounts(t *testing.T) {
	zeros := func(n int) func(*Enc) { return func(e *Enc) { e.B = append(e.B, make([]byte, n)...) } }
	for name, tc := range map[string]struct {
		prefix func(*Enc) // fields before the count, zero-valued (one byte each)
		decode func(*Dec)
	}{
		"Metrics":         {zeros(0), func(d *Dec) { DecodeMetrics(d) }},
		"Metrics/bounds":  {func(e *Enc) { e.Uvarint(1); e.String("h"); e.Byte(2); e.String(""); e.String("") }, func(d *Dec) { DecodeMetrics(d) }},
		"Timeline":        {zeros(1), func(d *Dec) { DecodeTimeline(d) }},
		"Timeline/rates":  {func(e *Enc) { e.Duration(0); e.Uvarint(1); e.Varint(0); e.Duration(0) }, func(d *Dec) { DecodeTimeline(d) }},
		"RunStats":        {emptyRunHead, func(d *Dec) { DecodeRunStats(d) }},
		"Spans":           {zeros(0), func(d *Dec) { DecodeSpans(d) }},
		"Spans/attrs":     {func(e *Enc) { e.Uvarint(1); e.B = append(e.B, make([]byte, 6)...) }, func(d *Dec) { DecodeSpans(d) }},
		"SlowEntries":     {zeros(1), func(d *Dec) { DecodeSlowEntries(d) }},
		"Objects":         {zeros(0), func(d *Dec) { DecodeObjects(d) }},
		"Views":           {zeros(0), func(d *Dec) { DecodeViews(d) }},
		"ViewBatch/cols":  {zeros(3), func(d *Dec) { DecodeViewBatch(d) }},
		"ViewBatch/rows":  {zeros(4), func(d *Dec) { DecodeViewBatch(d) }},
		"BootViews":       {zeros(0), func(d *Dec) { DecodeBootViews(d) }},
		"BootMeta/free":   {zeros(2), func(d *Dec) { DecodeReplBootMeta(d) }},
		"BootMeta/snaps":  {zeros(4), func(d *Dec) { DecodeReplBootMeta(d) }},
		"ReplPages":       {zeros(0), func(d *Dec) { DecodeReplPages(d) }},
		"PagelogChunk":    {zeros(1), func(d *Dec) { DecodeReplPagelogChunk(d) }},
		"SegmentChunk":    {zeros(2), func(d *Dec) { DecodeReplSegmentChunk(d) }},
		"MapEntries":      {zeros(0), func(d *Dec) { DecodeReplMapEntries(d) }},
		"Annots":          {zeros(0), func(d *Dec) { DecodeReplAnnots(d) }},
		"ReplDelta/pages": {zeros(6), func(d *Dec) { DecodeReplDelta(d) }},
		"ReplStats":       {zeros(4), func(d *Dec) { DecodeReplStats(d) }},
	} {
		e := &Enc{}
		tc.prefix(e)
		e.Uvarint(MaxFrame)
		d := &Dec{B: e.B}
		got := allocated(func() { tc.decode(d) })
		if d.Err() == nil {
			t.Errorf("%s: a count of %d over an empty body decoded without error", name, MaxFrame)
		}
		if got > 1<<20 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(e.B), got)
		}
	}
}

// emptyRunHead appends what precedes a RunStats body's iteration count:
// the name and the run-level record, all zero.
func emptyRunHead(e *Enc) {
	EncodeRunStats(e, &sql.RunStats{})
	e.B = e.B[:len(e.B)-1]
}

// allocSlack absorbs what the test process itself allocates between two
// MemStats reads.
const allocSlack = 64 << 10

// allocBound is what a list decoder may allocate for an n-byte input:
// Dec.Len admits at most one element per remaining byte, so the decoded
// form is bounded by the largest element struct (a Metric or an
// IterationCost, both under 256 bytes) per input byte.
func allocBound(n int) uint64 { return allocSlack + 256*uint64(n) }

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, RespBatch, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{0x03, 0xFF, 0xFF, 0xFF, RespStats}) // just under MaxFrame, no body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})      // over MaxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			op      byte
			payload []byte
			err     error
		)
		got := allocated(func() { op, payload, err = ReadFrame(bytes.NewReader(data)) })
		if got > frameChunk+allocSlack+4*uint64(len(data)) {
			t.Fatalf("ReadFrame allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, op, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("frame did not re-encode to its input")
		}
	})
}

// fuzzDecoder is the body every list-decoder target shares: the decode
// stays under allocBound, and what decodes cleanly survives another
// encode/decode round (compared as bytes: a NaN is not equal to itself).
func fuzzDecoder[T any](f *testing.F, decode func(*Dec) T, encode func(*Enc, T), seed T, hostile []byte) {
	e := &Enc{}
	encode(e, seed)
	f.Add(e.B)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &Dec{B: data}
		var v T
		if got := allocated(func() { v = decode(d) }); got > allocBound(len(data)) {
			t.Fatalf("decoding a %d-byte input allocated %d bytes", len(data), got)
		}
		if d.Err() != nil {
			return
		}
		e1, e2 := &Enc{}, &Enc{}
		encode(e1, v)
		encode(e2, decode(&Dec{B: e1.B}))
		if !bytes.Equal(e1.B, e2.B) {
			t.Fatalf("%+v changed across an encode/decode round", v)
		}
	})
}

func FuzzDecodeMetrics(f *testing.F) {
	fuzzDecoder(f, DecodeMetrics, EncodeMetrics, seedMetrics, []byte{0xFF, 0xFF, 0xFF, 0x1F})
}

func FuzzDecodeRunStats(f *testing.F) {
	hostile := &Enc{}
	emptyRunHead(hostile)
	fuzzDecoder(f, DecodeRunStats, EncodeRunStats, seedRunStats, append(hostile.B, 0xFF, 0xFF, 0xFF, 0x1F))
}

func FuzzDecodeExecStats(f *testing.F) {
	fuzzDecoder(f, decodeExecStats, func(e *Enc, s sql.ExecStats) { EncodeCost(e, &s) }, seedExecStats,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // an 11-byte varint
}

func FuzzDecodeSlowEntries(f *testing.F) {
	fuzzDecoder(f,
		func(d *Dec) []obs.SlowEntry { _, entries := DecodeSlowEntries(d); return entries },
		func(e *Enc, entries []obs.SlowEntry) { EncodeSlowEntries(e, time.Second, entries) },
		seedSlowEntries, []byte{0, 0xFF, 0xFF, 0xFF, 0x1F})
}

func FuzzDecodeObjects(f *testing.F) {
	fuzzDecoder(f, DecodeObjects, EncodeObjects, seedObjects, []byte{0xFF, 0xFF, 0xFF, 0x1F})
}

func FuzzDecodeViews(f *testing.F) {
	fuzzDecoder(f, DecodeViews, EncodeViews, seedViews, []byte{0xFF, 0xFF, 0xFF, 0x1F})
}

func FuzzDecodeViewBatch(f *testing.F) {
	fuzzDecoder(f, DecodeViewBatch, EncodeViewBatch, seedViewBatch, []byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x1F})
}

// FuzzDecodeReplDelta fuzzes the replication stream's delta body — what
// a replica decodes from every RespReplDelta frame a primary sends.
func FuzzDecodeReplDelta(f *testing.F) {
	// No page image in the seed: one makes the input 4 KiB and the
	// fuzzer a hundred times slower; the image paths have their own
	// oversized-count and round-trip tests.
	seed := ReplDelta{
		LSN: 7, Declare: true, SnapID: 4, PlEnd: 120,
		Annot: &ReplAnnot{Snap: 4, TS: "2026-01-02 00:00:00", Label: "day-1"},
		Pages: []ReplPageImage{{ID: 5}, {ID: 6}},
	}
	// A present registration whose timestamp announces ~8 GiB.
	fuzzDecoder(f, DecodeReplDelta, EncodeReplDelta, seed, []byte{0, 0, 1, 4, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F})
}

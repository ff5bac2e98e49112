package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func page(fill byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestReplSubscribeRoundTrip(t *testing.T) {
	in := ReplSubscribe{ID: "replica-7", LastApplied: 42}
	e := &Enc{}
	EncodeReplSubscribe(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplSubscribe(d)
	if d.Err() != nil || out != in {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestReplBootMetaRoundTrip(t *testing.T) {
	in := ReplBootMeta{
		LSN:           99,
		NumPages:      1024,
		Free:          []uint32{3, 17, 900},
		LastSnap:      12,
		SnapLSNs:      []uint64{1, 5, 9, 12, 20, 33, 40, 51, 60, 70, 80, 99},
		PagelogPages:  4096,
		MaplogEntries: 7777,
	}
	e := &Enc{}
	EncodeReplBootMeta(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplBootMeta(d)
	if d.Err() != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestReplPagesRoundTrip(t *testing.T) {
	in := []ReplPageImage{
		{ID: 1, Data: page(0xAA)},
		{ID: 2, Data: nil}, // freed
		{ID: 7, Data: page(0x55)},
	}
	e := &Enc{}
	EncodeReplPages(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplPages(d)
	if d.Err() != nil || len(out) != len(in) {
		t.Fatalf("decode: %d pages err=%v, want %d", len(out), d.Err(), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("page %d mismatch", i)
		}
	}
	// A truncated present-page body must fail, not alias garbage.
	d = &Dec{B: e.B[:len(e.B)-1]}
	if DecodeReplPages(d); d.Err() == nil {
		t.Fatal("truncated page list should fail decode")
	}
}

func TestReplPagelogChunkRoundTrip(t *testing.T) {
	pages := [][]byte{page(1), page(2), page(3)}
	e := &Enc{}
	EncodeReplPagelogChunk(e, 17, pages)
	d := &Dec{B: e.B}
	off, got := DecodeReplPagelogChunk(d)
	if d.Err() != nil || off != 17 || len(got) != 3 {
		t.Fatalf("off=%d n=%d err=%v", off, len(got), d.Err())
	}
	for i := range pages {
		if !bytes.Equal(got[i], pages[i]) {
			t.Fatalf("pagelog page %d mismatch", i)
		}
	}
}

func TestReplMapEntriesRoundTrip(t *testing.T) {
	in := []ReplMapEntry{{Snap: 1, Page: 9, Off: 0}, {Snap: 3, Page: 2, Off: 5511}}
	e := &Enc{}
	EncodeReplMapEntries(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplMapEntries(d)
	if d.Err() != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestReplAnnotsRoundTrip(t *testing.T) {
	in := []ReplAnnot{
		{Snap: 1, TS: "2026-08-08 12:00:00", Label: "day-1"},
		{Snap: 2, TS: "2026-08-08 13:00:00", Label: ""},
	}
	e := &Enc{}
	EncodeReplAnnots(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplAnnots(d)
	if d.Err() != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestReplDeltaRoundTrip(t *testing.T) {
	in := ReplDelta{
		LSN:     7,
		Partial: true,
		Declare: true,
		SnapID:  4,
		PlEnd:   122,
		Annot:   &ReplAnnot{Snap: 4, TS: "2026-08-08 12:00:00", Label: "day-4"},
		Pages: []ReplPageImage{
			{ID: 5, Data: page(0x33)},
			{ID: 6, Data: nil}, // freed by this commit
		},
	}
	e := &Enc{}
	EncodeReplDelta(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplDelta(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if out.LSN != in.LSN || out.PlEnd != in.PlEnd ||
		out.Partial != in.Partial || out.Declare != in.Declare || out.SnapID != in.SnapID ||
		!reflect.DeepEqual(out.Annot, in.Annot) {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Pages) != 2 || !bytes.Equal(out.Pages[0].Data, in.Pages[0].Data) ||
		out.Pages[1].Data != nil {
		t.Fatal("pages mismatch")
	}
}

func TestReplAckRoundTrip(t *testing.T) {
	in := ReplAck{Snap: 9, LSN: 31, Bytes: 1 << 30}
	e := &Enc{}
	EncodeReplAck(e, in)
	d := &Dec{B: e.B}
	if out := DecodeReplAck(d); d.Err() != nil || out != in {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestHorizonInfoRoundTrip(t *testing.T) {
	in := HorizonInfo{Role: RoleReplica, Horizon: 12, LSN: 80, Primary: "10.0.0.1:7427"}
	e := &Enc{}
	EncodeHorizonInfo(e, in)
	d := &Dec{B: e.B}
	if out := DecodeHorizonInfo(d); d.Err() != nil || out != in {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

func TestReplStatsRoundTrip(t *testing.T) {
	in := ReplStats{
		Role:    RolePrimary,
		Horizon: 44,
		LSN:     301,
		Replicas: []ReplicaStat{
			{ID: "r1", Addr: "h:1", Connected: true, AckedSnap: 44, AckedLSN: 301, SentBytes: 9001},
			{ID: "r2", Addr: "h:2", Connected: false, AckedSnap: 12, AckedLSN: 100, SentBytes: 17},
		},
		BytesReceived:    5,
		DeltasApplied:    6,
		SnapshotsApplied: 7,
		Bootstraps:       1,
		Reconnects:       2,
		LastError:        "dial refused",
	}
	e := &Enc{}
	EncodeReplStats(e, in)
	d := &Dec{B: e.B}
	out := DecodeReplStats(d)
	if d.Err() != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v err=%v, want %+v", out, d.Err(), in)
	}
}

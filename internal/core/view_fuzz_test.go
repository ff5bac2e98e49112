package core

import (
	"bytes"
	"runtime"
	"testing"

	"rql/internal/record"
	"rql/internal/sql"
)

// FuzzDecodeViewState feeds decodeViewState — which reads a view's
// persisted refresh state back from the side store, and on a replica
// from what the primary shipped — arbitrary bytes: no panic, no
// allocation beyond a small multiple of the input, and a state that
// decodes cleanly survives another encode/decode round unchanged.
func FuzzDecodeViewState(f *testing.F) {
	r, c := foldEnv(f)
	// AggregateDataInTable with an AVG carries every part of the state:
	// a resolved shape, per-row weights, and (set below) a prune memo.
	fresh := func() *lane {
		m, err := r.newMech(mechCall{mechAggTable, `SELECT g, v FROM src`, "FuzzT", "(v,avg)", true})
		if err != nil {
			f.Fatal(err)
		}
		return m.tableLane(c)
	}
	seed := fresh()
	if err := seed.m.createResultTable(c, 1); err != nil {
		f.Fatal(err)
	}
	feed(f, seed, []foldIter{
		{snap: 1, rows: [][]record.Value{{record.Text("a"), record.Int(3)}, {record.Text("b"), record.Null()}}},
		{snap: 2, rows: [][]record.Value{{record.Text("a"), record.Int(5)}}},
	})
	seed.table.rollback()
	seed.cache = pruneCache{valid: true, prev: 2, readSet: sql.PageSet{4: {}, 9: {}},
		rows: [][]record.Value{{record.Text("a"), record.Int(5)}}}
	f.Add(encodeViewState(seed))
	// An empty state whose prune memo claims a 2^24-1-page read-set.
	hostile := []byte{viewStateVersion, 4 /* memo valid */, 0, 0, 0}
	hostile = appendBytes(hostile, record.EncodeRow(nil, []record.Value{record.Null()}))
	f.Add(append(hostile, 0, 0, 0 /* avg, weights */, 0 /* prev */, 0xFF, 0xFF, 0xFF, 0x07))
	// Counts of 2^64-1, negative as an int: the column count, then the
	// memo's row count.
	max := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	f.Add(append([]byte{viewStateVersion, 0, 0, 0}, max...))
	f.Add(append(append(hostile, 0, 0, 0, 0, 0 /* read-set */), max...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ln := fresh()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		err := decodeViewState(ln, data)
		runtime.ReadMemStats(&b)
		if got := b.TotalAlloc - a.TotalAlloc; got > 64<<10+256*uint64(len(data)) {
			t.Fatalf("decoding a %d-byte state allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		e1, again := encodeViewState(ln), fresh()
		if err := decodeViewState(again, e1); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if e2 := encodeViewState(again); !bytes.Equal(e1, e2) {
			t.Fatalf("state changed across an encode/decode round:\n%x\n%x", e1, e2)
		}
	})
}

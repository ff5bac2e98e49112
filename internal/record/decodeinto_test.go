package record

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sentinel marks buffer positions DecodeRowInto must leave alone.
var sentinel = Text("untouched")

// sameValue is field-wise identity (NaN payloads included, which
// reflect.DeepEqual would call unequal).
func sameValue(a, b Value) bool {
	return a.typ == b.typ && a.i == b.i && math.Float64bits(a.f) == math.Float64bits(b.f) &&
		a.s == b.s && bytes.Equal(a.b, b.b) && (a.b == nil) == (b.b == nil)
}

// checkDecodeInto runs DecodeRowInto on data with the given buffer
// length and mask and compares it, position by position, with what
// DecodeRow produced for the same bytes.
func checkDecodeInto(t testing.TB, data []byte, full []Value, dstLen int, need []bool) {
	t.Helper()
	dst := make([]Value, dstLen)
	for k := range dst {
		dst[k] = sentinel
	}
	n, err := DecodeRowInto(dst, data, need)
	if err != nil {
		t.Fatalf("DecodeRowInto(%x, len %d, need %v): %v, but DecodeRow succeeded", data, dstLen, need, err)
	}
	if n != len(full) {
		t.Fatalf("DecodeRowInto(%x) reports %d columns, DecodeRow decoded %d", data, n, len(full))
	}
	for k := range dst {
		needed := k < len(full) && (need == nil || (k < len(need) && need[k]))
		want := sentinel
		if needed {
			want = full[k]
		}
		if !sameValue(dst[k], want) {
			t.Fatalf("DecodeRowInto(%x, need %v): position %d = %#v, want %#v (needed=%v)", data, need, k, dst[k], want, needed)
		}
	}
}

// randomMask draws a need mask that may be nil, shorter or longer than
// the buffer.
func randomMask(r *rand.Rand, dstLen int) []bool {
	if r.Intn(5) == 0 {
		return nil
	}
	need := make([]bool, r.Intn(dstLen+3))
	for k := range need {
		need[k] = r.Intn(3) == 0
	}
	return need
}

// Property: for random schemas — NULLs, empty text, blobs, and buffers
// longer than the record (a row written before a column was added: the
// caller pads what DecodeRowInto reports missing) or shorter —
// DecodeRowInto with a random mask equals DecodeRow on the needed
// positions and touches nothing else.
func TestDecodeRowIntoMatchesDecodeRow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		row := make([]Value, r.Intn(12))
		for k := range row {
			row[k] = randomValue(r)
		}
		data := EncodeRow(nil, row)
		full, err := DecodeRow(data)
		if err != nil {
			t.Fatalf("trial %d: DecodeRow(%v): %v", trial, row, err)
		}
		dstLen := len(row)
		switch r.Intn(3) {
		case 0:
			dstLen += r.Intn(4)
		case 1:
			dstLen = r.Intn(len(row) + 1)
		}
		checkDecodeInto(t, data, full, dstLen, randomMask(r, dstLen))
	}
}

// A pruned decode steps over payloads it does not need without looking
// inside them, and stops after the last needed column.
func TestDecodeRowIntoSkipsWithoutAllocating(t *testing.T) {
	data := EncodeRow(nil, ordersRow())
	dst := make([]Value, 9)
	need := make([]bool, 9)
	need[1], need[3], need[7] = true, true, true // integer, float, integer
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRowInto(dst, data, need); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("pruned decode of numeric columns allocates %v times per row, want 0", allocs)
	}
	// Garbage after the last needed column is never read.
	cut := bytes.Index(data, []byte("1996-01-02"))
	need = []bool{true, true}
	if _, err := DecodeRowInto(dst, data[:cut], need); err != nil {
		t.Errorf("decode of the first two columns read past them: %v", err)
	}
	if _, err := DecodeRowInto(dst, data[:cut], nil); err == nil {
		t.Error("full decode of a truncated record succeeded")
	}
}

func TestDecodeRowIntoCorrupt(t *testing.T) {
	huge := []byte{byte(TypeText), recordEnd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for _, data := range [][]byte{
		{},
		{byte(TypeInt)},
		{0x07, recordEnd},
		{byte(TypeInt), recordEnd},
		{byte(TypeFloat), recordEnd, 1, 2, 3},
		{byte(TypeText), recordEnd, 5, 'a'},
		huge, // length 2^63+: must not wrap around into a valid slice
		{byte(TypeNull), recordEnd, 0},
	} {
		if _, err := DecodeRowInto(make([]Value, 2), data, nil); err == nil {
			t.Errorf("DecodeRowInto(%x) succeeded", data)
		}
		if _, err := DecodeRow(data); err == nil {
			t.Errorf("DecodeRow(%x) succeeded", data)
		}
	}
}

// FuzzDecodeRowInto: on arbitrary bytes DecodeRowInto never panics and
// never reads past data (a slice-bounds panic is how Go reports that),
// and whenever DecodeRow accepts the bytes it agrees with it under any
// mask and buffer length.
func FuzzDecodeRowInto(f *testing.F) {
	for _, row := range sampleRows() {
		f.Add(EncodeRow(nil, row), uint16(0xffff), uint8(len(row)))
	}
	f.Add(EncodeRow(nil, ordersRow()), uint16(0b10), uint8(9))
	f.Add(EncodeRow(nil, ordersRow())[:20], uint16(0b11), uint8(12))
	f.Add([]byte{byte(TypeText), recordEnd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(1), uint8(1))
	f.Add([]byte{byte(TypeBlob), byte(TypeInt), recordEnd, 0x80}, uint16(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, maskBits uint16, dstLen uint8) {
		dstLen %= 20
		need := make([]bool, 16)
		for k := range need {
			need[k] = maskBits&(1<<k) != 0
		}
		dst := make([]Value, dstLen)
		_, intoErr := DecodeRowInto(dst, data, need)
		full, err := DecodeRow(data)
		if err != nil {
			return // a pruned decode may accept what it did not have to read
		}
		if intoErr != nil {
			t.Fatalf("DecodeRow accepted %x but DecodeRowInto(need %v) failed: %v", data, need, intoErr)
		}
		checkDecodeInto(t, data, full, int(dstLen), need)
		checkDecodeInto(t, data, full, int(dstLen), nil)
	})
}

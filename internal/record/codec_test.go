package record

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleRows() [][]Value {
	return [][]Value{
		nil,
		{},
		{Null()},
		{Int(0)},
		{Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(3.14), Float(-0.0), Float(math.MaxFloat64)},
		{Text(""), Text("hello"), Text("emb\x00edded")},
		{Blob(nil), Blob([]byte{0, 1, 255})},
		{Null(), Int(7), Float(1.5), Text("mix"), Blob([]byte("b"))},
	}
}

func TestRowRoundTrip(t *testing.T) {
	for _, row := range sampleRows() {
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", row, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("round trip length %d != %d for %v", len(dec), len(row), row)
		}
		for i := range row {
			if Compare(dec[i], row[i]) != 0 || dec[i].Type() != row[i].Type() {
				t.Errorf("round trip field %d: got %v (%v), want %v (%v)",
					i, dec[i], dec[i].Type(), row[i], row[i].Type())
			}
		}
	}
}

func TestRowAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	enc := EncodeRow(prefix, []Value{Int(1)})
	if !bytes.HasPrefix(enc, prefix) {
		t.Error("EncodeRow did not append to dst")
	}
	dec, err := DecodeRow(enc[len(prefix):])
	if err != nil || len(dec) != 1 || dec[0].Int() != 1 {
		t.Errorf("decode after prefix: %v, %v", dec, err)
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                                    // no terminator
		{byte(TypeInt)},                       // unterminated header
		{0x07, recordEnd},                     // bad type byte
		{byte(TypeInt), recordEnd},            // missing int payload
		{byte(TypeFloat), recordEnd, 1, 2, 3}, // short float
		{byte(TypeText), recordEnd, 5, 'a'},   // short text
		{byte(TypeBlob), recordEnd, 200, 200, 200, 200, 200, 200, 200, 200, 200, 200}, // huge uvarint
		append(EncodeRow(nil, []Value{Int(1)}), 0xAA),                                 // trailing bytes
	}
	for i, c := range cases {
		if _, err := DecodeRow(c); err == nil {
			t.Errorf("case %d: expected corruption error for % x", i, c)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, row := range sampleRows() {
		enc := EncodeKey(nil, row)
		dec, err := DecodeKey(enc)
		if err != nil {
			t.Fatalf("DecodeKey(%v): %v", row, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("key round trip length %d != %d for %v", len(dec), len(row), row)
		}
		for i := range row {
			if Compare(dec[i], row[i]) != 0 {
				t.Errorf("key round trip field %d: got %v, want %v", i, dec[i], row[i])
			}
		}
	}
}

func TestDecodeKeyCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x99},                   // unknown tag
		{tagNum, 1, 2},           // short numeric
		{tagText, 'a'},           // unterminated text
		{tagText, escByte},       // dangling escape
		{tagText, escByte, 0x42}, // bad escape
	}
	for i, c := range cases {
		if _, err := DecodeKey(c); err == nil {
			t.Errorf("case %d: expected corruption error for % x", i, c)
		}
	}
}

// keyLess compares two tuples via the memcomparable encoding.
func keyLess(a, b []Value) int {
	return bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b))
}

// tupleCompare is the reference ordering: lexicographic Compare.
func tupleCompare(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func TestKeyOrderPreservingFixed(t *testing.T) {
	ordered := [][]Value{
		{Null()},
		{Float(-1e300)},
		{Int(math.MinInt64)},
		{Int(-1)},
		{Float(-0.5)},
		{Int(0)},
		{Float(0.5)},
		{Int(1)},
		{Int(1), Int(0)}, // prefix sorts before extension
		{Int(2)},
		{Float(1e300)},
		{Text("")},
		{Text("a")},
		{Text("a\x00")},
		{Text("a\x00b")},
		{Text("a\x01")},
		{Text("ab")},
		{Blob([]byte{})},
		{Blob([]byte{0})},
		{Blob([]byte{0, 0})},
		{Blob([]byte{1})},
	}
	for i := range ordered {
		for j := range ordered {
			got := keyLess(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if sign(got) != want {
				t.Errorf("key order (%v vs %v): got %d want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// randomValue draws a value from all five types.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Int(int64(r.Intn(20) - 10)) // small ints collide often
	case 3:
		return Float(math.Float64frombits(r.Uint64()))
	case 4:
		n := r.Intn(8)
		b := make([]byte, n)
		r.Read(b)
		return Text(string(b))
	default:
		n := r.Intn(8)
		b := make([]byte, n)
		r.Read(b)
		return Blob(b)
	}
}

func randomTuple(r *rand.Rand) []Value {
	n := r.Intn(4)
	tup := make([]Value, n)
	for i := range tup {
		tup[i] = randomValue(r)
	}
	return tup
}

// Property: bytes.Compare on encoded keys == lexicographic Compare on
// tuples, for random tuples (NaN floats excluded: SQL has no NaN).
func TestKeyOrderPreservingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		a, b := randomTuple(r), randomTuple(r)
		if hasNaN(a) || hasNaN(b) {
			continue
		}
		want := tupleCompare(a, b)
		got := sign(keyLess(a, b))
		if got != want {
			t.Fatalf("trial %d: key order mismatch for %v vs %v: got %d want %d", trial, a, b, got, want)
		}
	}
}

func hasNaN(tup []Value) bool {
	for _, v := range tup {
		if v.Type() == TypeFloat && math.IsNaN(v.Float()) {
			return true
		}
	}
	return false
}

// Property: row encoding round-trips for arbitrary int/float/string triples.
func TestRowRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte) bool {
		if math.IsNaN(fl) {
			return true
		}
		row := []Value{Int(i), Float(fl), Text(s), Blob(b), Null()}
		dec, err := DecodeRow(EncodeRow(nil, row))
		if err != nil || len(dec) != len(row) {
			return false
		}
		for k := range row {
			if Compare(dec[k], row[k]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: key encoding round-trips values up to numeric equivalence.
func TestKeyRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		tup := randomTuple(r)
		if hasNaN(tup) {
			continue
		}
		dec, err := DecodeKey(EncodeKey(nil, tup))
		if err != nil {
			t.Fatalf("trial %d: decode error %v for %v", trial, err, tup)
		}
		if tupleCompare(dec, tup) != 0 {
			t.Fatalf("trial %d: key round trip %v -> %v", trial, tup, dec)
		}
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	row := []Value{Int(12345), Text("STANDARD POLISHED TIN"), Float(1234.56), Int(7)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeRow(buf[:0], row)
	}
}

// ordersRow is shaped like a TPC-H orders record: nine columns, five of
// them text — the row the paper's Table 1 queries scan.
func ordersRow() []Value {
	return []Value{
		Int(583), Int(1231), Text("O"), Float(173665.47), Text("1996-01-02"),
		Text("5-LOW"), Text("Clerk#000000951"), Int(0), Text("nstructions sleep furiously among"),
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	enc := EncodeRow(nil, ordersRow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRowInto decodes the same record into a reused buffer:
// every column, and the one column (o_custkey) a pruned scan needs.
func BenchmarkDecodeRowInto(b *testing.B) {
	enc := EncodeRow(nil, ordersRow())
	oneOfNine := make([]bool, 9)
	oneOfNine[1] = true
	for _, bc := range []struct {
		name string
		need []bool
	}{{"all", nil}, {"1of9", oneOfNine}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]Value, 9)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRowInto(dst, enc, bc.need); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

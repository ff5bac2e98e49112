package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is returned when an encoded record or key cannot be decoded.
var ErrCorrupt = errors.New("record: corrupt encoding")

// ---------------------------------------------------------------------------
// Record encoding (table rows)
//
// Layout: a header of N type bytes terminated by 0xFF, followed by the
// payloads in order. Integers are zigzag varints, floats are 8 bytes,
// text/blob are length-prefixed. Compact and self-describing, in the
// spirit of the SQLite record format.
// ---------------------------------------------------------------------------

const recordEnd = 0xFF

// EncodeRow appends the record encoding of vals to dst and returns the
// extended slice.
func EncodeRow(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = append(dst, byte(v.typ))
	}
	dst = append(dst, recordEnd)
	for _, v := range vals {
		switch v.typ {
		case TypeNull:
		case TypeInt:
			dst = binary.AppendVarint(dst, v.i)
		case TypeFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case TypeText:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case TypeBlob:
			dst = binary.AppendUvarint(dst, uint64(len(v.b)))
			dst = append(dst, v.b...)
		}
	}
	return dst
}

// DecodeRow decodes a record previously produced by EncodeRow into a
// freshly allocated row.
func DecodeRow(data []byte) ([]Value, error) {
	n := bytes.IndexByte(data, recordEnd)
	if n < 0 {
		return nil, ErrCorrupt
	}
	vals := make([]Value, n)
	if _, err := DecodeRowInto(vals, data, nil); err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeRowInto decodes the record in data into the caller's row buffer
// and returns how many columns the record holds. It sets dst[k] for
// every column k the record has, dst has room for and need admits; a nil
// need admits every column, and positions at or beyond len(need) are not
// needed. All other positions of dst are left as they were, so a scan
// that reuses one buffer keeps whatever it put there.
//
// The type header is walked in place and the payload of a column that is
// not needed is stepped over, so nothing is allocated for it; decoding
// stops after the last needed column. A record is therefore validated
// only as far as it is read: trailing garbage is reported only when
// every column was decoded. TEXT and BLOB payloads are copied out of
// data, never aliased — data is page memory the caller does not own.
func DecodeRowInto(dst []Value, data []byte, need []bool) (int, error) {
	ncols := bytes.IndexByte(data, recordEnd)
	if ncols < 0 {
		return 0, ErrCorrupt
	}
	last := ncols
	if len(dst) < last {
		last = len(dst)
	}
	if need != nil {
		if len(need) < last {
			last = len(need)
		}
		for last > 0 && !need[last-1] {
			last--
		}
	}
	i := ncols + 1 // payload cursor
	for k := 0; k < last; k++ {
		t := Type(data[k])
		if t > TypeBlob {
			return 0, fmt.Errorf("%w: bad type byte %d", ErrCorrupt, data[k])
		}
		want := need == nil || need[k]
		switch t {
		case TypeNull:
			if want {
				dst[k] = Value{}
			}
		case TypeInt:
			n, sz := binary.Varint(data[i:])
			if sz <= 0 {
				return 0, ErrCorrupt
			}
			i += sz
			if want {
				dst[k] = Value{typ: TypeInt, i: n}
			}
		case TypeFloat:
			if len(data)-i < 8 {
				return 0, ErrCorrupt
			}
			if want {
				dst[k] = Value{typ: TypeFloat, f: math.Float64frombits(binary.BigEndian.Uint64(data[i:]))}
			}
			i += 8
		case TypeText, TypeBlob:
			n, sz := binary.Uvarint(data[i:])
			if sz <= 0 || n > uint64(len(data)-i-sz) {
				return 0, ErrCorrupt
			}
			i += sz
			payload := data[i : i+int(n)]
			i += int(n)
			switch {
			case !want:
			case t == TypeText:
				dst[k] = Value{typ: TypeText, s: string(payload)}
			default:
				dst[k] = Value{typ: TypeBlob, b: append(make([]byte, 0, len(payload)), payload...)}
			}
		}
	}
	if last == ncols && i != len(data) {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-i)
	}
	return ncols, nil
}

// ---------------------------------------------------------------------------
// Key encoding (memcomparable)
//
// Each value is encoded as a tag byte followed by an order-preserving
// payload; bytes.Compare on the concatenation of encoded values sorts
// identically to lexicographic Compare on the value tuples. Tag bytes
// follow the cross-type sort order. Text and blob payloads use 0x00
// escaping (0x00 -> 0x00 0xFF) terminated by 0x00 0x01 so that prefixes
// sort before extensions and later tuple fields cannot bleed in.
// ---------------------------------------------------------------------------

const (
	tagNull  = 0x05
	tagNum   = 0x10 // ints and floats share a tag: numeric cross-compare
	tagText  = 0x20
	tagBlob  = 0x30
	escByte  = 0x00
	escPad   = 0xFF
	termByte = 0x01

	// Fraction-sign bytes for the numeric key tiebreak.
	fracNegative = 0x00
	fracEqual    = 0x01
	fracPositive = 0x02
)

// pow53 is 2^53, the magnitude beyond which float64 no longer
// represents every integer exactly (numeric keys switch to their long
// form there).
const pow53 = 9007199254740992.0

// floatTie computes the exact-integer tiebreak and fraction byte for a
// REAL key. Values outside int64 range clamp to the extreme int64 with
// a fraction byte that keeps them strictly beyond every integer.
func floatTie(f float64) (int64, byte) {
	if f >= maxInt64AsFloat {
		return math.MaxInt64, fracPositive
	}
	if f < minInt64AsFloat {
		return math.MinInt64, fracNegative
	}
	t := int64(f)
	frac := f - math.Trunc(f)
	switch {
	case frac > 0:
		return t, fracPositive
	case frac < 0:
		return t, fracNegative
	}
	return t, fracEqual
}

// EncodeKey appends the memcomparable encoding of vals to dst.
func EncodeKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		switch v.typ {
		case TypeNull:
			dst = append(dst, tagNull)
		case TypeInt:
			// Numeric keys carry the value as a norm-mapped float64 (so
			// INTEGER and REAL interleave) plus a fraction-sign byte.
			// Below 2^53 the float is exact and that is all; at or
			// beyond 2^53 a second, exact 8-byte integer field breaks
			// ties the float cannot (the "long form"). Equal primaries
			// always put both sides in the same form, so comparisons
			// stay well-defined and match Compare's exact semantics.
			f := float64(v.i)
			dst = append(dst, tagNum)
			dst = binary.BigEndian.AppendUint64(dst, normFloat(f))
			dst = append(dst, fracEqual)
			if f >= pow53 || f <= -pow53 {
				dst = binary.BigEndian.AppendUint64(dst, uint64(v.i)^(1<<63))
			}
		case TypeFloat:
			dst = append(dst, tagNum)
			dst = binary.BigEndian.AppendUint64(dst, normFloat(v.f))
			if v.f >= pow53 || v.f <= -pow53 {
				tie, frac := floatTie(v.f)
				dst = append(dst, frac)
				dst = binary.BigEndian.AppendUint64(dst, uint64(tie)^(1<<63))
			} else {
				_, frac := floatTie(v.f)
				dst = append(dst, frac)
			}
		case TypeText:
			dst = append(dst, tagText)
			dst = appendEscaped(dst, []byte(v.s))
		case TypeBlob:
			dst = append(dst, tagBlob)
			dst = appendEscaped(dst, v.b)
		}
	}
	return dst
}

func appendEscaped(dst, payload []byte) []byte {
	for _, c := range payload {
		if c == escByte {
			dst = append(dst, escByte, escPad)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, escByte, termByte)
}

// DecodeKeyValue decodes the first value of a key produced by EncodeKey
// and returns it with the number of bytes its encoding takes. Only a
// TEXT or BLOB value allocates.
func DecodeKeyValue(data []byte) (Value, int, error) {
	if len(data) == 0 {
		return Value{}, 0, ErrCorrupt
	}
	switch tag := data[0]; tag {
	case tagNull:
		return Null(), 1, nil
	case tagNum:
		if len(data) < 10 {
			return Value{}, 0, ErrCorrupt
		}
		f := denormFloat(binary.BigEndian.Uint64(data[1:]))
		frac := data[9]
		if f >= pow53 || f <= -pow53 {
			// Long form: the exact integer tiebreak follows.
			if len(data) < 18 {
				return Value{}, 0, ErrCorrupt
			}
			exact := int64(binary.BigEndian.Uint64(data[10:]) ^ (1 << 63))
			if frac == fracEqual && float64(exact) == f {
				return Int(exact), 18, nil
			}
			return Float(f), 18, nil
		}
		if frac == fracEqual && f == math.Trunc(f) {
			return Int(int64(f)), 10, nil
		}
		return Float(f), 10, nil
	case tagText, tagBlob:
		payload, n, err := decodeEscaped(data[1:])
		if err != nil {
			return Value{}, 0, err
		}
		if tag == tagText {
			return Text(string(payload)), 1 + n, nil
		}
		return Blob(payload), 1 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: bad key tag %#x", ErrCorrupt, tag)
	}
}

// keyTerm ends a TEXT or BLOB key payload: a 0x00 inside the payload is
// always escaped as 0x00 0xFF, so the first 0x00 0x01 is the end.
var keyTerm = []byte{escByte, termByte}

// SkipKey returns the number of bytes the encodings of the first n
// values of key take, without decoding them.
func SkipKey(key []byte, n int) (int, error) {
	i := 0
	for ; n > 0; n-- {
		if i >= len(key) {
			return 0, ErrCorrupt
		}
		switch key[i] {
		case tagNull:
			i++
		case tagNum:
			if i+10 > len(key) {
				return 0, ErrCorrupt
			}
			f := denormFloat(binary.BigEndian.Uint64(key[i+1:]))
			i += 10
			if f >= pow53 || f <= -pow53 {
				i += 8 // long form
			}
		case tagText, tagBlob:
			end := bytes.Index(key[i+1:], keyTerm)
			if end < 0 {
				return 0, ErrCorrupt
			}
			i += 1 + end + 2
		default:
			return 0, fmt.Errorf("%w: bad key tag %#x", ErrCorrupt, key[i])
		}
	}
	if i > len(key) {
		return 0, ErrCorrupt
	}
	return i, nil
}

func decodeEscaped(data []byte) (payload []byte, n int, err error) {
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c != escByte {
			payload = append(payload, c)
			continue
		}
		if i+1 >= len(data) {
			return nil, 0, ErrCorrupt
		}
		switch data[i+1] {
		case escPad:
			payload = append(payload, escByte)
			i++
		case termByte:
			return payload, i + 2, nil
		default:
			return nil, 0, ErrCorrupt
		}
	}
	return nil, 0, ErrCorrupt
}

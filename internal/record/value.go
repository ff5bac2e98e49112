// Package record defines the dynamic value model shared by the SQL
// engine and the storage layer, together with two binary encodings:
//
//   - a record encoding used for table rows (compact, self-describing),
//   - a key encoding that is memcomparable: bytes.Compare on two
//     encoded keys orders them exactly like Compare on the values.
//
// The key encoding is what lets B+tree indexes store composite keys as
// flat byte strings, mirroring the SQLite record/key formats the paper's
// implementation relies on.
package record

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the dynamic type of a Value. The ordering of the
// constants defines the cross-type sort order (NULL < numbers < text <
// blob), matching SQLite's semantics for mixed-type columns.
type Type uint8

// Value types, in cross-type sort order.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBlob
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeText:
		return "TEXT"
	case TypeBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   []byte
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a REAL value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{typ: TypeText, s: v} }

// Blob returns a BLOB value. The caller must not mutate v afterwards.
func Blob(v []byte) Value { return Value{typ: TypeBlob, b: v} }

// Bool returns an INTEGER value 1 or 0; SQL has no separate boolean type.
func Bool(v bool) Value {
	if v {
		return Int(1)
	}
	return Int(0)
}

// Type reports the dynamic type of v.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int returns the INTEGER payload; it panics if v is not an INTEGER.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		panic("record: Int() on " + v.typ.String())
	}
	return v.i
}

// Float returns the REAL payload; it panics if v is not a REAL.
func (v Value) Float() float64 {
	if v.typ != TypeFloat {
		panic("record: Float() on " + v.typ.String())
	}
	return v.f
}

// Text returns the TEXT payload; it panics if v is not TEXT.
func (v Value) Text() string {
	if v.typ != TypeText {
		panic("record: Text() on " + v.typ.String())
	}
	return v.s
}

// AsFloat converts a numeric value to float64. NULL converts to 0.
// Text converts via strconv when possible, else 0 (SQLite coercion).
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TypeInt:
		return float64(v.i)
	case TypeFloat:
		return v.f
	case TypeText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64 (REAL truncates toward zero).
// NULL converts to 0; text parses a leading integer when possible.
func (v Value) AsInt() int64 {
	switch v.typ {
	case TypeInt:
		return v.i
	case TypeFloat:
		return int64(v.f)
	case TypeText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return int64(v.AsFloat())
		}
		return n
	default:
		return 0
	}
}

// Truthy reports SQL truthiness: non-zero numbers are true, NULL and
// everything non-numeric parse like SQLite (numeric prefix of text).
func (v Value) Truthy() bool {
	switch v.typ {
	case TypeNull:
		return false
	case TypeInt:
		return v.i != 0
	case TypeFloat:
		return v.f != 0
	default:
		return v.AsFloat() != 0
	}
}

// String renders the value for display (shell output, error messages).
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeText:
		return v.s
	case TypeBlob:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (quotes text).
func (v Value) SQL() string {
	if v.typ == TypeText {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Compare orders a before b following SQLite semantics: NULL sorts
// first, then numeric values (INTEGER and REAL compare numerically
// against each other), then TEXT (bytewise), then BLOB (bytewise).
// It returns -1, 0, or +1.
func Compare(a, b Value) int {
	ka, kb := sortClass(a.typ), sortClass(b.typ)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case 0: // both NULL
		return 0
	case 1: // numeric
		switch {
		case a.typ == TypeInt && b.typ == TypeInt:
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		case a.typ == TypeInt:
			return compareIntFloat(a.i, b.f)
		case b.typ == TypeInt:
			return -compareIntFloat(b.i, a.f)
		}
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	case 2: // text
		return strings.Compare(a.s, b.s)
	default: // blob
		return compareBytes(a.b, b.b)
	}
}

func sortClass(t Type) int {
	switch t {
	case TypeNull:
		return 0
	case TypeInt, TypeFloat:
		return 1
	case TypeText:
		return 2
	default:
		return 3
	}
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
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

// compareIntFloat compares an int64 with a float64 exactly, without the
// precision loss of converting the int to float64 (values above 2^53
// would otherwise collide). Mirrors SQLite's sqlite3IntFloatCompare.
func compareIntFloat(i int64, f float64) int {
	if f >= maxInt64AsFloat {
		return -1
	}
	if f < minInt64AsFloat {
		return 1
	}
	t := int64(f) // truncation toward zero, in range by the guards above
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	}
	frac := f - math.Trunc(f)
	switch {
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	}
	return 0
}

const (
	// maxInt64AsFloat is 2^63 (the smallest float64 strictly greater
	// than every int64); minInt64AsFloat is -2^63 (exactly MinInt64).
	maxInt64AsFloat = 9223372036854775808.0
	minInt64AsFloat = -9223372036854775808.0
)

// normFloat maps a float64 to a uint64 whose unsigned ordering matches
// the float ordering (IEEE 754 total order trick, NaN not supported).
func normFloat(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative: flip all bits
	}
	return u | 1<<63 // positive: flip sign bit
}

func denormFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

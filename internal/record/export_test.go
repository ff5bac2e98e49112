package record

// DecodeKey decodes a key produced by EncodeKey. Integer values encoded
// through the numeric path decode as INTEGER when the exact tiebreak
// round-trips, REAL otherwise.
func DecodeKey(data []byte) ([]Value, error) {
	var vals []Value
	for i := 0; i < len(data); {
		v, n, err := DecodeKeyValue(data[i:])
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		i += n
	}
	return vals, nil
}

// Equal reports whether a and b compare equal (NULL equals NULL here;
// SQL three-valued logic is applied at the expression layer, not here).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Numeric reports whether v is an INTEGER or REAL.
func (v Value) Numeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

// Blob returns the BLOB payload; it panics if v is not a BLOB.
func (v Value) Blob() []byte {
	if v.typ != TypeBlob {
		panic("record: Blob() on " + v.typ.String())
	}
	return v.b
}

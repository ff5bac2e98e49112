package wire

import (
	"time"

	"rql/internal/obs"
)

// EncodeSpans appends a span list body (RespTrace payload). Attribute
// values are either a string or an int64, discriminated by IsStr.
func EncodeSpans(e *Enc, spans []obs.Span) {
	e.Uvarint(uint64(len(spans)))
	for _, s := range spans {
		e.Uvarint(s.Trace)
		e.Uvarint(s.ID)
		e.Uvarint(s.Parent)
		e.String(s.Name)
		e.Varint(s.Start.UnixNano())
		e.Duration(s.Duration)
		e.Uvarint(uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			e.String(a.Key)
			e.Bool(a.IsStr)
			if a.IsStr {
				e.String(a.Str)
			} else {
				e.Varint(a.Int)
			}
		}
	}
}

// DecodeSpans reads a span list body.
func DecodeSpans(d *Dec) []obs.Span {
	n := d.Len()
	out := make([]obs.Span, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s := obs.Span{
			Trace:  d.Uvarint(),
			ID:     d.Uvarint(),
			Parent: d.Uvarint(),
			Name:   d.String(),
		}
		s.Start = time.Unix(0, d.Varint())
		s.Duration = d.Duration()
		na := d.Len()
		s.Attrs = make([]obs.Attr, 0, na)
		for j := 0; j < na && d.Err() == nil; j++ {
			a := obs.Attr{Key: d.String(), IsStr: d.Bool()}
			if a.IsStr {
				a.Str = d.String()
			} else {
				a.Int = d.Varint()
			}
			s.Attrs = append(s.Attrs, a)
		}
		out = append(out, s)
	}
	return out
}

// EncodeSlowEntries appends a slow-query log body (RespSlow payload),
// prefixed with the server's active threshold (0 = disabled).
func EncodeSlowEntries(e *Enc, threshold time.Duration, entries []obs.SlowEntry) {
	e.Duration(threshold)
	e.Uvarint(uint64(len(entries)))
	for i := range entries {
		s := &entries[i]
		e.String(s.SQL)
		e.Duration(s.Duration)
		e.Uvarint(s.Trace)
		e.Varint(s.When.UnixNano())
		e.Varint(s.Rows)
		EncodeCost(e, s)
	}
}

// DecodeSlowEntries reads a slow-query log body.
func DecodeSlowEntries(d *Dec) (threshold time.Duration, entries []obs.SlowEntry) {
	threshold = d.Duration()
	n := d.Len()
	entries = make([]obs.SlowEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s := obs.SlowEntry{SQL: d.String(), Duration: d.Duration(), Trace: d.Uvarint()}
		s.When = time.Unix(0, d.Varint())
		s.Rows = d.Varint()
		DecodeCost(d, &s)
		entries = append(entries, s)
	}
	return threshold, entries
}

// Package obs is a stdlib-only tracing and metrics subsystem.
//
// The design goal is near-zero cost when tracing is off and small,
// bounded cost when it is on:
//
//   - StartSpan / (*Span).Child return nil when tracing is disabled,
//     and every Span method is nil-receiver safe, so instrumented call
//     sites pay one atomic load and nothing else on the disabled path.
//   - Completed spans are copied into a fixed-size ring buffer; the
//     buffer never grows and old spans are overwritten, so a traced
//     server cannot leak memory no matter how long it runs.
//   - Spans are recorded only on coarse operations (request, statement,
//     iteration, SPT build, Pagelog fetch, device command, commit) —
//     never per page get — which keeps the enabled overhead within a
//     few percent even on cache-hot workloads.
//
// Trace IDs group spans into trees: every root span draws a fresh
// trace ID, and children inherit it. The recorder is a process-wide
// singleton because the instrumented layers (storage, retro, sql,
// core, server) share one process; per-DB recorders would force every
// layer API to carry a recorder handle for no practical gain.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed span attribute. Exactly one of Str or Int is
// meaningful, selected by IsStr; this avoids interface{} boxing on the
// record path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Span is one timed operation. A Span is owned by the goroutine that
// started it until End; after End it is an immutable copy in the ring.
type Span struct {
	Trace    uint64 // trace tree ID; all spans in one request share it
	ID       uint64 // unique span ID
	Parent   uint64 // parent span ID, 0 for roots
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// DefaultRingSize is the number of completed spans retained.
const DefaultRingSize = 8192

var (
	enabled atomic.Bool
	idSeq   atomic.Uint64

	ringMu   sync.Mutex
	ring     = make([]Span, DefaultRingSize)
	ringNext uint64 // total spans recorded since last reset
)

// SetTracing turns span recording on or off process-wide.
func SetTracing(on bool) { enabled.Store(on) }

// Enabled reports whether tracing is currently on.
func Enabled() bool { return enabled.Load() }

// ResetSpans discards all recorded spans.
func ResetSpans() {
	ringMu.Lock()
	for i := range ring {
		ring[i] = Span{}
	}
	ringNext = 0
	ringMu.Unlock()
}

// StartSpan begins a span. With a nil parent it starts a new trace
// root; otherwise the child joins the parent's trace. Returns nil when
// tracing is disabled — all Span methods tolerate a nil receiver, so
// callers never need to branch.
func StartSpan(parent *Span, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	if parent != nil {
		return parent.Child(name)
	}
	return &Span{
		Trace: idSeq.Add(1),
		ID:    idSeq.Add(1),
		Start: time.Now(),
		Name:  name,
	}
}

// StartSpanInTrace begins a root span that joins an existing trace —
// the wire propagation path, where the trace ID was minted by a
// remote client and arrived on the request frame. The caller already
// made the sampling decision (the frame carries a sampled flag); remote
// roots are still dropped entirely while tracing is disabled.
// Client-minted IDs live in the upper half of the ID space (high bit
// set, see NewTraceID in the client), so they never collide with the
// local idSeq roots.
func StartSpanInTrace(trace uint64, name string) *Span {
	if !enabled.Load() || trace == 0 {
		return nil
	}
	return &Span{
		Trace: trace,
		ID:    idSeq.Add(1),
		Start: time.Now(),
		Name:  name,
	}
}

// Child begins a sub-span of s. Nil-safe: a nil parent yields a nil
// child, so an untraced operation never sprouts orphan spans.
func (s *Span) Child(name string) *Span {
	if s == nil || !enabled.Load() {
		return nil
	}
	return &Span{
		Trace:  s.Trace,
		ID:     idSeq.Add(1),
		Parent: s.ID,
		Start:  time.Now(),
		Name:   name,
	}
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	}
	return s
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Str: v, IsStr: true})
	}
	return s
}

// TraceID returns the span's trace ID, or 0 for a nil span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.Trace
}

// End stamps the duration and records the span into the ring. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	record(*s)
}

// Record emits a retrospective span under parent covering an interval
// that was measured out-of-band (e.g. the cost fields the mechanisms
// already track). No-op when parent is nil or tracing is off.
func Record(parent *Span, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if parent == nil || !enabled.Load() {
		return
	}
	record(Span{
		Trace:    parent.Trace,
		ID:       idSeq.Add(1),
		Parent:   parent.ID,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	})
}

func record(s Span) {
	ringMu.Lock()
	ring[ringNext%uint64(len(ring))] = s
	ringNext++
	ringMu.Unlock()
}

// Spans returns the retained spans, oldest first.
func Spans() []Span {
	ringMu.Lock()
	defer ringMu.Unlock()
	n := ringNext
	size := uint64(len(ring))
	if n > size {
		n = size
	}
	out := make([]Span, 0, n)
	start := ringNext - n
	for i := uint64(0); i < n; i++ {
		out = append(out, ring[(start+i)%size])
	}
	return out
}

// TraceSpans returns the retained spans belonging to one trace,
// oldest first. trace == 0 returns nil.
func TraceSpans(trace uint64) []Span {
	if trace == 0 {
		return nil
	}
	all := Spans()
	out := make([]Span, 0, 16)
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// LastTrace returns the trace ID of the most recently recorded span,
// or 0 if the ring is empty.
func LastTrace() uint64 {
	ringMu.Lock()
	defer ringMu.Unlock()
	if ringNext == 0 {
		return 0
	}
	return ring[(ringNext-1)%uint64(len(ring))].Trace
}

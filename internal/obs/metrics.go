package obs

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the metric registry: a counter, gauge or histogram is
// declared once, as a tagged field of the struct its layer increments,
//
//	type Stats struct {
//		PagelogReads obs.Counter `metric:"retro_pagelog_reads" help:"Billed Pagelog page reads."`
//	}
//
// and NewSet(&stats) reflects over the struct once to collect each
// field's address with its name, help and kind. Increments stay the
// bare field-level atomic (stats.PagelogReads.Add(1)); Snapshot, Reset
// and Fill walk the collected pointers. The []Metric a Snapshot returns
// is the one list the STATS frame ships and every renderer walks.

// Kind selects how a metric is reset, sampled and rendered.
type Kind uint8

const (
	KindCounter   Kind = iota // cumulative; zeroed by Reset, rated by the timeline
	KindGauge                 // point-in-time; survives Reset
	KindHistogram             // cumulative bucket counts and sum
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a cumulative count.
type Counter struct{ atomic.Uint64 }

// Gauge is a point-in-time value; a negative value samples as zero.
type Gauge struct{ atomic.Int64 }

// Histogram counts samples into fixed buckets. Its bounds come
// from the declaring field's `buckets` tag: plain integers
// ("1,2,4,8"), or durations ("100us,1ms,1s") for a histogram that
// observes nanoseconds and is exposed in seconds.
type Histogram struct {
	bounds []uint64 // inclusive upper bounds, ascending; +Inf is implicit
	div    float64  // observed units per exposed unit (1e9 for durations)
	counts []atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// Metric is one sampled metric. Counters and gauges carry Value;
// histograms carry Bounds (exposed units, +Inf implicit), disjoint
// per-bucket Counts (len(Bounds)+1) and Sum. Label/LabelValue, when
// set, make this one series of a labelled family (per view, per
// replica). Help travels only inside the process that declared it.
type Metric struct {
	Name, Help        string
	Kind              Kind
	Label, LabelValue string
	Value             uint64
	Bounds            []float64
	Counts            []uint64
	Sum               float64
}

// Key is the metric's flat name: Name, or Name.LabelValue for a
// labelled series — the form /vars, the timeline and .stats print.
func (m Metric) Key() string {
	if m.Label == "" {
		return m.Name
	}
	return m.Name + "." + m.LabelValue
}

// Find returns the first metric whose Key is key.
func Find(ms []Metric, key string) (Metric, bool) {
	for _, m := range ms {
		if m.Key() == key {
			return m, true
		}
	}
	return Metric{}, false
}

type entry struct {
	name, help, field string
	c                 *Counter
	g                 *Gauge
	h                 *Histogram
}

// Set is an ordered collection of declared metrics.
type Set struct {
	mu      sync.Mutex
	entries []entry
}

// NewSet collects the metrics declared by each decl (see Register).
func NewSet(decls ...any) *Set {
	s := &Set{}
	for _, d := range decls {
		s.Register(d)
	}
	return s
}

// Register adds the metrics decl declares: decl is a pointer to a
// struct, and every Counter, Gauge or Histogram field of it must carry
// a `metric:"name"` and a `help:"..."` tag (a Histogram also
// `buckets:"..."`). A malformed declaration is a programming error and
// panics at start-up, not at the first scrape.
func (s *Set) Register(decl any) {
	v := reflect.ValueOf(decl)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: Register needs a pointer to a struct, got %T", decl))
	}
	v = v.Elem()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			// reflect cannot take its address; a metric hiding here would
			// silently never be reported.
			switch f.Type {
			case reflect.TypeOf(Counter{}), reflect.TypeOf(Gauge{}), reflect.TypeOf(Histogram{}):
				panic(fmt.Sprintf("obs: metric field %s.%s must be exported", v.Type(), f.Name))
			}
			continue
		}
		e := entry{name: f.Tag.Get("metric"), help: f.Tag.Get("help"), field: f.Name}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *Counter:
			e.c = p
		case *Gauge:
			e.g = p
		case *Histogram:
			e.h = p
			if err := p.init(f.Tag.Get("buckets")); err != nil {
				panic(fmt.Sprintf("obs: %s.%s: %v", v.Type(), f.Name, err))
			}
		default:
			continue
		}
		if !validMetricName(e.name) || e.help == "" {
			panic(fmt.Sprintf("obs: %s.%s needs a valid metric name and a help tag", v.Type(), f.Name))
		}
		for _, have := range s.entries {
			if have.name == e.name {
				panic(fmt.Sprintf("obs: metric %q declared twice", e.name))
			}
		}
		s.entries = append(s.entries, e)
	}
}

func (h *Histogram) init(buckets string) error {
	h.div = 1
	for _, tok := range strings.Split(buckets, ",") {
		b, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			d, derr := time.ParseDuration(tok)
			if derr != nil || d <= 0 {
				return fmt.Errorf("bad bucket bound %q", tok)
			}
			b, h.div = uint64(d), 1e9
		}
		if n := len(h.bounds); n > 0 && b <= h.bounds[n-1] {
			return fmt.Errorf("bucket bounds %q not ascending", buckets)
		}
		h.bounds = append(h.bounds, b)
	}
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	return nil
}

// Snapshot samples every metric in declaration order.
func (s *Set) Snapshot() []Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Metric, 0, len(s.entries))
	for _, e := range s.entries {
		m := Metric{Name: e.name, Help: e.help}
		switch {
		case e.c != nil:
			m.Value = e.c.Load()
		case e.g != nil:
			m.Kind = KindGauge
			m.Value = uint64(max(e.g.Load(), 0))
		default:
			m.Kind = KindHistogram
			m.Bounds = make([]float64, len(e.h.bounds))
			for i, b := range e.h.bounds {
				m.Bounds[i] = float64(b) / e.h.div
			}
			m.Counts = e.h.load()
			m.Sum = float64(e.h.sum.Load()) / e.h.div
		}
		out = append(out, m)
	}
	return out
}

func (h *Histogram) load() []uint64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// Reset zeroes every counter and histogram; gauges are left alone.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		switch {
		case e.c != nil:
			e.c.Store(0)
		case e.h != nil:
			e.h.sum.Store(0)
			for i := range e.h.counts {
				e.h.counts[i].Store(0)
			}
		}
	}
}

// Fill copies current values into the typed snapshot struct dst points
// to, matching each metric's declaring field name: counters and gauges
// fill a uint64 field, histograms a [n]uint64 of per-bucket counts.
// Metrics dst has no field for are skipped, so a new counter needs no
// snapshot field until some Go caller wants to read it by name.
func (s *Set) Fill(dst any) {
	v := reflect.ValueOf(dst).Elem()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		f := v.FieldByName(e.field)
		if !f.IsValid() {
			continue
		}
		switch {
		case e.c != nil:
			f.SetUint(e.c.Load())
		case e.g != nil:
			f.SetUint(uint64(max(e.g.Load(), 0)))
		default:
			reflect.Copy(f, reflect.ValueOf(e.h.load()))
		}
	}
}

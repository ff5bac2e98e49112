package obs

import (
	"sync"
	"time"
)

// DefaultTimelinePoints is the number of timeline samples retained.
const DefaultTimelinePoints = 120

// Point is one telemetry sample: per-second rates for cumulative
// counters (computed from consecutive deltas) and raw gauge values,
// all keyed by metric name. The JSON shape is what /timeline serves
// and what rqlshell's .top renders.
type Point struct {
	When     time.Time          `json:"when"`
	Interval time.Duration      `json:"interval_ns"`
	Rates    map[string]float64 `json:"rates"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Timeline samples the metric list on a fixed period and retains the
// resulting points in a ring, keyed by Metric.Key. Counters are
// converted to per-second rates between consecutive samples; a counter
// that moves backwards (stats reset) re-baselines with a zero rate
// rather than reporting a huge negative one. Gauges pass through;
// histograms are not sampled.
type Timeline struct {
	period time.Duration
	sample func() []Metric

	mu     sync.Mutex
	ring   []Point
	next   uint64
	prev   map[string]uint64
	prevAt time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewTimeline builds a sampler that calls sample every period and
// keeps the most recent size points. It does not start sampling until
// Start is called. period <= 0 defaults to one second, size < 1 to
// DefaultTimelinePoints.
func NewTimeline(period time.Duration, size int, sample func() []Metric) *Timeline {
	if period <= 0 {
		period = time.Second
	}
	if size < 1 {
		size = DefaultTimelinePoints
	}
	return &Timeline{
		period: period,
		sample: sample,
		ring:   make([]Point, size),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Period returns the sampling period.
func (t *Timeline) Period() time.Duration { return t.period }

// Start begins background sampling. The first tick only establishes
// the rate baseline; points appear from the second tick on.
func (t *Timeline) Start() {
	go func() {
		defer close(t.done)
		ticker := time.NewTicker(t.period)
		defer ticker.Stop()
		t.tick() // baseline immediately, not a period later
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				t.tick()
			}
		}
	}()
}

// Stop halts sampling and waits for the sampler goroutine to exit.
// Safe to call more than once; a Timeline cannot be restarted.
func (t *Timeline) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

func (t *Timeline) tick() {
	counters, gauges := map[string]uint64{}, map[string]float64{}
	for _, m := range t.sample() {
		switch m.Kind {
		case KindCounter:
			counters[m.Key()] = m.Value
		case KindGauge:
			gauges[m.Key()] = float64(m.Value)
		}
	}
	now := time.Now()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.prev != nil {
		dt := now.Sub(t.prevAt)
		if dt <= 0 {
			dt = t.period
		}
		rates := make(map[string]float64, len(counters))
		for k, v := range counters {
			prev, ok := t.prev[k]
			if !ok || v < prev {
				rates[k] = 0
				continue
			}
			rates[k] = float64(v-prev) / dt.Seconds()
		}
		t.ring[t.next%uint64(len(t.ring))] = Point{
			When:     now,
			Interval: dt,
			Rates:    rates,
			Gauges:   gauges,
		}
		t.next++
	}
	t.prev = counters
	t.prevAt = now
}

// Points returns the retained points, oldest first.
func (t *Timeline) Points() []Point {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	size := uint64(len(t.ring))
	if n > size {
		n = size
	}
	out := make([]Point, 0, n)
	start := t.next - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.ring[(start+i)%size])
	}
	return out
}

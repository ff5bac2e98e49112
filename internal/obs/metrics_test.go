package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

type layerStats struct {
	Reads   Counter   `metric:"layer_reads" help:"Reads."`
	Depth   Gauge     `metric:"layer_depth" help:"Depth."`
	Sizes   Histogram `metric:"layer_sizes" help:"Sizes." buckets:"1,2,4"`
	Latency Histogram `metric:"layer_latency_seconds" help:"Latency." buckets:"100us,1ms"`
	private int       // non-metric fields are ignored
}

type layerSnapshot struct {
	Reads uint64
	Depth uint64
	Sizes [4]uint64
	// no Latency field: Fill skips metrics the typed view does not name
}

func TestSetSnapshotResetFill(t *testing.T) {
	var st layerStats
	set := NewSet(&st)

	st.Reads.Add(3)
	st.Depth.Store(5)
	st.Sizes.Observe(1)
	st.Sizes.Observe(3)
	st.Sizes.Observe(9)
	st.Latency.Observe(uint64(50 * time.Microsecond))
	st.Latency.Observe(uint64(2 * time.Millisecond))

	want := []Metric{
		{Name: "layer_reads", Help: "Reads.", Kind: KindCounter, Value: 3},
		{Name: "layer_depth", Help: "Depth.", Kind: KindGauge, Value: 5},
		{Name: "layer_sizes", Help: "Sizes.", Kind: KindHistogram,
			Bounds: []float64{1, 2, 4}, Counts: []uint64{1, 0, 1, 1}, Sum: 13},
		// A duration histogram observes nanoseconds and is exposed in
		// seconds, bounds and sum alike.
		{Name: "layer_latency_seconds", Help: "Latency.", Kind: KindHistogram,
			Bounds: []float64{0.0001, 0.001}, Counts: []uint64{1, 0, 1}, Sum: 0.00205},
	}
	if got := set.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot =\n %+v\nwant\n %+v", got, want)
	}

	var snap layerSnapshot
	set.Fill(&snap)
	if snap != (layerSnapshot{Reads: 3, Depth: 5, Sizes: [4]uint64{1, 0, 1, 1}}) {
		t.Fatalf("Fill = %+v", snap)
	}

	// Reset zeroes counters and histograms; the gauge survives.
	set.Reset()
	set.Fill(&snap)
	if snap != (layerSnapshot{Depth: 5}) {
		t.Fatalf("after Reset, Fill = %+v", snap)
	}
	if m, _ := Find(set.Snapshot(), "layer_latency_seconds"); m.Sum != 0 || m.Counts[0] != 0 {
		t.Fatalf("Reset left the histogram at %+v", m)
	}

	// A negative gauge (a decrement racing its increment) samples as 0.
	st.Depth.Store(-1)
	if m, _ := Find(set.Snapshot(), "layer_depth"); m.Value != 0 {
		t.Fatalf("negative gauge sampled as %d", m.Value)
	}
}

func TestRegisterRejectsBadDeclarations(t *testing.T) {
	for name, decl := range map[string]any{
		"not a pointer": layerStats{},
		"unexported field": &struct {
			c Counter `metric:"c" help:"h"`
		}{},
		"no help": &struct {
			C Counter `metric:"c"`
		}{},
		"no name": &struct {
			C Counter `help:"h"`
		}{},
		"invalid name": &struct {
			C Counter `metric:"1c" help:"h"`
		}{},
		"no buckets": &struct {
			H Histogram `metric:"h" help:"h"`
		}{},
		"unsorted buckets": &struct {
			H Histogram `metric:"h" help:"h" buckets:"2,1"`
		}{},
		"duplicate name": &struct {
			A Counter `metric:"c" help:"h"`
			B Counter `metric:"c" help:"h"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register accepted it", name)
				}
			}()
			NewSet(decl)
		}()
	}
}

// TestSetConcurrent increments, samples, resets and registers from
// several goroutines at once; under -race it pins the set's locking.
func TestSetConcurrent(t *testing.T) {
	var st layerStats
	set := NewSet(&st)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st.Reads.Add(1)
				st.Sizes.Observe(uint64(i % 8))
				switch g {
				case 0:
					set.Snapshot()
				case 1:
					set.Fill(&layerSnapshot{})
				case 2:
					if i%100 == 0 {
						set.Reset()
					}
				case 3:
					if i == 250 {
						set.Register(&struct {
							Late Counter `metric:"late" help:"Registered while live."`
						}{})
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, ok := Find(set.Snapshot(), "late"); !ok {
		t.Fatal("metric registered on a live set is not sampled")
	}
}

func TestWriteVars(t *testing.T) {
	var b strings.Builder
	WriteVars(&b, []Metric{
		{Name: "reads", Value: 7},
		{Name: "busy_ns", Value: 1500},
		{Name: "lag", Kind: KindGauge, Label: "replica", LabelValue: "r1", Value: 2},
		{Name: "sizes", Kind: KindHistogram, Bounds: []float64{1, 2}, Counts: []uint64{4, 0, 1}, Sum: 9},
	})
	want := "reads 7\nbusy_ns 1500 (1.5µs)\nlag.r1 2\nsizes_le.1 4\nsizes_le.2 0\nsizes_le.inf 1\nsizes_sum 9\n"
	if b.String() != want {
		t.Fatalf("WriteVars =\n%s\nwant\n%s", b.String(), want)
	}
}

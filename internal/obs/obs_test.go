package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func reset(t *testing.T) {
	t.Helper()
	SetTracing(false)
	ResetSpans()
	SetSlowThreshold(0)
	ResetSlowLog()
	t.Cleanup(func() {
		SetTracing(false)
		ResetSpans()
		SetSlowThreshold(0)
		ResetSlowLog()
	})
}

func TestDisabledIsNil(t *testing.T) {
	reset(t)
	sp := StartSpan(nil, "root")
	if sp != nil {
		t.Fatalf("StartSpan with tracing off = %v, want nil", sp)
	}
	// Every method must tolerate the nil receiver.
	sp.SetInt("k", 1).SetStr("s", "v").Child("c").End()
	sp.EndAt(time.Second)
	Record(sp, "x", time.Now(), time.Second)
	if got := sp.TraceID(); got != 0 {
		t.Fatalf("nil TraceID = %d, want 0", got)
	}
	if n := len(Spans()); n != 0 {
		t.Fatalf("ring has %d spans, want 0", n)
	}
}

func TestSpanTree(t *testing.T) {
	reset(t)
	SetTracing(true)
	root := StartSpan(nil, "root")
	if root == nil {
		t.Fatal("StartSpan returned nil with tracing on")
	}
	child := root.Child("child").SetInt("pages", 7)
	grand := child.Child("grand").SetStr("dev", "pagelog")
	grand.End()
	child.End()
	root.End()

	spans := TraceSpans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != root.ID || byName["grand"].Parent != child.ID {
		t.Fatalf("parent links wrong: %+v", byName)
	}
	if byName["child"].Trace != root.Trace || byName["grand"].Trace != root.Trace {
		t.Fatal("trace IDs not inherited")
	}
	if LastTrace() != root.Trace {
		t.Fatalf("LastTrace = %d, want %d", LastTrace(), root.Trace)
	}
}

func TestRingWraps(t *testing.T) {
	reset(t)
	SetTracing(true)
	for i := 0; i < DefaultRingSize+6; i++ {
		StartSpan(nil, "s").End()
	}
	if n := len(Spans()); n != DefaultRingSize {
		t.Fatalf("ring retained %d, want %d", n, DefaultRingSize)
	}
}

func TestRetroactiveRecord(t *testing.T) {
	reset(t)
	SetTracing(true)
	root := StartSpan(nil, "root")
	start := time.Now().Add(-50 * time.Millisecond)
	Record(root, "measured", start, 40*time.Millisecond, Attr{Key: "n", Int: 3})
	root.End()
	spans := TraceSpans(root.TraceID())
	var found bool
	for _, s := range spans {
		if s.Name == "measured" {
			found = true
			if s.Duration != 40*time.Millisecond {
				t.Fatalf("duration = %v", s.Duration)
			}
			if s.Parent != root.ID {
				t.Fatal("retroactive span not parented")
			}
		}
	}
	if !found {
		t.Fatal("retroactive span not recorded")
	}
}

func TestWriteTraceEvents(t *testing.T) {
	reset(t)
	SetTracing(true)
	root := StartSpan(nil, "root").SetStr("sql", "SELECT 1")
	root.Child("child").SetInt("pages", 2).End()
	root.End()

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("phase = %q, want X", ev.Ph)
		}
	}
}

func TestFormatTree(t *testing.T) {
	reset(t)
	SetTracing(true)
	root := StartSpan(nil, "server.exec")
	child := root.Child("sql.exec").SetStr("sql", "SELECT 1")
	child.Child("rql.iteration").SetInt("snapshot", 17).End()
	child.End()
	root.End()

	out := FormatTree(TraceSpans(root.TraceID()))
	for _, want := range []string{"server.exec", "  sql.exec", "    rql.iteration", `sql="SELECT 1"`, "snapshot=17"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
}

func TestSlowLog(t *testing.T) {
	reset(t)
	ObserveQuery(SlowEntry{SQL: "SELECT slow", Duration: time.Second, Rows: 1})
	if n := len(SlowEntries()); n != 0 {
		t.Fatalf("disabled slow log recorded %d entries", n)
	}
	SetSlowThreshold(10 * time.Millisecond)
	ObserveQuery(SlowEntry{SQL: "SELECT fast", Duration: time.Millisecond, Rows: 1})
	ObserveQuery(SlowEntry{SQL: "SELECT slow", Duration: 20 * time.Millisecond, Trace: 42, Rows: 9,
		Mechanism: "CollateData", PagelogReads: 40, PrunedIters: 3})
	entries := SlowEntries()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.SQL != "SELECT slow" || e.Trace != 42 || e.Rows != 9 {
		t.Fatalf("bad entry: %+v", e)
	}
	if e.Mechanism != "CollateData" || e.PagelogReads != 40 || e.PrunedIters != 3 || e.When.IsZero() {
		t.Fatalf("cost fields not recorded: %+v", e)
	}
	if line := e.String(); !strings.Contains(line, "mech=CollateData pagelog_reads=40 pruned=3") {
		t.Fatalf("entry renders as %q", line)
	}
}

func TestConcurrentEmission(t *testing.T) {
	reset(t)
	SetTracing(true)
	root := StartSpan(nil, "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := root.Child("work")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := len(TraceSpans(root.TraceID())); n != 8*200+1 {
		t.Fatalf("recorded %d spans, want %d", n, 8*200+1)
	}
}

package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one statement batch or mechanism run that exceeded the
// slow threshold. Its tagged fields are a cost record (cost.go): the
// retrospective costs the log keeps, billed from a statement's or a
// run's record with AddCost. All zero means plain SQL — nothing
// retrospective happened.
type SlowEntry struct {
	SQL      string
	Duration time.Duration
	Trace    uint64 // trace ID if the statement was traced, else 0
	When     time.Time
	Rows     int64

	Mechanism    string `cost:"mech,id"`       // mechanism name (CollateData, ...) or ""
	PagelogReads int64  `cost:"pagelog_reads"` // billed Pagelog reads
	PrunedIters  int64  `cost:"pruned"`        // iterations skipped by delta pruning
}

// String renders the entry as one log line, the form /slow and the
// shell's .slow print.
func (e SlowEntry) String() string {
	return fmt.Sprintf("%s  %10v  rows=%-6d trace=%d  %s  %s",
		e.When.Format("15:04:05.000"), e.Duration, e.Rows, e.Trace, FormatCost(&e), e.SQL)
}

// slowLogSize bounds the retained slow-query entries.
const slowLogSize = 128

var (
	slowThreshold atomic.Int64 // nanoseconds; 0 disables the log

	slowMu   sync.Mutex
	slowRing [slowLogSize]SlowEntry
	slowNext uint64
)

// SetSlowThreshold records statements at or above d in the slow-query
// log. d == 0 disables the log. Independent of SetTracing: the slow
// log works even with span recording off.
func SetSlowThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	slowThreshold.Store(int64(d))
}

// SlowThreshold returns the current threshold (0 = disabled).
func SlowThreshold() time.Duration { return time.Duration(slowThreshold.Load()) }

// ObserveQuery records e, stamped with the current time, in the slow log
// if its duration meets the threshold. Cheap when the log is disabled:
// one atomic load.
func ObserveQuery(e SlowEntry) {
	t := slowThreshold.Load()
	if t == 0 || int64(e.Duration) < t {
		return
	}
	e.When = time.Now()
	slowMu.Lock()
	slowRing[slowNext%slowLogSize] = e
	slowNext++
	slowMu.Unlock()
}

// SlowEntries returns retained slow-query entries, oldest first.
func SlowEntries() []SlowEntry {
	slowMu.Lock()
	defer slowMu.Unlock()
	n := slowNext
	if n > slowLogSize {
		n = slowLogSize
	}
	out := make([]SlowEntry, 0, n)
	start := slowNext - n
	for i := uint64(0); i < n; i++ {
		out = append(out, slowRing[(start+i)%slowLogSize])
	}
	return out
}

// ResetSlowLog discards all slow-query entries.
func ResetSlowLog() {
	slowMu.Lock()
	slowRing = [slowLogSize]SlowEntry{}
	slowNext = 0
	slowMu.Unlock()
}

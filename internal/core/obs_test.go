package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rql/internal/obs"
)

// resetTracing restores the process-global recorder around a test.
func resetTracing(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		obs.SetTracing(false)
		obs.ResetSpans()
	})
	obs.SetTracing(false)
	obs.ResetSpans()
}

// The observability property: the span recorder watches a run, it never
// participates in one. Every mechanism must produce byte-identical
// results with tracing on and off, bill the same PagelogReads/CacheHits
// totals, and the same per-iteration counter series the paper's figures
// (6-13) are plotted from.
func TestTracingNeutrality(t *testing.T) {
	resetTracing(t)
	qqs := map[mechKind]string{
		mechCollate:   `SELECT k, grp, current_snapshot() AS sid FROM m`,
		mechAggVar:    `SELECT COUNT(*) FROM m`,
		mechAggTable:  `SELECT grp, COUNT(*) AS c, AVG(v) AS av FROM m GROUP BY grp`,
		mechIntervals: `SELECT k FROM m`,
	}
	sel := map[mechKind]string{
		mechCollate:   `SELECT k, grp, sid FROM %s`,
		mechAggVar:    `SELECT * FROM %s`,
		mechAggTable:  `SELECT grp, c, round(av, 6) FROM %s`,
		mechIntervals: `SELECT k, start_snapshot, end_snapshot FROM %s`,
	}
	r, c := pruneHistory(t, narrowM, 61, 30)
	qs := `SELECT snap_id FROM SnapIds`
	for _, kind := range []mechKind{mechCollate, mechAggVar, mechAggTable, mechIntervals} {
		label := kind.String()
		offT, onT := "TrOff_"+label, "TrOn_"+label

		obs.SetTracing(false)
		r.db.Retro().ResetCache()
		offRS := runMech(t, r, c, kind, qs, qqs[kind], offT)

		obs.SetTracing(true)
		obs.ResetSpans()
		r.db.Retro().ResetCache()
		onRS := runMech(t, r, c, kind, qs, qqs[kind], onT)
		spans := len(obs.Spans())
		obs.SetTracing(false)
		if spans == 0 {
			t.Fatalf("%s: traced run recorded no spans", label)
		}

		a := sortedRows(t, c, fmt.Sprintf(sel[kind], offT))
		b := sortedRows(t, c, fmt.Sprintf(sel[kind], onT))
		if strings.Join(a, ";") != strings.Join(b, ";") {
			t.Fatalf("%s: traced result differs from untraced\nuntraced: %v\ntraced:   %v", label, a, b)
		}
		offTot, onTot := offRS.Total(), onRS.Total()
		if offTot.PagelogReads != onTot.PagelogReads || offTot.CacheHits != onTot.CacheHits {
			t.Errorf("%s: tracing changed the billed totals: untraced reads=%d hits=%d, traced reads=%d hits=%d",
				label, offTot.PagelogReads, offTot.CacheHits, onTot.PagelogReads, onTot.CacheHits)
		}
		if len(offRS.Iterations) != len(onRS.Iterations) {
			t.Fatalf("%s: iteration counts differ: %d vs %d",
				label, len(offRS.Iterations), len(onRS.Iterations))
		}
		for i := range offRS.Iterations {
			u, v := offRS.Iterations[i], onRS.Iterations[i]
			if u.PagelogReads != v.PagelogReads || u.CacheHits != v.CacheHits ||
				u.QqRows != v.QqRows || u.Pruned != v.Pruned || u.DeltaPages != v.DeltaPages {
				t.Errorf("%s: iteration %d series diverge: untraced %+v, traced %+v",
					label, i, u, v)
			}
		}
	}
}

// TestTracedSpanEmissionRace hammers the recorder from every concurrent
// producer at once — mechanism runs on their own connections, four at a
// time, and their device commands — while a reader drains the ring and
// a toggler flips sampling, so the tier-1 -race run covers the
// recorder's synchronization.
func TestTracedSpanEmissionRace(t *testing.T) {
	resetTracing(t)
	r, _ := pruneHistory(t, narrowM, 7, 24)
	obs.SetTracing(true)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, s := range obs.Spans() {
				_ = s.Name
			}
		}
	}()
	go func() {
		defer wg.Done()
		on := true
		for {
			select {
			case <-done:
				return
			default:
			}
			on = !on
			obs.SetTracing(on)
		}
	}()

	const producers = 4
	errs := make(chan error, producers)
	for i := 0; i < 3; i++ {
		r.db.Retro().ResetCache()
		var runs sync.WaitGroup
		for p := 0; p < producers; p++ {
			runs.Add(1)
			go func() {
				defer runs.Done()
				_, err := r.CollateData(r.db.Conn(), `SELECT snap_id FROM SnapIds`,
					`SELECT k, grp FROM m`, fmt.Sprintf("RaceOut_%d_%d", i, p))
				errs <- err
			}()
		}
		runs.Wait()
		for p := 0; p < producers; p++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

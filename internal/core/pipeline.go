package core

import (
	"time"

	"rql/internal/obs"
	"rql/internal/sql"
)

// Cross-iteration read-ahead pipelining: while loop-body iteration i
// evaluates Qq, the pages iteration i+1 is likely to demand are warmed
// into the snapshot page cache through the asynchronous device pool, so
// their device service time overlaps evaluation instead of serializing
// behind it.
//
// The prediction is the previous executed iteration's page read-set
// intersected with the next member's SPT (reusing the read-set
// machinery delta pruning is built on — consecutive snapshots of the
// same query touch nearly identical page sets); the first iteration has
// no read-set yet and falls back to warming the whole SPT, the
// clustered-prefetch plan. Warmed pages are billed lazily on first
// demand touch (see retro's device model), so PagelogReads and every
// other per-read counter are identical with pipelining on or off.

// pipelineBudget caps the pages one warm may put in flight, bounding
// cache churn and device-queue occupancy per iteration.
const pipelineBudget = 1024

// pipeState is one lane's warm state (warms never cross a parallel
// chunk boundary).
type pipeState struct {
	warm     *sql.Warm   // in-flight warm, nil when none
	warmSnap uint64      // the member warm targets
	warmSpan *obs.Span   // open span covering launch → settle (nil when untraced)
	prevRS   sql.PageSet // read-set of the last executed iteration
	pages    int         // pages installed by completed warms (→ PipelinedPrefetches)
}

// await blocks until the warm targeting snap completed (a no-op when
// none is in flight) and credits the iteration with the device time
// that was hidden behind the previous iteration's evaluation: the
// fetch's wall time minus the time await actually had to block,
// clamped at zero.
func (p *pipeState) await(snap uint64, cost *IterationCost) {
	if p.warm == nil {
		return
	}
	t0 := time.Now()
	n, _ := p.warm.Wait() // warm errors are best-effort: demand reads re-fetch
	blocked := time.Since(t0)
	if p.warmSnap == snap {
		if hidden := p.warm.Duration() - blocked; hidden > 0 {
			cost.OverlapTime = hidden
		}
	}
	p.pages += n
	p.settleSpan(n)
	p.warm = nil
}

// settleSpan closes the warm's span with the pages actually installed.
func (p *pipeState) settleSpan(pages int) {
	if p.warmSpan != nil {
		p.warmSpan.SetInt("pages", int64(pages)).End()
		p.warmSpan = nil
	}
}

// launch starts warming next's likely pages (no-op when next is zero or
// a warm is already in flight). Errors are swallowed: warming is an
// optimization, and any page it fails to load is simply demand-read.
// sp, when non-nil, parents a "pipeline.warm" span that stays open
// until the warm settles, with the fetch's device commands beneath it.
func (p *pipeState) launch(set *sql.ReaderSet, next uint64, sp *obs.Span) {
	if next == 0 || p.warm != nil || set == nil {
		return
	}
	wsp := sp.Child("pipeline.warm").SetInt("snapshot", int64(next))
	var w *sql.Warm
	var err error
	if p.prevRS == nil {
		w, err = set.WarmAll(next, pipelineBudget, wsp)
	} else {
		w, err = set.Warm(next, p.prevRS, pipelineBudget, wsp)
	}
	if err == nil {
		p.warm = w
		p.warmSnap = next
		p.warmSpan = wsp
	} else {
		wsp.End()
	}
}

// drain waits out any in-flight warm — called once a lane is done (or
// failed) so no fetch outlives the run.
func (p *pipeState) drain() {
	if p.warm == nil {
		return
	}
	n, _ := p.warm.Wait()
	p.pages += n
	p.settleSpan(n)
	p.warm = nil
}

// finishPipelineStats derives the run-level prefetch summary from the
// per-iteration counters: hits are demand reads satisfied early by a
// warmed page; wasted is every warmed page never demanded.
func finishPipelineStats(run *RunStats) {
	t := run.Total()
	run.PrefetchHits = t.PrefetchHits
	if w := run.PipelinedPrefetches - t.PrefetchHits; w > 0 {
		run.PrefetchWasted = w
	}
}

package core

import (
	"fmt"
	"testing"
)

// The pipelined-I/O property: cross-iteration read-ahead changes when
// pages travel from the Pagelog, never what any iteration computes or
// how much work it is billed. Every mechanism, sequential and parallel,
// with pruning on and off, must produce byte-identical results with
// pipelining on and off (both checked against the never-pipelined UDF
// form) — and for the deterministic sequential runs the
// per-iteration PagelogReads/CacheHits series must match exactly (lazy
// billing charges a warmed page to the iteration that demands it).
func TestPipelinedIOEquivalence(t *testing.T) {
	for seed := int64(60); seed < 62; seed++ {
		r, c := pruneHistory(t, seed, 30)
		qs := `SELECT snap_id FROM SnapIds`
		for _, fx := range allFixtures {
			for _, parallel := range []bool{false, true} {
				for _, pruneOn := range []bool{false, true} {
					label := fmt.Sprintf("%s_p%v_prune%v_s%d", fx.tag(), parallel, pruneOn, seed)
					onT, offT := "PipeOn_"+label, "PipeOff_"+label
					r.SetDeltaPrune(pruneOn)

					r.db.Retro().ResetCache()
					r.SetPipelinedIO(true)
					prs := runFixture(t, r, c, fx, qs, onT, parallel)
					r.db.Retro().ResetCache()
					r.SetPipelinedIO(false)
					srs := runFixture(t, r, c, fx, qs, offT, parallel)
					assertSameResult(t, c, fx, "SnapIds", onT, offT)

					if srs.PipelinedPrefetches != 0 {
						t.Errorf("%s: serial run warmed %d pages, want 0", label, srs.PipelinedPrefetches)
					}
					if prs.PipelinedPrefetches == 0 {
						t.Errorf("%s: pipelined run warmed no pages", label)
					}
					// Concurrent demand misses of one page coalesce into a
					// single billed read, so even parallel totals are
					// deterministic. Per-iteration attribution is only
					// meaningful sequentially (parallel chunks bill whole
					// ranges, and which chunk pays a shared page depends on
					// scheduling).
					if got, want := prs.Total().PagelogReads, srs.Total().PagelogReads; got != want {
						t.Errorf("%s: pipelining changed total billed reads: %d vs %d", label, got, want)
					}
					if !parallel {
						if len(prs.Iterations) != len(srs.Iterations) {
							t.Fatalf("%s: iteration counts differ: %d vs %d",
								label, len(prs.Iterations), len(srs.Iterations))
						}
						for i := range prs.Iterations {
							p, s := prs.Iterations[i], srs.Iterations[i]
							if p.PagelogReads != s.PagelogReads || p.CacheHits != s.CacheHits {
								t.Errorf("%s: iteration %d counters diverge: pipelined reads=%d hits=%d, serial reads=%d hits=%d",
									label, i, p.PagelogReads, p.CacheHits, s.PagelogReads, s.CacheHits)
							}
						}
					}
				}
			}
		}
		r.SetDeltaPrune(true)
		r.SetPipelinedIO(true)
	}
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// oracleBudget bounds the untimed re-derivation of mechanism results.
// Schedule positions are checked in a seeded order, one class after
// another, until the budget is spent; every class gets at least one.
const oracleBudget = 1500 * time.Millisecond

// verify re-derives what ops must have delivered and marks every sample
// that delivered something else as failed. It returns how many samples
// were compared.
func verify(e *env, w workload, rng *rand.Rand, loops []loopResult, reads loopResult) (checked int, err error) {
	mismatch := func(s *sample, x expectation) {
		if s.failed {
			return
		}
		s.failed = true
		fmt.Fprintf(os.Stderr, "benchmark: oracle: %s %s session %d pos %d: got %d rows digest %x value %g, want %d rows digest %x value %g\n",
			w.name(), className[s.class], s.sess, s.pos, s.res.rows, s.res.digest, s.res.fval, x.rows, x.digest, x.fval)
	}

	if cr, ok := w.(*commitRefresh); ok {
		n, err := cr.finalCheck(e, rng, loops)
		if err != nil {
			return 0, err
		}
		checked += n
		aggChecked := 0
		for i := range reads.samples {
			s := &reads.samples[i]
			switch {
			case s.class == clPoint:
				if x := expectAsOf(e, s.at, s.o); !x.matches(s.res) {
					mismatch(s, x)
				}
				checked++
			case aggChecked < 8:
				x, err := expectMech(e, s.o)
				if err != nil {
					return checked, err
				}
				if !x.matches(s.res) {
					mismatch(s, x)
				}
				aggChecked++
				checked++
			}
		}
		return checked, nil
	}

	// Samples by (session, schedule position): a session runs its
	// schedule cyclically, so one expectation checks every repetition.
	type key struct{ sess, pos int }
	at := make(map[key][]*sample)
	byClass := make(map[int][]key)
	for li := range loops {
		for si := range loops[li].samples {
			s := &loops[li].samples[si]
			k := key{s.sess, s.pos}
			if _, seen := at[k]; !seen {
				byClass[s.class] = append(byClass[s.class], k)
			}
			at[k] = append(at[k], s)
		}
	}
	for _, ks := range byClass {
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	start := time.Now()
	for round := 0; ; round++ {
		any := false
		for _, cl := range w.classes() {
			ks := byClass[cl]
			if round >= len(ks) {
				continue
			}
			any = true
			samples := at[ks[round]]
			x, err := w.expect(e, samples[0].o)
			if err != nil {
				return checked, err
			}
			for _, s := range samples {
				if !x.matches(s.res) {
					mismatch(s, x)
				}
				checked++
			}
		}
		if !any || time.Since(start) > oracleBudget {
			return checked, nil
		}
	}
}

// finalCheck verifies commit_refresh's writes after the run: every
// acknowledged snapshot is registered in SnapIds, a seeded sample of
// them is readable and holds exactly the orders the refreshes left
// live, and the retro view has one correct row per snapshot. A writer
// sample whose snapshot fails a check is marked failed.
func (w *commitRefresh) finalCheck(e *env, rng *rand.Rand, loops []loopResult) (checked int, err error) {
	registered := make(map[uint64]bool)
	err = e.local.Exec(`SELECT snap_id FROM SnapIds`, func(_ []string, row []Value) error {
		registered[uint64(row[0].Int())] = true
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := e.local.Exec(`REFRESH RETRO VIEW `+viewName, nil); err != nil {
		return 0, err
	}
	viewN := make(map[uint64]int64)
	err = e.local.Exec(`SELECT n, sid FROM `+viewName, func(_ []string, row []Value) error {
		viewN[uint64(row[1].Int())] = row[0].Int()
		return nil
	})
	if err != nil {
		return 0, err
	}

	// The writer's k-th successful op acknowledged the k-th snapshot
	// after the set-up history.
	var writes []*sample
	for li := range loops {
		for si := range loops[li].samples {
			if s := &loops[li].samples[si]; !s.failed {
				writes = append(writes, s)
			}
		}
	}
	base := len(e.snaps) - len(writes)
	if base < 0 {
		return 0, fmt.Errorf("commit_refresh: %d successful writes but only %d snapshots known", len(writes), len(e.snaps))
	}
	fail := func(s *sample, format string, args ...any) {
		s.failed = true
		fmt.Fprintf(os.Stderr, "benchmark: oracle: commit_refresh: "+format+"\n", args...)
	}
	for i, s := range writes {
		at := e.snaps[base+i]
		checked++
		if !registered[at.id] {
			fail(s, "snapshot %d was acknowledged but is not in SnapIds", at.id)
			continue
		}
		if _, ok := viewN[at.id]; !ok {
			fail(s, "view %s has no row for snapshot %d", viewName, at.id)
		}
	}
	for _, i := range rng.Perm(len(writes))[:min(48, len(writes))] {
		s, at := writes[i], e.snaps[base+i]
		var n, lo, hi int64
		err := execAsOf(e.local, `SELECT COUNT(*), MIN(o_orderkey), MAX(o_orderkey) FROM orders`, at.id,
			func(_ []string, row []Value) error {
				n, lo, hi = row[0].Int(), row[1].Int(), row[2].Int()
				return nil
			})
		if err != nil {
			fail(s, "snapshot %d is not readable: %v", at.id, err)
			continue
		}
		if n != int64(e.orders0) || lo != at.lo || hi != at.hi {
			fail(s, "snapshot %d holds %d orders [%d,%d], want %d [%d,%d]", at.id, n, lo, hi, e.orders0, at.lo, at.hi)
		}
		var open int64
		for k := at.lo; k <= at.hi; k++ {
			if e.orders[k].status == "O" {
				open++
			}
		}
		if got, ok := viewN[at.id]; ok && got != open {
			fail(s, "view %s says %d open orders at snapshot %d, shadow map says %d", viewName, got, at.id, open)
		}
	}
	return checked, nil
}

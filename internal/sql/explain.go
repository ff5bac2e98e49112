package sql

import (
	"fmt"
	"strings"
	"time"

	"rql/internal/obs"
	"rql/internal/record"
	"rql/internal/retro"
)

// EXPLAIN support: `EXPLAIN SELECT ...` returns one row per plan node,
// rendered as an indented tree. The executor tree is described after
// planning, so EXPLAIN shows exactly the access paths a query will use
// (table scan vs index scan, native-index join vs automatic transient
// index), which is how the Figure 9 experiments were validated.
//
// `EXPLAIN ANALYZE SELECT ...` additionally executes the statement —
// through the exact iterator tree the plan displays — and appends the
// measured profile: the statement's execution statistics and, when the
// SELECT drove a retrospective mechanism, one line per iteration with
// the Figures 8–13 cost breakdown (billed Pagelog reads, cache hits,
// pruned/replayed rows, device queue-wait, prefetch hits). Execution is
// observation-only: side effects, counters and LastStats are identical
// to running the statement plainly; only the rows streamed to the
// client differ.

// ExplainStmt wraps a SELECT for plan display; with Analyze set the
// statement is also executed and the report carries its profile.
type ExplainStmt struct {
	Select  *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// describe renders an iterator tree as indented plan lines.
func describe(it any, depth int, out *[]string) {
	pad := strings.Repeat("  ", depth)
	add := func(format string, args ...any) {
		*out = append(*out, pad+fmt.Sprintf(format, args...))
	}
	switch x := it.(type) {
	case *oneRowIter:
		add("CONSTANT ROW")
	case *tableScanIter:
		add("SCAN TABLE (%d columns)", len(x.row.vals)-1)
	case *indexScanIter:
		kind := "RANGE"
		if x.eqPrefix != nil {
			kind = "EQUALITY"
		}
		add("SEARCH TABLE %s USING INDEX (%s)", x.table.Name, kind)
	case *filterIter:
		add("FILTER")
		describe(x.src, depth+1, out)
	case *autoIndexJoin:
		add("JOIN USING AUTOMATIC COVERING INDEX (transient B-tree)")
		describe(x.outer, depth+1, out)
	case *indexJoinIter:
		add("JOIN USING NATIVE INDEX %s ON %s", x.index.Name, x.table.Name)
		describe(x.outer, depth+1, out)
	case *nlJoinIter:
		if x.leftOuter {
			add("LEFT OUTER NESTED-LOOP JOIN (%d inner rows materialized)", len(x.inner))
		} else {
			add("NESTED-LOOP JOIN (%d inner rows materialized)", len(x.inner))
		}
		describe(x.outer, depth+1, out)
	case *aggregateIter:
		add("AGGREGATE (%d group expressions, %d aggregates)", len(x.groupBy), len(x.specs))
		describe(x.src, depth+1, out)
	case *sliceIter:
		add("MATERIALIZED SUBQUERY (%d rows)", len(x.rows))
	case *finalIter:
		switch {
		case len(x.orderBy) > 0 && x.limit >= 0:
			add("SORT + LIMIT %d OFFSET %d", x.limit, x.offset)
		case len(x.orderBy) > 0:
			add("SORT (%d terms)", len(x.orderBy))
		case x.limit >= 0:
			add("LIMIT %d OFFSET %d", x.limit, x.offset)
		default:
			add("OUTPUT")
		}
		describe(x.pairs, depth+1, out)
	case *distinctPairIter:
		add("DISTINCT")
		describe(x.src, depth+1, out)
	case *passPairIter:
		describe(x.src, depth, out)
	case *projectPairIter:
		add("PROJECT (%d expressions)", len(x.exprs))
		describe(x.src, depth+1, out)
	default:
		add("%T", it)
	}
}

// execExplain plans the wrapped SELECT and streams the plan lines.
func (c *Conn) execExplain(s *ExplainStmt, cb RowCallback, params []record.Value, stats *ExecStats) error {
	ec, err := c.newReadCtx(nil, 0, params, stats)
	if err != nil {
		return err
	}
	defer ec.close()
	it, _, err := planSelect(s.Select, ec)
	if err != nil {
		return err
	}
	defer it.Close()
	var lines []string
	describe(it, 0, &lines)
	for _, line := range lines {
		stats.RowsReturned++
		if cb != nil {
			if err := cb([]string{"plan"}, []record.Value{record.Text(line)}); err != nil {
				return err
			}
		}
	}
	return nil
}

var explainCols = []string{"plan"}

// execExplainAnalyze executes the wrapped SELECT for real and streams
// the plan annotated with the measured profile. The execution mirrors
// execSelect exactly — same context, same planner, same iterator drain,
// same finalization — so every counter the paper's figures bill
// (Pagelog reads, cache hits, SPT builds, pruned iterations) is
// byte-identical to a plain run of the statement; the property test
// pins this. stats.RowsReturned likewise reports the statement's own
// result rows, not the report lines.
func (c *Conn) execExplainAnalyze(s *ExplainStmt, set *ReaderSet, asOf retro.SnapshotID, cb RowCallback, params []record.Value, stats *ExecStats) error {
	sel := s.Select
	if sel.AsOf != nil {
		v, err := c.constEval(sel.AsOf, params)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return fmt.Errorf("sql: AS OF requires a snapshot id")
		}
		asOf = retro.SnapshotID(v.AsInt())
	}
	c.lastMech = nil
	start := time.Now()
	ec, err := c.newReadCtx(set, asOf, params, stats)
	if err != nil {
		return err
	}
	var lines []string
	err = func() error {
		var planStart time.Time
		if c.curStmt != nil {
			planStart = time.Now()
		}
		it, _, err := planSelect(sel, ec)
		if c.curStmt != nil {
			obs.Record(c.curStmt, "sql.plan", planStart, time.Since(planStart))
		}
		if err != nil {
			return err
		}
		defer it.Close()
		describe(it, 0, &lines)
		for {
			row, err := it.Next()
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			stats.RowsReturned++
		}
	}()
	if ferr := ec.finalize(err == nil); err == nil {
		err = ferr
	}
	// Close before rendering: it folds the snapshot reader's counters
	// into stats, which the summary line below reports.
	ec.close()
	wall := time.Since(start)
	if err != nil {
		return err
	}

	emit := func(format string, args ...any) error {
		if cb == nil {
			return nil
		}
		return cb(explainCols, []record.Value{record.Text(fmt.Sprintf(format, args...))})
	}
	for _, line := range lines {
		if err := emit("%s", line); err != nil {
			return err
		}
	}
	if err := emit("EXECUTED rows=%d wall=%s pagelog_reads=%d cache_hits=%d db_reads=%d spt_build=%s queue_wait=%s prefetch_hits=%d",
		stats.RowsReturned, fmtDur(wall), stats.PagelogReads, stats.CacheHits,
		stats.DBReads, fmtDur(stats.SPTBuildTime), fmtDur(stats.QueueWait),
		stats.PrefetchHits); err != nil {
		return err
	}
	p := c.lastMech
	if p == nil {
		return nil
	}
	prune := ""
	if p.PruneReason != "" {
		prune = " prune_off=" + quoteReason(p.PruneReason)
	}
	if err := emit("MECHANISM %s iterations=%d pruned=%d replayed_rows=%d prefetch_hits=%d prefetch_wasted=%d%s",
		p.Mechanism, len(p.Iterations), p.PrunedIters, p.ReplayedRows,
		p.PrefetchHits, p.PrefetchWasted, prune); err != nil {
		return err
	}
	for _, it := range p.Iterations {
		if it.Pruned {
			if err := emit("  ITERATION snap=%d PRUNED replayed_rows=%d delta_pages=%d",
				it.Snapshot, it.Rows, it.DeltaPages); err != nil {
				return err
			}
			continue
		}
		if err := emit("  ITERATION snap=%d wall=%s spt_build=%s index=%s eval=%s udf=%s io=%s queue_wait=%s pagelog_reads=%d cache_hits=%d prefetch_hits=%d rows=%d",
			it.Snapshot, fmtDur(it.Wall), fmtDur(it.SPTBuild), fmtDur(it.IndexCreate),
			fmtDur(it.QueryEval), fmtDur(it.UDF), fmtDur(it.IOTime), fmtDur(it.QueueWait),
			it.PagelogReads, it.CacheHits, it.PrefetchHits, it.Rows); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur renders a duration at microsecond precision — enough for the
// modeled costs, stable enough to read in a terminal column.
func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

// quoteReason makes a prune-off reason a single report token.
func quoteReason(s string) string { return `"` + strings.ReplaceAll(s, `"`, `'`) + `"` }

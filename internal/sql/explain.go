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
// measured profile: the statement's cost record and, when the SELECT
// drove a retrospective mechanism, the run's report — one line per
// iteration with the Figures 8–13 cost breakdown. Execution is
// watch-only: side effects, counters and LastStats are identical
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
		if len(x.eq) > 0 {
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
	case *aggregateIter:
		add("AGGREGATE (%d group expressions, %d aggregates)", len(x.groupBy), len(x.specs))
		describe(x.src, depth+1, out)
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

// execExplain plans the wrapped SELECT on p — over the snapshot it would
// read — and streams the plan lines.
func (c *Conn) execExplain(s *ExplainStmt, p *selectPlan, set *ReaderSet, asOf retro.SnapshotID, cb RowCallback, params []record.Value, stats *ExecStats) error {
	if err := c.bindPlan(s.Select, p, set, asOf, params, stats); err != nil {
		return err
	}
	defer p.ec.close()
	it := p.fin
	defer it.Close()
	if err := it.reset(); err != nil { // evaluates LIMIT and OFFSET
		return err
	}
	var lines []string
	describe(it, 0, &lines)
	for _, line := range lines {
		stats.RowsReturned++
		if cb != nil {
			if err := cb(explainCols, []record.Value{record.Text(line)}); err != nil {
				return err
			}
		}
	}
	return nil
}

var explainCols = []string{"plan"}

// execExplainAnalyze executes the wrapped SELECT for real and streams
// the plan followed by the measured profile. The execution is execSelect
// itself with the rows dropped and the plan kept, so every counter the
// paper's figures bill (Pagelog reads, cache hits, SPT builds, pruned
// iterations) is byte-identical to a plain run of the statement, and
// stats.RowsReturned reports the statement's own result rows, not the
// report lines.
func (c *Conn) execExplainAnalyze(s *ExplainStmt, p *selectPlan, set *ReaderSet, asOf retro.SnapshotID, cb RowCallback, params []record.Value, stats *ExecStats) error {
	c.lastMech = nil
	start := time.Now()
	var lines []string
	if err := c.execSelect(s.Select, p, set, true, asOf, nil, params, stats, &lines); err != nil {
		return err
	}
	stats.Duration = time.Since(start)
	lines = append(lines, "EXECUTED "+obs.FormatCost(stats))
	if c.lastMech != nil {
		lines = append(lines, c.lastMech.Report()...)
	}
	if cb == nil {
		return nil
	}
	for _, line := range lines {
		if err := cb(explainCols, []record.Value{record.Text(line)}); err != nil {
			return err
		}
	}
	return nil
}

package sql

import (
	"fmt"
	"strings"
)

// Delta pruning (internal/core) replays a cached result instead of
// re-executing Qq when no page in the statement's read-set changed
// between two snapshot-set members. That is only sound for statements
// whose output is a pure function of the snapshot pages they read (plus
// the snapshot id itself, which the replay substitutes). PruneInfo is
// the static analysis deciding that.
type PruneInfo struct {
	// OK reports that the statement is prune-safe; Reason says why not.
	OK     bool
	Reason string
	// SnapCols are the 0-based projection columns that are a bare
	// current_snapshot() call — the only snapshot-dependent expression
	// allowed, because the replay rewrites exactly those columns to the
	// new snapshot id.
	SnapCols []int
}

// PruneInfo analyzes a query for delta-prune safety: it must be exactly
// one SELECT with no statement-level AS OF (which would override the
// snapshot binding), reference only main-store (snapshotable) tables,
// call only deterministic builtin functions, and mention
// current_snapshot() only as a bare projection column.
func (c *Conn) PruneInfo(sqlText string) PruneInfo {
	stmts, err := c.parseCached(sqlText)
	if err != nil {
		return PruneInfo{Reason: "parse error"}
	}
	if len(stmts) != 1 {
		return PruneInfo{Reason: "multiple statements"}
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return PruneInfo{Reason: "not a SELECT"}
	}
	// Side-store tables (temp tables, SnapIds) are not covered by the
	// snapshot deltas: their content can change between iterations
	// without any Maplog capture, so referencing one defeats pruning.
	sideNames, err := c.sideTableNames()
	if err != nil {
		return PruneInfo{Reason: "side-store schema unavailable"}
	}
	a := &pruneAnalyzer{side: sideNames}
	a.walkSelect(sel)
	if a.reason != "" {
		return PruneInfo{Reason: a.reason}
	}
	return PruneInfo{OK: true, SnapCols: a.snapCols}
}

// sideTableNames returns the lower-cased names of the side store's
// current tables.
func (c *Conn) sideTableNames() (map[string]bool, error) {
	srt, err := c.db.side.BeginRead()
	if err != nil {
		return nil, err
	}
	defer srt.Close()
	s, err := c.db.currentSchema(c.db.side, srt, srt.LSN(), true)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(s.tables))
	for name := range s.tables {
		names[name] = true
	}
	return names, nil
}

type pruneAnalyzer struct {
	side     map[string]bool
	snapCols []int
	reason   string
}

func (a *pruneAnalyzer) fail(format string, args ...any) {
	if a.reason == "" {
		a.reason = fmt.Sprintf(format, args...)
	}
}

func (a *pruneAnalyzer) walkSelect(s *SelectStmt) {
	if s.AsOf != nil {
		a.fail("statement-level AS OF overrides the snapshot binding")
		return
	}
	hasStar := false
	for i, col := range s.Cols {
		if col.Star {
			hasStar = true
			continue
		}
		if fc, ok := col.Expr.(*FuncCall); ok && fc.Name == "current_snapshot" && !fc.Star && len(fc.Args) == 0 {
			a.snapCols = append(a.snapCols, i)
			continue
		}
		a.walkExpr(col.Expr)
	}
	// SnapCols are ResultCol indices; a star expands to an unknown
	// number of output columns, so mixing the two would re-tag the
	// wrong column on replay.
	if hasStar && len(a.snapCols) > 0 {
		a.fail("star projection mixed with current_snapshot()")
	}
	for _, tr := range s.From {
		if a.side[strings.ToLower(tr.Name)] {
			a.fail("references non-snapshotable table %s", tr.Name)
		}
	}
	a.walkExpr(s.Where)
	for _, e := range s.GroupBy {
		a.walkExpr(e)
	}
	a.walkExpr(s.Having)
	for _, o := range s.OrderBy {
		a.walkExpr(o.Expr)
	}
	a.walkExpr(s.Limit)
	a.walkExpr(s.Offset)
}

func (a *pruneAnalyzer) walkExpr(e Expr) {
	if e == nil || a.reason != "" {
		return
	}
	switch x := e.(type) {
	case *Literal, *ColumnRef, *ParamRef:
	case *UnaryExpr:
		a.walkExpr(x.X)
	case *BinaryExpr:
		a.walkExpr(x.L)
		a.walkExpr(x.R)
	case *IsNullExpr:
		a.walkExpr(x.X)
	case *BetweenExpr:
		a.walkExpr(x.X)
		a.walkExpr(x.Lo)
		a.walkExpr(x.Hi)
	case *InExpr:
		a.walkExpr(x.X)
		for _, v := range x.List {
			a.walkExpr(v)
		}
	case *FuncCall:
		switch {
		case x.Name == "current_snapshot":
			a.fail("current_snapshot() outside a bare projection column")
		case isAggregateName(x.Name) || x.Name == "round":
			// round is the one scalar builtin, and its output depends
			// only on its arguments. Any other function — in particular a
			// registered UDF, whose body can do anything — defeats
			// pruning.
			for _, arg := range x.Args {
				a.walkExpr(arg)
			}
		default:
			a.fail("non-builtin function %s()", x.Name)
		}
	default:
		a.fail("unsupported expression")
	}
}

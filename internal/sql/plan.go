package sql

import (
	"fmt"
	"strings"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// planSelect compiles a SELECT into an iterator tree plus the output
// column descriptions.
func planSelect(s *SelectStmt, ec *execCtx) (iterator, []colInfo, error) {
	// ---- FROM tables --------------------------------------------------------
	type fromItem struct {
		cols   []colInfo
		table  *Table
		schema *schema
		pager  storage.Pager
		need   []bool // which row positions the statement reads
	}
	var items []fromItem
	for _, ref := range s.From {
		t, sch, pager, err := ec.resolveTable(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		alias := strings.ToLower(ref.Alias)
		if alias == "" {
			alias = strings.ToLower(ref.Name)
		}
		need := make([]bool, len(t.Cols)+1)
		items = append(items, fromItem{cols: baseTableCols(t, alias, need), table: t, schema: sch, pager: pager, need: need})
	}

	// ---- WHERE conjuncts ---------------------------------------------------
	conjuncts := splitAnd(s.Where)
	placed := make([]bool, len(conjuncts))

	resolves := func(e Expr, cols []colInfo) bool {
		_, err := compileExpr(e, &compileEnv{cols: cols, ec: ec, probe: true})
		return err == nil
	}

	// Join-order heuristic: drive the join from tables that carry their
	// own filter predicates, so selective tables come first and
	// unfiltered big tables become inner sides — where a native or
	// automatic index serves the probes. This is the reordering that
	// makes SQLite build its automatic covering index on lineitem for the
	// paper's Qq_cpu (Figure 9).
	if len(items) > 1 {
		hasLocal := func(item fromItem) bool {
			for _, cond := range conjuncts {
				if resolves(cond, item.cols) {
					return true
				}
			}
			return false
		}
		var filtered, rest []fromItem
		for _, item := range items {
			if hasLocal(item) {
				filtered = append(filtered, item)
			} else {
				rest = append(rest, item)
			}
		}
		items = append(filtered, rest...)
	}

	// buildBase constructs the access path for one base table, applying
	// the given single-table conjuncts.
	buildBase := func(item fromItem, conds []Expr) (iterator, error) {
		it := pickAccessPath(item.table, item.schema, item.pager, conds, item.need, ec)
		for _, cond := range conds {
			c, err := compileExpr(cond, &compileEnv{cols: item.cols, ec: ec})
			if err != nil {
				return nil, err
			}
			it = newFilter(it, c, ec)
		}
		return it, nil
	}

	var cur iterator
	var scope []colInfo
	if len(items) == 0 {
		cur = &oneRowIter{}
	}
	for idx, item := range items {
		// Conjuncts local to this item.
		var local []Expr
		for ci, cond := range conjuncts {
			if !placed[ci] && resolves(cond, item.cols) {
				local = append(local, cond)
				placed[ci] = true
			}
		}
		if idx == 0 {
			it, err := buildBase(item, local)
			if err != nil {
				return nil, nil, err
			}
			cur = it
			scope = item.cols
			continue
		}

		// Find an equi-join conjunct: outerExpr = innerExpr.
		var outerKeyE, innerKeyE Expr
		for ci, cond := range conjuncts {
			if placed[ci] {
				continue
			}
			be, ok := cond.(*BinaryExpr)
			if !ok || be.Op != "=" {
				continue
			}
			switch {
			case resolves(be.L, scope) && resolves(be.R, item.cols):
				outerKeyE, innerKeyE = be.L, be.R
			case resolves(be.R, scope) && resolves(be.L, item.cols):
				outerKeyE, innerKeyE = be.R, be.L
			default:
				continue
			}
			placed[ci] = true
			break
		}

		if outerKeyE == nil {
			return nil, nil, fmt.Errorf("sql: no equality condition joins %s to the tables before it", item.table.Name)
		}
		outerKey, err := compileExpr(outerKeyE, &compileEnv{cols: scope, ec: ec})
		if err != nil {
			return nil, nil, err
		}
		// Native index on the inner join column?
		if ix := nativeJoinIndex(item.table, item.schema, innerKeyE); ix != nil && len(local) == 0 {
			cur = &indexJoinIter{
				joinCore: joinCore{outer: cur, rc: rowCtx{ec: ec}},
				table:    item.table,
				index:    ix,
				outerKey: outerKey,
				idxCur:   btree.Open(item.pager, ix.Root).Cursor(),
				tbl:      btree.Open(item.pager, item.table.Root),
				inner:    newScanRow(ec, item.table, item.need),
			}
		} else {
			// No usable native index: build the transient "automatic
			// covering index" over the inner side (timed as index
			// creation, per Figure 9).
			innerKey, err := compileExpr(innerKeyE, &compileEnv{cols: item.cols, ec: ec})
			if err != nil {
				return nil, nil, err
			}
			itemCopy := item
			localCopy := local
			cur = &autoIndexJoin{
				joinCore:   joinCore{outer: cur, rc: rowCtx{ec: ec}},
				outerKey:   outerKey,
				buildInner: func() (iterator, error) { return buildBase(itemCopy, localCopy) },
				innerKey:   innerKey,
				inner:      make([]record.Value, len(item.cols)),
			}
		}
		scope = append(append([]colInfo{}, scope...), item.cols...)
		cur, err = applyAvailable(cur, scope, conjuncts, placed, ec)
		if err != nil {
			return nil, nil, err
		}
	}

	// Any remaining conjuncts must resolve over the full scope.
	for ci, cond := range conjuncts {
		if placed[ci] {
			continue
		}
		c, err := compileExpr(cond, &compileEnv{cols: scope, ec: ec})
		if err != nil {
			return nil, nil, err
		}
		cur = newFilter(cur, c, ec)
	}

	// ---- Aggregation --------------------------------------------------------
	aliases := make(map[string]Expr)
	for _, col := range s.Cols {
		if col.Alias != "" {
			aliases[strings.ToLower(col.Alias)] = col.Expr
		}
	}

	var aggCalls []*FuncCall
	for _, col := range s.Cols {
		if col.Expr != nil {
			if err := collectAggregates(col.Expr, &aggCalls); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := collectAggregates(s.Having, &aggCalls); err != nil {
		return nil, nil, err
	}
	for _, ot := range s.OrderBy {
		// ORDER BY may reference aliases whose expressions aggregate.
		e := ot.Expr
		if ref, ok := e.(*ColumnRef); ok && ref.Table == "" {
			if ae, ok := aliases[strings.ToLower(ref.Name)]; ok {
				e = ae
			}
		}
		if err := collectAggregates(e, &aggCalls); err != nil {
			return nil, nil, err
		}
	}
	aggCalls = dedupCalls(aggCalls)

	env := &compileEnv{cols: scope, aliases: aliases, ec: ec}
	if len(aggCalls) > 0 || len(s.GroupBy) > 0 {
		srcEnv := &compileEnv{cols: scope, aliases: aliases, ec: ec}
		var groupBy []compiledExpr
		for _, g := range s.GroupBy {
			ge := g
			// GROUP BY ordinal and alias support.
			if lit, ok := ge.(*Literal); ok && lit.Val.Type() == record.TypeInt {
				n := int(lit.Val.Int())
				if n < 1 || n > len(s.Cols) || s.Cols[n-1].Expr == nil {
					return nil, nil, fmt.Errorf("sql: GROUP BY ordinal %d out of range", n)
				}
				ge = s.Cols[n-1].Expr
			}
			c, err := compileExpr(ge, srcEnv)
			if err != nil {
				return nil, nil, err
			}
			groupBy = append(groupBy, c)
		}
		var specs []aggSpec
		aggIdx := make(map[*FuncCall]int)
		for _, call := range aggCalls {
			spec := aggSpec{call: call, isMinMax: (call.Name == "min" || call.Name == "max") && !call.Distinct}
			if call.Star {
				if call.Name != "count" {
					return nil, nil, fmt.Errorf("sql: %s(*) is not valid", call.Name)
				}
			} else {
				if len(call.Args) != 1 {
					return nil, nil, fmt.Errorf("sql: aggregate %s() takes one argument", call.Name)
				}
				c, err := compileExpr(call.Args[0], srcEnv)
				if err != nil {
					return nil, nil, err
				}
				spec.arg = c
			}
			aggIdx[call] = len(scope) + len(specs)
			specs = append(specs, spec)
		}
		cur = &aggregateIter{
			src:            cur,
			groupBy:        groupBy,
			specs:          specs,
			inputCols:      len(scope),
			ec:             ec,
			emitEmptyGroup: len(s.GroupBy) == 0,
		}
		extended := append(append([]colInfo{}, scope...), make([]colInfo, len(specs))...)
		for i := range specs {
			extended[len(scope)+i] = colInfo{name: fmt.Sprintf("#agg%d", i)}
		}
		env = &compileEnv{cols: extended, aliases: aliases, aggIdx: aggIdx, ec: ec}
	}

	// ---- HAVING --------------------------------------------------------------
	if s.Having != nil {
		c, err := compileExpr(s.Having, env)
		if err != nil {
			return nil, nil, err
		}
		cur = newFilter(cur, c, ec)
	}

	// ---- Projection ------------------------------------------------------------
	var projExprs []compiledExpr
	var outCols []colInfo
	for _, col := range s.Cols {
		if col.Star {
			starTable := strings.ToLower(col.StarTable)
			matched := false
			for pos, ci := range scope {
				if strings.HasPrefix(ci.name, "#") {
					continue
				}
				if starTable != "" && ci.table != starTable {
					continue
				}
				matched = true
				ci.use()
				p := pos
				projExprs = append(projExprs, func(rc *rowCtx) (record.Value, error) { return rc.row[p], nil })
				outCols = append(outCols, colInfo{table: ci.table, name: ci.name})
			}
			if !matched {
				return nil, nil, fmt.Errorf("sql: no tables match %s.*", col.StarTable)
			}
			continue
		}
		c, err := compileExpr(col.Expr, env)
		if err != nil {
			return nil, nil, err
		}
		projExprs = append(projExprs, c)
		outCols = append(outCols, colInfo{name: exprColumnName(col)})
	}

	pairs := &projectPairIter{src: cur, exprs: projExprs, rc: rowCtx{ec: ec}}
	var pairSrc interface {
		Next() (*pairRow, error)
		Close() error
	}
	if s.Distinct {
		pairSrc = &distinctPairIter{src: pairs}
	} else {
		pairSrc = &passPairIter{src: pairs}
	}

	// ---- ORDER BY / LIMIT -------------------------------------------------------
	fin := &finalIter{pairs: pairSrc, limit: -1, ec: ec}
	for _, ot := range s.OrderBy {
		ord := -1
		var ce compiledExpr
		if lit, ok := ot.Expr.(*Literal); ok && lit.Val.Type() == record.TypeInt {
			n := int(lit.Val.Int())
			if n < 1 || n > len(outCols) {
				return nil, nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", n)
			}
			ord = n - 1
		} else {
			c, err := compileExpr(ot.Expr, env)
			if err != nil {
				return nil, nil, err
			}
			ce = c
		}
		fin.orderBy = append(fin.orderBy, ce)
		fin.ordinal = append(fin.ordinal, ord)
		fin.desc = append(fin.desc, ot.Desc)
	}
	if s.Limit != nil {
		v, err := evalConst(s.Limit, ec)
		if err != nil {
			return nil, nil, err
		}
		fin.limit = v.AsInt()
	}
	if s.Offset != nil {
		v, err := evalConst(s.Offset, ec)
		if err != nil {
			return nil, nil, err
		}
		fin.offset = v.AsInt()
		if fin.offset < 0 {
			fin.offset = 0
		}
	}
	return fin, outCols, nil
}

// applyAvailable filters the stream with every unplaced conjunct that
// resolves over the given scope.
func applyAvailable(cur iterator, scope []colInfo, conjuncts []Expr, placed []bool, ec *execCtx) (iterator, error) {
	for ci, cond := range conjuncts {
		if placed[ci] {
			continue
		}
		c, err := compileExpr(cond, &compileEnv{cols: scope, ec: ec})
		if err != nil {
			continue // not available at this scope yet
		}
		placed[ci] = true
		cur = newFilter(cur, c, ec)
	}
	return cur, nil
}

func newFilter(src iterator, cond compiledExpr, ec *execCtx) *filterIter {
	return &filterIter{src: src, cond: cond, rc: rowCtx{ec: ec}}
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []Expr{e}
}

func dedupCalls(calls []*FuncCall) []*FuncCall {
	seen := make(map[*FuncCall]bool)
	var out []*FuncCall
	for _, c := range calls {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func evalConst(e Expr, ec *execCtx) (record.Value, error) {
	c, err := compileExpr(e, &compileEnv{ec: ec})
	if err != nil {
		return record.Value{}, err
	}
	return c(&rowCtx{ec: ec})
}

// nativeJoinIndex returns an index usable for an equi-join probe: the
// inner key must be a bare column that is the first column of an index
// on the inner table.
func nativeJoinIndex(t *Table, sch *schema, innerKey Expr) *Index {
	ref, ok := innerKey.(*ColumnRef)
	if !ok {
		return nil
	}
	for _, ix := range sch.tableIndexes(t.Name) {
		if strings.EqualFold(ix.Cols[0], ref.Name) {
			return ix
		}
	}
	return nil
}

// pickAccessPath chooses between a full scan and an index scan for a
// base table given its local conjuncts. need is the table's scan mask
// (see colInfo.need); nil decodes every column (DML match sets).
func pickAccessPath(t *Table, sch *schema, pager storage.Pager, conds []Expr, need []bool, ec *execCtx) iterator {
	// Gather constant equality and range conditions per column.
	eq := make(map[string]Expr)
	type rng struct {
		op string
		e  Expr
	}
	ranges := make(map[string][]rng)
	constant := func(e Expr) bool {
		_, err := compileExpr(e, &compileEnv{ec: ec})
		return err == nil
	}
	for _, cond := range conds {
		be, ok := cond.(*BinaryExpr)
		if !ok {
			continue
		}
		col, val := "", Expr(nil)
		op := be.Op
		if ref, ok := be.L.(*ColumnRef); ok && constant(be.R) {
			col, val = strings.ToLower(ref.Name), be.R
		} else if ref, ok := be.R.(*ColumnRef); ok && constant(be.L) {
			col, val = strings.ToLower(ref.Name), be.L
			// Mirror the operator: 5 < c  ==  c > 5.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		} else {
			continue
		}
		switch op {
		case "=":
			eq[col] = val
		case "<", "<=", ">", ">=":
			ranges[col] = append(ranges[col], rng{op: op, e: val})
		}
	}

	var best *Index
	bestEqLen := 0
	var bestRange bool
	for _, ix := range sch.tableIndexes(t.Name) {
		n := 0
		for _, c := range ix.Cols {
			if _, ok := eq[strings.ToLower(c)]; ok {
				n++
			} else {
				break
			}
		}
		hasRange := false
		if n == 0 {
			_, hasRange = ranges[strings.ToLower(ix.Cols[0])]
		}
		if n > bestEqLen || (best == nil && hasRange) {
			best, bestEqLen, bestRange = ix, n, hasRange && n == 0
		}
	}
	if best == nil || (bestEqLen == 0 && !bestRange) {
		return newTableScan(ec, pager, t, need)
	}

	it := &indexScanIter{
		table:  t,
		index:  best,
		idxCur: btree.Open(pager, best.Root).Cursor(),
		tbl:    btree.Open(pager, t.Root),
		row:    newScanRow(ec, t, need),
	}
	if bestEqLen > 0 {
		vals := make([]record.Value, 0, bestEqLen)
		for _, c := range best.Cols[:bestEqLen] {
			v, err := evalConst(eq[strings.ToLower(c)], ec)
			if err != nil {
				return newTableScan(ec, pager, t, need)
			}
			vals = append(vals, v)
		}
		prefix := record.EncodeKey(nil, vals)
		it.lo = prefix
		it.eqPrefix = prefix
		return it
	}
	// Range on the first index column: seek to the lower bound (if any)
	// and stop past the upper bound. Residual filters enforce
	// strictness, so the bounds only need to be conservative.
	col := strings.ToLower(best.Cols[0])
	for _, r := range ranges[col] {
		v, err := evalConst(r.e, ec)
		if err != nil {
			return newTableScan(ec, pager, t, need)
		}
		switch r.op {
		case ">", ">=":
			it.lo = record.EncodeKey(nil, []record.Value{v})
		case "<", "<=":
			bound := v
			it.checkHi = func(x record.Value) bool { return record.Compare(x, bound) <= 0 }
		}
	}
	return it
}

package sql

import (
	"fmt"
	"hash/maphash"
	"strings"
	"sync"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/retro"
)

// selectPlan is a SELECT planned once and run many times: the iterator
// tree and the binding it runs over. The tree (planSelect) depends only
// on the schemas it was planned against, main and side, and on the
// functions registered then; everything that depends on a run — pagers,
// snapshot reader, read-set, parameters, statistics — is in ec, which
// bindRead refills in place for each run, after which reset rewinds the
// tree onto it. Per-run state that is worth keeping (scan cursors,
// aggregate groups, the projection row) lives in the tree's nodes and is
// reused from run to run — what grew with the data only while a set
// keeps the plan (execCtx.shed). A run takes its plan off its pool
// (planPool), so a plan can run while another plan on the same Conn is
// mid-run (a mechanism UDF re-entering its Conn).
type selectPlan struct {
	ec         execCtx
	fin        *finalIter // nil until planned
	names      []string
	main, side *schema
	funcs      uint64 // DB.funcGen when the tree and asOf were compiled

	// asOf is the statement's AS OF operand, compiled on first use. It is
	// evaluated before the run is bound, so asOfRC binds it to the run's
	// parameters only.
	asOf   compiledExpr
	asOfRC rowCtx
}

// snapshotOf returns the snapshot a run of s reads: the one its own AS
// OF clause names, which overrides the binding, else the binding asOf.
// The clause takes an INTEGER >= 1 only, literal or parameter: a 0
// would fall through to the current state and a REAL or TEXT would be
// truncated or parsed into some other snapshot.
func (p *selectPlan) snapshotOf(c *Conn, s *SelectStmt, asOf retro.SnapshotID, params []record.Value, stats *ExecStats) (retro.SnapshotID, error) {
	if s.AsOf == nil {
		return asOf, nil
	}
	if p.asOfRC.ec == nil {
		p.asOfRC.ec = &execCtx{}
	}
	ec := p.asOfRC.ec
	*ec = execCtx{conn: c, params: params, stats: stats}
	defer func() { *ec = execCtx{} }()
	if p.asOf == nil {
		ce, err := compileExpr(s.AsOf, &compileEnv{ec: ec})
		if err != nil {
			return 0, err
		}
		p.asOf = ce
	}
	v, err := p.asOf(&p.asOfRC)
	if err != nil {
		return 0, err
	}
	if v.Type() != record.TypeInt || v.Int() < 1 {
		return 0, fmt.Errorf("sql: AS OF %s: %w (a snapshot id is an integer >= 1)", v.SQL(), retro.ErrNoSnapshot)
	}
	return retro.SnapshotID(v.Int()), nil
}

// planPool keeps statement texts' plans between runs. A run takes its
// text's plans (take) and puts them back when it ends (put), so a plan
// is never lent twice: a run that re-enters with a text whose plans are
// out — a UDF re-running a statement of its own Conn — gets fresh ones.
// It has two owners. A Conn's pool also holds each text's parsed
// statements, keeps at most stmtCacheCap texts (the oldest goes first),
// and its plans, which live as long as the connection, shed their
// data-sized state after each run (execCtx.shed). A ReaderSet's pool
// lives for one mechanism run and is shared by the concurrent readers
// of that set.
type planPool struct {
	mu    sync.Mutex
	texts map[string]*pooledText
	order []string // texts, oldest first (bounded pools)
	bound int      // most texts kept; 0: no bound
}

// pooledText is a pool's entry for one statement text.
type pooledText struct {
	stmts []Statement // parsed once (Conn pools); execution never mutates an AST
	idle  []*textPlans
}

// textPlans are the plans of one statement batch text, by statement
// position (nil: not a SELECT, or not run yet).
type textPlans struct {
	home  *pooledText // where put returns them: nowhere, once evicted
	stmts []*selectPlan
}

// plan returns the plan slot of statement i of n.
func (tp *textPlans) plan(i, n int) *selectPlan {
	if len(tp.stmts) != n {
		tp.stmts = make([]*selectPlan, n)
	}
	if tp.stmts[i] == nil {
		tp.stmts[i] = &selectPlan{}
	}
	return tp.stmts[i]
}

// entry returns text's entry, adding it when missing — and, in a full
// bounded pool, evicting the oldest text with its plans. pp.mu is held.
func (pp *planPool) entry(text string) *pooledText {
	if e := pp.texts[text]; e != nil {
		return e
	}
	if pp.texts == nil {
		pp.texts = make(map[string]*pooledText)
	}
	if pp.bound > 0 {
		if len(pp.order) >= pp.bound {
			delete(pp.texts, pp.order[0])
			pp.order = pp.order[1:]
		}
		pp.order = append(pp.order, text)
	}
	e := &pooledText{}
	pp.texts[text] = e
	return e
}

// parse returns text's parsed statements, parsing it at most once while
// the pool keeps it. A parse error is not kept.
func (pp *planPool) parse(text string) ([]Statement, error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if e := pp.texts[text]; e != nil && e.stmts != nil {
		return e.stmts, nil
	}
	stmts, err := ParseAll(text)
	if err != nil {
		return nil, err
	}
	pp.entry(text).stmts = stmts
	return stmts, nil
}

// take takes an idle plan set of text off the pool, or a fresh one.
func (pp *planPool) take(text string) *textPlans {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	e := pp.entry(text)
	if n := len(e.idle); n > 0 {
		tp := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return tp
	}
	return &textPlans{home: e}
}

// put returns a plan set taken by take.
func (pp *planPool) put(tp *textPlans) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	tp.home.idle = append(tp.home.idle, tp)
}

// reset drops every text the pool keeps.
func (pp *planPool) reset() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.texts, pp.order = nil, nil
}

// planSelect compiles a SELECT into an iterator tree plus the output
// column descriptions. The tree depends on ec's schemas only: it reads
// no page and evaluates no expression until a run starts (reset), so one
// tree serves every binding of ec whose schemas are the ones it was
// planned against.
func planSelect(s *SelectStmt, ec *execCtx) (*finalIter, []colInfo, error) {
	// ---- FROM tables --------------------------------------------------------
	type fromItem struct {
		cols   []colInfo
		table  *Table
		schema *schema
		need   []bool // which row positions the statement reads
	}
	var items []fromItem
	for _, ref := range s.From {
		t, sch, err := ec.resolveTable(ref.Name)
		if err != nil {
			return nil, nil, err
		}
		alias := strings.ToLower(ref.Alias)
		if alias == "" {
			alias = strings.ToLower(ref.Name)
		}
		need := make([]bool, len(t.Cols)+1)
		items = append(items, fromItem{cols: baseTableCols(t, alias, need), table: t, schema: sch, need: need})
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
		it := pickAccessPath(item.table, item.schema, conds, item.need, ec)
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
			idxTree, tbl := btree.Open(nil, ix.Root), btree.Open(nil, item.table.Root)
			cur = &indexJoinIter{
				joinCore: joinCore{outer: cur, rc: rowCtx{ec: ec}},
				table:    item.table,
				index:    ix,
				outerKey: outerKey,
				idxTree:  idxTree,
				idxCur:   idxTree.Cursor(),
				tbl:      tbl,
				tblCur:   tbl.Cursor(),
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
			inner, err := buildBase(item, local)
			if err != nil {
				return nil, nil, err
			}
			cur = &autoIndexJoin{
				joinCore: joinCore{outer: cur, rc: rowCtx{ec: ec}},
				outerKey: outerKey,
				inner:    inner,
				innerKey: innerKey,
				innerRow: make([]record.Value, len(item.cols)),
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
			poison:         ec.conn.db.poisonScans,
			rc:             rowCtx{ec: ec},
			seed:           maphash.MakeSeed(),
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

	pairs := &projectPairIter{src: cur, exprs: projExprs, rc: rowCtx{ec: ec},
		out: make([]record.Value, len(projExprs)), poison: ec.conn.db.poisonScans}
	var pairSrc pairIterator
	if s.Distinct {
		pairSrc = &distinctPairIter{src: pairs}
	} else {
		pairSrc = &passPairIter{src: pairs}
	}

	// ---- ORDER BY / LIMIT -------------------------------------------------------
	fin := &finalIter{pairs: pairSrc, limit: -1, ec: ec, rc: rowCtx{ec: ec}}
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
		c, err := compileExpr(s.Limit, &compileEnv{ec: ec})
		if err != nil {
			return nil, nil, err
		}
		fin.limitE = c
	}
	if s.Offset != nil {
		c, err := compileExpr(s.Offset, &compileEnv{ec: ec})
		if err != nil {
			return nil, nil, err
		}
		fin.offsetE = c
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
func pickAccessPath(t *Table, sch *schema, conds []Expr, need []bool, ec *execCtx) iterator {
	// Gather constant equality and range conditions per column, compiled:
	// the key values are evaluated per run (indexScanIter.reset).
	eq := make(map[string]compiledExpr)
	type rng struct {
		op string
		e  compiledExpr
	}
	ranges := make(map[string][]rng)
	constant := func(e Expr) compiledExpr {
		c, err := compileExpr(e, &compileEnv{ec: ec})
		if err != nil {
			return nil
		}
		return c
	}
	for _, cond := range conds {
		be, ok := cond.(*BinaryExpr)
		if !ok {
			continue
		}
		col, val := "", compiledExpr(nil)
		op := be.Op
		if ref, ok := be.L.(*ColumnRef); ok {
			col, val = strings.ToLower(ref.Name), constant(be.R)
		}
		if ref, ok := be.R.(*ColumnRef); ok && val == nil {
			col, val = strings.ToLower(ref.Name), constant(be.L)
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
		}
		if val == nil {
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
		return newTableScan(ec, t, need)
	}

	idxTree, tbl := btree.Open(nil, best.Root), btree.Open(nil, t.Root)
	it := &indexScanIter{
		table:   t,
		index:   best,
		idxTree: idxTree,
		idxCur:  idxTree.Cursor(),
		tbl:     tbl,
		tblCur:  tbl.Cursor(),
		row:     newScanRow(ec, t, need),
		rc:      rowCtx{ec: ec},
	}
	if bestEqLen > 0 {
		for _, c := range best.Cols[:bestEqLen] {
			it.eq = append(it.eq, eq[strings.ToLower(c)])
		}
		return it
	}
	// Range on the first index column: seek to the lower bound (if any)
	// and stop past the upper bound; the last bound of each side wins.
	// Residual filters enforce strictness, so the bounds only need to be
	// conservative.
	for _, r := range ranges[strings.ToLower(best.Cols[0])] {
		switch r.op {
		case ">", ">=":
			it.lo = r.e
		case "<", "<=":
			it.hi = r.e
		}
	}
	return it
}

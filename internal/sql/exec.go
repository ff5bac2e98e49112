package sql

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sort"
	"time"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// iterator is the volcano-style row iterator every executor node
// implements. A tree of them is a plan: built once against a schema and
// run any number of times, each run over the binding its execCtx holds
// then (pagers, snapshot, parameters). reset starts a run: it rewinds
// the node onto the current binding — cursors re-open on the binding's
// pagers, constant key bounds are re-evaluated, per-run state is cleared
// for reuse — and precedes the first Next of every run. Next returns nil
// at end of stream. The returned row belongs to the iterator, which
// overwrites it on its next call or run: a consumer that keeps a row past
// that call copies it first (cloneRow). Close ends the run, releasing
// what it acquired; the tree stays reusable.
type iterator interface {
	reset() error
	Next() ([]record.Value, error)
	Close() error
}

func cloneRow(row []record.Value) []record.Value {
	return append(make([]record.Value, 0, len(row)), row...)
}

// rowidKey encodes a rowid as an order-preserving 8-byte table key.
func rowidKey(rowid int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(rowid)^(1<<63))
	return b[:]
}

func decodeRowidKey(key []byte) int64 {
	return int64(binary.BigEndian.Uint64(key) ^ (1 << 63))
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

// oneRowIter yields a single empty row (FROM-less SELECT).
type oneRowIter struct{ done bool }

func (i *oneRowIter) reset() error { i.done = false; return nil }

func (i *oneRowIter) Next() ([]record.Value, error) {
	if i.done {
		return nil, nil
	}
	i.done = true
	return []record.Value{}, nil
}
func (i *oneRowIter) Close() error { return nil }

// scanRow is the row buffer a base-table access path owns: the table's
// columns followed by the hidden rowid, decoded over and over into the
// same values. Only the columns need admits are decoded (nil = all);
// the others are never written and stay NULL.
type scanRow struct {
	vals []record.Value
	need []bool
	// poison (tests only, DB.poisonScans) overwrites the whole buffer
	// before each decode, so a consumer still holding the previous row,
	// or an expression reading a column the planner did not mark as
	// needed, sees poison instead of plausible data.
	poison bool
}

var poisonValue = record.Text("\x00poisoned scan row\x00")

// poisonRow overwrites a reused buffer up to its capacity (DB.poisonScans).
func poisonRow(row []record.Value) {
	row = row[:cap(row)]
	for k := range row {
		row[k] = poisonValue
	}
}

func newScanRow(ec *execCtx, t *Table, need []bool) scanRow {
	return scanRow{vals: make([]record.Value, len(t.Cols)+1), need: need, poison: ec.conn.db.poisonScans}
}

// decode fills the buffer from an encoded table record. Columns the
// record predates (it is shorter than the table) read as NULL.
func (r *scanRow) decode(data []byte, rowid int64) ([]record.Value, error) {
	if r.poison {
		poisonRow(r.vals)
	}
	ncols := len(r.vals) - 1
	n, err := record.DecodeRowInto(r.vals[:ncols], data, r.need)
	if err != nil {
		return nil, err
	}
	for k := n; k < ncols; k++ {
		r.vals[k] = record.Null()
	}
	r.vals[ncols] = record.Int(rowid)
	return r.vals, nil
}

// fetch loads the row stored under rowid into the buffer (nil when the
// row does not exist), looking it up with cur: a cursor kept across
// fetches lands ascending rowids in the table leaf it already holds.
func (r *scanRow) fetch(cur *btree.Cursor, rowid int64) ([]record.Value, error) {
	v, found, err := cur.Find(rowidKey(rowid))
	if err != nil || !found {
		return nil, err
	}
	return r.decode(v, rowid)
}

// tableScanIter scans a table in rowid order, emitting the columns
// followed by the hidden rowid.
type tableScanIter struct {
	ec      *execCtx
	table   *Table
	tree    *btree.Tree // re-opened on the binding's pager by reset
	cur     *btree.Cursor
	row     scanRow
	started bool
}

func newTableScan(ec *execCtx, t *Table, need []bool) *tableScanIter {
	tree := btree.Open(nil, t.Root)
	return &tableScanIter{ec: ec, table: t, tree: tree, cur: tree.Cursor(), row: newScanRow(ec, t, need)}
}

func (i *tableScanIter) reset() error {
	i.tree.Reopen(i.ec.pagerFor(i.table), i.table.Root)
	i.started = false
	return nil
}

func (i *tableScanIter) Next() ([]record.Value, error) {
	var ok bool
	var err error
	if !i.started {
		i.started = true
		ok, err = i.cur.First()
	} else {
		ok, err = i.cur.Next()
	}
	if err != nil || !ok {
		return nil, err
	}
	key, value, err := i.cur.Entry()
	if err != nil {
		return nil, err
	}
	return i.row.decode(value, decodeRowidKey(key))
}
func (i *tableScanIter) Close() error { return nil }

// indexScanIter scans one index over a constant key range, fetching
// full rows from the table. The range is planned as constant
// expressions and evaluated by reset, against the run's binding: eq
// holds the leading index columns' values of an equality scan, whose
// encoding is both the seek target and the prefix every key must carry;
// a range scan seeks to lo (nil: the first key) and stops past hi (nil:
// no upper bound) on the first key column. Rows are fetched through
// tblCur, which holds the table leaf of the last fetch for the run.
type indexScanIter struct {
	table   *Table
	index   *Index
	idxTree *btree.Tree
	idxCur  *btree.Cursor
	tbl     *btree.Tree
	tblCur  *btree.Cursor
	row     scanRow
	eq      []compiledExpr
	lo, hi  compiledExpr

	rc      rowCtx
	vals    []record.Value
	seek    []byte
	hiVal   record.Value
	started bool
}

func (i *indexScanIter) reset() error {
	p := i.rc.ec.pagerFor(i.table)
	i.idxTree.Reopen(p, i.index.Root)
	i.tbl.Reopen(p, i.table.Root)
	i.started = false
	i.vals = i.vals[:0]
	for _, e := range i.eq {
		v, err := e(&i.rc)
		if err != nil {
			return err
		}
		i.vals = append(i.vals, v)
	}
	if i.lo != nil {
		v, err := i.lo(&i.rc)
		if err != nil {
			return err
		}
		i.vals = append(i.vals, v)
	}
	i.seek = record.EncodeKey(i.seek[:0], i.vals)
	if i.hi != nil {
		var err error
		if i.hiVal, err = i.hi(&i.rc); err != nil {
			return err
		}
	}
	return nil
}

func (i *indexScanIter) Next() ([]record.Value, error) {
	for {
		var ok bool
		var err error
		if !i.started {
			i.started = true
			ok, err = i.idxCur.Seek(i.seek)
		} else {
			ok, err = i.idxCur.Next()
		}
		if err != nil || !ok {
			return nil, err
		}
		key := i.idxCur.Key()
		if len(i.eq) > 0 && !bytes.HasPrefix(key, i.seek) {
			return nil, nil
		}
		if i.hi != nil {
			first, _, err := record.DecodeKeyValue(key)
			if err != nil {
				return nil, err
			}
			if record.Compare(first, i.hiVal) > 0 {
				return nil, nil
			}
		}
		_, rowid, err := indexKeyRowid(i.index, key)
		if err != nil {
			return nil, err
		}
		row, err := i.row.fetch(i.tblCur, rowid)
		if err != nil {
			return nil, err
		}
		if row == nil {
			continue // index points at a vanished row: skip defensively
		}
		return row, nil
	}
}
func (i *indexScanIter) Close() error { return nil }

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

type filterIter struct {
	src  iterator
	cond compiledExpr
	rc   rowCtx
}

func (i *filterIter) reset() error { return i.src.reset() }

func (i *filterIter) Next() ([]record.Value, error) {
	for {
		row, err := i.src.Next()
		if err != nil || row == nil {
			return nil, err
		}
		i.rc.row = row
		v, err := i.cond(&i.rc)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Truthy() {
			return row, nil
		}
	}
}
func (i *filterIter) Close() error { return i.src.Close() }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// joinCore is what the two equi-join operators share: the outer input,
// the outer row being extended, and the output row, which the join owns
// and rebuilds in place for every match.
type joinCore struct {
	outer    iterator
	rc       rowCtx
	outerRow []record.Value
	joined   []record.Value
}

// reset starts a run: no outer row yet.
func (j *joinCore) reset() error {
	j.outerRow = nil
	return j.outer.reset()
}

// emit concatenates the current outer row with inner.
func (j *joinCore) emit(inner []record.Value) []record.Value {
	j.joined = append(append(j.joined[:0], j.outerRow...), inner...)
	return j.joined
}

// nextOuter advances to the next outer row whose join key is not NULL
// (NULL keys never match an equi-join) and returns the key's encoding
// appended to prefix[:0]; a nil outerRow afterwards is end of stream.
func (j *joinCore) nextOuter(key compiledExpr, prefix []byte) ([]byte, error) {
	for {
		row, err := j.outer.Next()
		j.outerRow = row
		if err != nil || row == nil {
			return prefix, err
		}
		j.rc.row = row
		kv, err := key(&j.rc)
		if err != nil {
			return prefix, err
		}
		if !kv.IsNull() {
			return record.EncodeKey(prefix[:0], []record.Value{kv}), nil
		}
	}
}

// autoIndexJoin joins outer rows against an inner side that has no
// usable native index by first building a transient covering index — a
// real scratch B-tree keyed by the join column with the full inner row
// as payload, just like SQLite's "automatic index" — and then probing
// it per outer row. The index is built anew by every run, on its first
// Next: its build time, recorded in ExecStats.AutoIndex, is what Figure
// 9's index-creation bars measure per iteration.
type autoIndexJoin struct {
	joinCore
	outerKey compiledExpr

	inner    iterator // the inner side's access path, run once per build
	innerKey compiledExpr
	innerRow []record.Value // the current index entry's payload, decoded: one inner row

	built    bool
	buildErr error
	scratch  *storage.Tx
	tree     *btree.Tree

	prefix []byte
	cur    *btree.Cursor
}

func (i *autoIndexJoin) reset() error {
	i.built, i.buildErr = false, nil
	return i.joinCore.reset()
}

func (i *autoIndexJoin) build() error {
	start := time.Now()
	defer func() { i.rc.ec.stats.AutoIndex += time.Since(start) }()
	inner := i.inner
	if err := inner.reset(); err != nil {
		return err
	}
	defer inner.Close()
	// The transient index lives in a scratch in-memory store so its
	// build cost has the same page/btree profile as a native index.
	store := storage.NewStore()
	tx, err := store.Begin()
	if err != nil {
		return err
	}
	root, err := btree.Create(tx)
	if err != nil {
		return err
	}
	i.scratch = tx
	i.tree = btree.Open(tx, root)
	i.cur = i.tree.Cursor()
	// Inner rows stream straight into the index: each is encoded into
	// the tree before the next one overwrites the scan's buffer.
	var key, val []byte
	for seq := 0; ; seq++ {
		row, err := inner.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		i.rc.row = row
		kv, err := i.innerKey(&i.rc)
		if err != nil {
			return err
		}
		if kv.IsNull() {
			continue // NULL keys never match an equi-join
		}
		key = record.EncodeKey(key[:0], []record.Value{kv, record.Int(int64(seq))})
		val = record.EncodeRow(val[:0], row)
		if err := i.tree.Insert(key, val); err != nil {
			return err
		}
	}
}

func (i *autoIndexJoin) Next() ([]record.Value, error) {
	if !i.built {
		i.built = true
		i.buildErr = i.build()
	}
	if i.buildErr != nil {
		return nil, i.buildErr
	}
	for {
		var ok bool
		var err error
		if i.outerRow == nil {
			if i.prefix, err = i.nextOuter(i.outerKey, i.prefix); err != nil || i.outerRow == nil {
				return nil, err
			}
			ok, err = i.cur.Seek(i.prefix)
		} else {
			ok, err = i.cur.Next()
		}
		if err != nil {
			return nil, err
		}
		if !ok || !bytes.HasPrefix(i.cur.Key(), i.prefix) {
			i.outerRow = nil
			continue
		}
		if _, err = record.DecodeRowInto(i.innerRow, i.cur.Value(), nil); err != nil {
			return nil, err
		}
		return i.emit(i.innerRow), nil
	}
}

func (i *autoIndexJoin) Close() error {
	if i.scratch != nil {
		i.scratch.Rollback()
		i.scratch = nil
	}
	i.tree, i.cur = nil, nil // the next run builds its own index
	return i.outer.Close()
}

// indexJoinIter joins outer rows against an inner base table through a
// native index: per outer row it probes the index with the join key,
// and fetches each match through tblCur, like indexScanIter.
type indexJoinIter struct {
	joinCore
	table    *Table
	index    *Index
	outerKey compiledExpr

	idxTree *btree.Tree
	idxCur  *btree.Cursor
	tbl     *btree.Tree
	tblCur  *btree.Cursor
	inner   scanRow
	prefix  []byte
}

func (i *indexJoinIter) reset() error {
	p := i.rc.ec.pagerFor(i.table)
	i.idxTree.Reopen(p, i.index.Root)
	i.tbl.Reopen(p, i.table.Root)
	return i.joinCore.reset()
}

func (i *indexJoinIter) Next() ([]record.Value, error) {
	for {
		var ok bool
		var err error
		if i.outerRow == nil {
			if i.prefix, err = i.nextOuter(i.outerKey, i.prefix); err != nil || i.outerRow == nil {
				return nil, err
			}
			ok, err = i.idxCur.Seek(i.prefix)
		} else {
			ok, err = i.idxCur.Next()
		}
		if err != nil {
			return nil, err
		}
		if !ok || !bytes.HasPrefix(i.idxCur.Key(), i.prefix) {
			i.outerRow = nil
			continue
		}
		_, rowid, err := indexKeyRowid(i.index, i.idxCur.Key())
		if err != nil {
			return nil, err
		}
		inner, err := i.inner.fetch(i.tblCur, rowid)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			continue
		}
		return i.emit(inner), nil
	}
}
func (i *indexJoinIter) Close() error { return i.outer.Close() }

// drain runs an iterator once, copying every row out of the buffers the
// iterators reuse (INSERT … SELECT, DML match sets).
func drain(it iterator) ([][]record.Value, error) {
	defer it.Close()
	if err := it.reset(); err != nil {
		return nil, err
	}
	var rows [][]record.Value
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, cloneRow(row))
	}
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// aggSpec describes one aggregate call in the statement.
type aggSpec struct {
	call     *FuncCall
	arg      compiledExpr // nil for count(*)
	isMinMax bool
}

// aggregateIter groups its input and computes aggregates. Output rows
// are the group's representative input row extended with the aggregate
// results, so post-aggregation expressions can reference both bare
// columns (SQLite semantics: values from the representative row, which
// for a single min/max aggregate is the row that set the extreme) and
// aggregate slots.
//
// The groups of a run — their key, representative row and aggregate
// states — are recycled by the next run of the plan, and a group is
// found through a map keyed by the hash of its encoded key, so a run
// that sees no more groups than an earlier one allocates nothing per
// group. A plan kept between statements (execCtx.shed) drops them
// instead when its run ends.
type aggregateIter struct {
	src       iterator
	groupBy   []compiledExpr
	specs     []aggSpec
	inputCols int
	ec        *execCtx
	// emitEmptyGroup: aggregate query with no GROUP BY emits one row
	// even on empty input.
	emitEmptyGroup bool
	poison         bool // DB.poisonScans: recycled rows are overwritten

	rc     rowCtx
	seed   maphash.Seed
	index  map[uint64]*aggGroup // key hash -> group, collisions chained via next
	groups []*aggGroup          // this run's groups in first-seen (output) order
	free   []*aggGroup          // groups of earlier runs, ready for reuse
	keyBuf []byte
	done   bool
	outIdx int
}

type aggGroup struct {
	key    []byte
	next   *aggGroup
	rep    []record.Value
	states []aggState
}

func (i *aggregateIter) reset() error {
	for _, g := range i.groups {
		if i.poison {
			poisonRow(g.rep)
		}
		g.next = nil
	}
	i.free = append(i.free, i.groups...)
	i.groups = i.groups[:0]
	clear(i.index)
	i.done, i.outIdx = false, 0
	return i.src.reset()
}

func (i *aggregateIter) Next() ([]record.Value, error) {
	if !i.done {
		if err := i.run(); err != nil {
			return nil, err
		}
		i.done = true
	}
	if i.outIdx >= len(i.groups) {
		return nil, nil
	}
	row := i.groups[i.outIdx].rep
	i.outIdx++
	return row, nil
}

func (i *aggregateIter) Close() error {
	if i.ec.shed {
		i.index, i.groups, i.free = nil, nil, nil
	}
	return i.src.Close()
}

// group returns the group of the current key (i.keyBuf), starting it
// with row as its representative when the key is new.
func (i *aggregateIter) group(row []record.Value) (*aggGroup, error) {
	h := maphash.Bytes(i.seed, i.keyBuf)
	if i.index == nil {
		i.index = make(map[uint64]*aggGroup)
	}
	for g := i.index[h]; g != nil; g = g.next {
		if bytes.Equal(g.key, i.keyBuf) {
			return g, nil
		}
	}
	g, err := i.newGroup()
	if err != nil {
		return nil, err
	}
	g.key = append(g.key[:0], i.keyBuf...)
	g.rep = append(g.rep[:0], row...)
	g.next = i.index[h]
	i.index[h] = g
	return g, nil
}

// newGroup takes a recycled group, its states emptied, or makes one.
func (i *aggregateIter) newGroup() (*aggGroup, error) {
	var g *aggGroup
	if n := len(i.free); n > 0 {
		g = i.free[n-1]
		i.free = i.free[:n-1]
		for _, st := range g.states {
			st.reset()
		}
	} else {
		// Room for the aggregate slots: the group's output row is its
		// representative row extended in place.
		g = &aggGroup{rep: make([]record.Value, 0, i.inputCols+len(i.specs))}
		for _, spec := range i.specs {
			st, err := newAggState(spec.call.Name)
			if err != nil {
				return nil, err
			}
			if spec.call.Distinct {
				st = newDistinctAgg(st)
			}
			g.states = append(g.states, st)
		}
	}
	i.groups = append(i.groups, g)
	return g, nil
}

func (i *aggregateIter) run() error {
	// The representative-row refinement applies when exactly one
	// aggregate exists and it is min or max.
	repFollowsExtreme := len(i.specs) == 1 && i.specs[0].isMinMax

	for {
		row, err := i.src.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		i.rc.row = row
		i.keyBuf = i.keyBuf[:0]
		for _, g := range i.groupBy {
			v, err := g(&i.rc)
			if err != nil {
				return err
			}
			i.keyBuf = record.EncodeKey(i.keyBuf, []record.Value{v})
		}
		grp, err := i.group(row)
		if err != nil {
			return err
		}
		for k, spec := range i.specs {
			var v record.Value
			if spec.arg == nil {
				v = record.Int(1) // count(*): any non-null
			} else {
				v, err = spec.arg(&i.rc)
				if err != nil {
					return err
				}
			}
			becameExtreme := grp.states[k].step(v)
			if becameExtreme && repFollowsExtreme {
				grp.rep = append(grp.rep[:0], row...)
			}
		}
	}

	if len(i.groups) == 0 && i.emitEmptyGroup {
		grp, err := i.newGroup()
		if err != nil {
			return err
		}
		grp.rep = grp.rep[:0]
		for range i.inputCols {
			grp.rep = append(grp.rep, record.Null())
		}
	}

	for _, grp := range i.groups {
		for _, st := range grp.states {
			v, err := st.final()
			if err != nil {
				return err
			}
			grp.rep = append(grp.rep, v)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Distinct, sort, limit
// ---------------------------------------------------------------------------

// pairRow is one projected row together with the source row it was
// computed from, which later sort stages still evaluate their keys
// against. The pairRow, proj and src all belong to the producing
// iterators and are overwritten by their next call: finalIter copies a
// projected row it keeps (a sort) or hands to a caller that may keep it.
type pairRow struct {
	proj []record.Value
	src  []record.Value
}

// pairIterator is the iterator contract over pair rows.
type pairIterator interface {
	reset() error
	Next() (*pairRow, error)
	Close() error
}

// distinctPairIter deduplicates projected rows.
type distinctPairIter struct {
	src  *projectPairIter
	seen map[string]bool
	key  []byte
}

func (i *distinctPairIter) reset() error {
	clear(i.seen)
	return i.src.reset()
}

func (i *distinctPairIter) Next() (*pairRow, error) {
	if i.seen == nil {
		i.seen = make(map[string]bool)
	}
	for {
		pr, err := i.src.Next()
		if err != nil || pr == nil {
			return nil, err
		}
		i.key = record.EncodeKey(i.key[:0], pr.proj)
		if i.seen[string(i.key)] {
			continue
		}
		i.seen[string(i.key)] = true
		return pr, nil
	}
}
func (i *distinctPairIter) Close() error {
	if i.src.rc.ec.shed {
		i.seen = nil
	}
	return i.src.Close()
}

// projectPairIter computes the projection into one output row it owns
// and reuses, while retaining the source row.
type projectPairIter struct {
	src    iterator
	exprs  []compiledExpr
	rc     rowCtx
	out    []record.Value
	pair   pairRow
	poison bool // DB.poisonScans: out is overwritten before each fill
}

func (i *projectPairIter) reset() error { return i.src.reset() }

func (i *projectPairIter) Next() (*pairRow, error) {
	row, err := i.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	if i.poison {
		poisonRow(i.out)
	}
	i.rc.row = row
	for k, e := range i.exprs {
		v, err := e(&i.rc)
		if err != nil {
			return nil, err
		}
		i.out[k] = v
	}
	i.pair = pairRow{proj: i.out, src: row}
	return &i.pair, nil
}
func (i *projectPairIter) Close() error { return i.src.Close() }

// finalIter adapts the pair stream to the iterator interface, applying
// ORDER BY (materializing), LIMIT and OFFSET. The LIMIT and OFFSET
// expressions are constants evaluated by reset. A sorted run returns
// rows it copied; a streaming one returns the projection's reused row,
// or a copy of it when copyOut is set — what a caller that may keep its
// rows (RowCallback of Exec and ExecAsOf) gets.
type finalIter struct {
	pairs   pairIterator
	orderBy []compiledExpr // evaluated against the source row
	desc    []bool
	// project-row ordinals: when an ORDER BY term is a literal integer
	// N, sort by projected column N (1-based). ordinal[k] >= 0 wins
	// over orderBy[k].
	ordinal []int
	limitE  compiledExpr // nil = no LIMIT
	offsetE compiledExpr // nil = no OFFSET
	ec      *execCtx
	copyOut bool

	rc      rowCtx
	limit   int64 // -1 = no limit
	offset  int64
	sorted  bool
	rows    [][]record.Value // projected rows, in output order once sorted
	keys    [][]record.Value
	idx     int
	emitted int64
}

func (i *finalIter) reset() error {
	i.limit, i.offset = -1, 0
	if i.limitE != nil {
		v, err := i.limitE(&i.rc)
		if err != nil {
			return err
		}
		i.limit = v.AsInt()
	}
	if i.offsetE != nil {
		v, err := i.offsetE(&i.rc)
		if err != nil {
			return err
		}
		i.offset = max(v.AsInt(), 0)
	}
	i.sorted = false
	i.rows, i.keys = i.rows[:0], i.keys[:0]
	i.idx, i.emitted = 0, 0
	return i.pairs.reset()
}

func (i *finalIter) Next() ([]record.Value, error) {
	if len(i.orderBy) == 0 {
		// Streaming path.
		for i.offset > 0 {
			pr, err := i.pairs.Next()
			if err != nil || pr == nil {
				return nil, err
			}
			i.offset--
		}
		if i.limit >= 0 && i.emitted >= i.limit {
			return nil, nil
		}
		pr, err := i.pairs.Next()
		if err != nil || pr == nil {
			return nil, err
		}
		i.emitted++
		if i.copyOut {
			return cloneRow(pr.proj), nil
		}
		return pr.proj, nil
	}
	if !i.sorted {
		if err := i.sortAll(); err != nil {
			return nil, err
		}
		i.sorted = true
		i.idx = int(i.offset)
	}
	if i.idx >= len(i.rows) {
		return nil, nil
	}
	if i.limit >= 0 && i.emitted >= i.limit {
		return nil, nil
	}
	row := i.rows[i.idx]
	i.idx++
	i.emitted++
	return row, nil
}

// sortAll reads the whole input. Each sort key is evaluated against the
// source row while that row is still current, so only the projected row
// and the key outlive the pair.
func (i *finalIter) sortAll() error {
	rc := &i.rc
	for {
		pr, err := i.pairs.Next()
		if err != nil {
			return err
		}
		if pr == nil {
			break
		}
		key := make([]record.Value, len(i.orderBy))
		rc.row = pr.src
		for k, e := range i.orderBy {
			if i.ordinal[k] >= 0 {
				key[k] = pr.proj[i.ordinal[k]]
				continue
			}
			v, err := e(rc)
			if err != nil {
				return err
			}
			key[k] = v
		}
		i.rows = append(i.rows, cloneRow(pr.proj))
		i.keys = append(i.keys, key)
	}
	// Sort indices so rows and keys stay aligned.
	idxs := make([]int, len(i.rows))
	for k := range idxs {
		idxs[k] = k
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ka, kb := i.keys[idxs[a]], i.keys[idxs[b]]
		for t := range ka {
			c := record.Compare(ka[t], kb[t])
			if c == 0 {
				continue
			}
			if i.desc[t] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	rows := make([][]record.Value, len(idxs))
	for k, id := range idxs {
		rows[k] = i.rows[id]
	}
	i.rows = rows
	return nil
}

func (i *finalIter) Close() error {
	if i.ec.shed {
		i.rows, i.keys = nil, nil
	}
	return i.pairs.Close()
}

// passPairIter wraps a pair source without deduplication.
type passPairIter struct{ src *projectPairIter }

func (i *passPairIter) reset() error            { return i.src.reset() }
func (i *passPairIter) Next() (*pairRow, error) { return i.src.Next() }
func (i *passPairIter) Close() error            { return i.src.Close() }

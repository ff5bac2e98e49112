package sql

import (
	"bytes"
	"encoding/binary"
	"sort"
	"time"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// iterator is the volcano-style row iterator every executor node
// implements. Next returns nil at end of stream. The returned row
// belongs to the iterator, which overwrites it on its next call: a
// consumer that keeps a row past that call copies it first (cloneRow).
type iterator interface {
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

func newScanRow(ec *execCtx, t *Table, need []bool) scanRow {
	return scanRow{vals: make([]record.Value, len(t.Cols)+1), need: need, poison: ec.conn.db.poisonScans}
}

// decode fills the buffer from an encoded table record. Columns the
// record predates (it is shorter than the table) read as NULL.
func (r *scanRow) decode(data []byte, rowid int64) ([]record.Value, error) {
	if r.poison {
		for k := range r.vals {
			r.vals[k] = poisonValue
		}
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
// row does not exist).
func (r *scanRow) fetch(tbl *btree.Tree, rowid int64) ([]record.Value, error) {
	v, found, err := tbl.Get(rowidKey(rowid))
	if err != nil || !found {
		return nil, err
	}
	return r.decode(v, rowid)
}

// tableScanIter scans a table in rowid order, emitting the columns
// followed by the hidden rowid.
type tableScanIter struct {
	cur     *btree.Cursor
	row     scanRow
	started bool
}

func newTableScan(ec *execCtx, p storage.Pager, t *Table, need []bool) *tableScanIter {
	return &tableScanIter{cur: btree.Open(p, t.Root).Cursor(), row: newScanRow(ec, t, need)}
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
// full rows from the table. lo is the seek target; the scan continues
// while the index key starts with eqPrefix (equality scans) and, for
// range scans, while checkHi admits the first key column.
type indexScanIter struct {
	table    *Table
	index    *Index
	idxCur   *btree.Cursor
	tbl      *btree.Tree
	row      scanRow
	lo       []byte
	eqPrefix []byte
	checkHi  func(v record.Value) bool // nil = no upper bound
	started  bool
}

func (i *indexScanIter) Next() ([]record.Value, error) {
	for {
		var ok bool
		var err error
		if !i.started {
			i.started = true
			ok, err = i.idxCur.Seek(i.lo)
		} else {
			ok, err = i.idxCur.Next()
		}
		if err != nil || !ok {
			return nil, err
		}
		key := i.idxCur.Key()
		if i.eqPrefix != nil && !bytes.HasPrefix(key, i.eqPrefix) {
			return nil, nil
		}
		if i.checkHi != nil {
			first, _, err := record.DecodeKeyValue(key)
			if err != nil {
				return nil, err
			}
			if !i.checkHi(first) {
				return nil, nil
			}
		}
		_, rowid, err := indexKeyRowid(i.index, key)
		if err != nil {
			return nil, err
		}
		row, err := i.row.fetch(i.tbl, rowid)
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
// it per outer row. The build time is recorded in ExecStats.AutoIndex,
// which Figure 9's index-creation bars measure.
type autoIndexJoin struct {
	joinCore
	outerKey compiledExpr

	// buildInner opens the inner side's access path on first use.
	buildInner func() (iterator, error)
	innerKey   compiledExpr
	inner      []record.Value // the current index entry's payload, decoded: one inner row

	built    bool
	buildErr error
	scratch  *storage.Tx
	tree     *btree.Tree

	prefix []byte
	cur    *btree.Cursor
}

func (i *autoIndexJoin) build() error {
	start := time.Now()
	defer func() { i.rc.ec.stats.AutoIndex += time.Since(start) }()
	inner, err := i.buildInner()
	if err != nil {
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
		if _, err = record.DecodeRowInto(i.inner, i.cur.Value(), nil); err != nil {
			return nil, err
		}
		return i.emit(i.inner), nil
	}
}

func (i *autoIndexJoin) Close() error {
	if i.scratch != nil {
		i.scratch.Rollback()
		i.scratch = nil
	}
	return i.outer.Close()
}

// indexJoinIter joins outer rows against an inner base table through a
// native index: per outer row it probes the index with the join key.
type indexJoinIter struct {
	joinCore
	table    *Table
	index    *Index
	outerKey compiledExpr

	idxCur *btree.Cursor
	tbl    *btree.Tree
	inner  scanRow
	prefix []byte
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
		inner, err := i.inner.fetch(i.tbl, rowid)
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

// drain materializes an iterator, copying every row out of the buffers
// the iterators reuse (INSERT … SELECT, DML match sets).
func drain(it iterator) ([][]record.Value, error) {
	defer it.Close()
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
type aggregateIter struct {
	src       iterator
	groupBy   []compiledExpr
	specs     []aggSpec
	inputCols int
	ec        *execCtx
	// emitEmptyGroup: aggregate query with no GROUP BY emits one row
	// even on empty input.
	emitEmptyGroup bool

	done   bool
	out    [][]record.Value
	outIdx int
}

func (i *aggregateIter) Next() ([]record.Value, error) {
	if !i.done {
		if err := i.run(); err != nil {
			return nil, err
		}
		i.done = true
	}
	if i.outIdx >= len(i.out) {
		return nil, nil
	}
	row := i.out[i.outIdx]
	i.outIdx++
	return row, nil
}

func (i *aggregateIter) Close() error { return i.src.Close() }

type aggGroup struct {
	rep    []record.Value
	states []aggState
}

func (i *aggregateIter) run() error {
	groups := make(map[string]*aggGroup)
	var order []string

	// The representative-row refinement applies when exactly one
	// aggregate exists and it is min or max.
	repFollowsExtreme := len(i.specs) == 1 && i.specs[0].isMinMax

	rc := &rowCtx{ec: i.ec}
	var keyBuf []byte
	for {
		row, err := i.src.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		rc.row = row
		keyBuf = keyBuf[:0]
		for _, g := range i.groupBy {
			v, err := g(rc)
			if err != nil {
				return err
			}
			keyBuf = record.EncodeKey(keyBuf, []record.Value{v})
		}
		grp := groups[string(keyBuf)] // no key string is built for a lookup
		if grp == nil {
			key := string(keyBuf)
			// Room for the aggregate slots: the group's output row is
			// its representative row extended in place.
			grp = &aggGroup{rep: append(make([]record.Value, 0, i.inputCols+len(i.specs)), row...)}
			for _, spec := range i.specs {
				st, err := newAggState(spec.call.Name)
				if err != nil {
					return err
				}
				if spec.call.Distinct {
					st = newDistinctAgg(st)
				}
				grp.states = append(grp.states, st)
			}
			groups[key] = grp
			order = append(order, key)
		}
		for k, spec := range i.specs {
			var v record.Value
			if spec.arg == nil {
				v = record.Int(1) // count(*): any non-null
			} else {
				v, err = spec.arg(rc)
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

	if len(groups) == 0 && i.emitEmptyGroup {
		grp := &aggGroup{rep: make([]record.Value, i.inputCols)}
		for k := range grp.rep {
			grp.rep[k] = record.Null()
		}
		for _, spec := range i.specs {
			st, err := newAggState(spec.call.Name)
			if err != nil {
				return err
			}
			if spec.call.Distinct {
				st = newDistinctAgg(st)
			}
			grp.states = append(grp.states, st)
		}
		groups[""] = grp
		order = append(order, "")
	}

	for _, key := range order {
		grp := groups[key]
		row := grp.rep
		for _, st := range grp.states {
			row = append(row, st.final())
		}
		i.out = append(i.out, row)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Distinct, sort, limit
// ---------------------------------------------------------------------------

// pairRow is one projected row together with the source row it was
// computed from, which later sort stages still evaluate their keys
// against. The pairRow and its src belong to the producing iterator and
// are overwritten by its next call; proj is freshly allocated, because
// result rows are handed to callbacks and sorts that keep them.
type pairRow struct {
	proj []record.Value
	src  []record.Value
}

// distinctPairIter deduplicates projected rows.
type distinctPairIter struct {
	src  *projectPairIter
	seen map[string]bool
	key  []byte
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
func (i *distinctPairIter) Close() error { return i.src.Close() }

// projectPairIter computes the projection while retaining the source row.
type projectPairIter struct {
	src   iterator
	exprs []compiledExpr
	rc    rowCtx
	pair  pairRow
}

func (i *projectPairIter) Next() (*pairRow, error) {
	row, err := i.src.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]record.Value, len(i.exprs))
	i.rc.row = row
	for k, e := range i.exprs {
		v, err := e(&i.rc)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	i.pair = pairRow{proj: out, src: row}
	return &i.pair, nil
}
func (i *projectPairIter) Close() error { return i.src.Close() }

// finalIter adapts the pair stream to the iterator interface, applying
// ORDER BY (materializing), LIMIT and OFFSET.
type finalIter struct {
	pairs interface {
		Next() (*pairRow, error)
		Close() error
	}
	orderBy []compiledExpr // evaluated against the source row
	desc    []bool
	// project-row ordinals: when an ORDER BY term is a literal integer
	// N, sort by projected column N (1-based). ordinal[k] >= 0 wins
	// over orderBy[k].
	ordinal []int
	limit   int64 // -1 = no limit
	offset  int64
	ec      *execCtx

	sorted  bool
	rows    [][]record.Value // projected rows, in output order once sorted
	keys    [][]record.Value
	idx     int
	emitted int64
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
	rc := &rowCtx{ec: i.ec}
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
		i.rows = append(i.rows, pr.proj)
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

func (i *finalIter) Close() error { return i.pairs.Close() }

// passPairIter wraps a pair source without deduplication.
type passPairIter struct{ src *projectPairIter }

func (i *passPairIter) Next() (*pairRow, error) { return i.src.Next() }
func (i *passPairIter) Close() error            { return i.src.Close() }

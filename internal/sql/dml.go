package sql

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// writeEnv is the execution environment of a write statement: an
// execCtx whose pager for the target store is a writer transaction.
type writeEnv struct {
	ec     *execCtx
	tx     *storage.Tx
	own    bool // autocommit: we opened tx and must commit/rollback it
	toSide bool
}

func (w *writeEnv) finish(err error) error {
	if ferr := w.ec.finalize(err == nil); err == nil {
		err = ferr
	}
	w.ec.close()
	if !w.own {
		return err
	}
	if err != nil {
		w.tx.Rollback()
		return err
	}
	return w.tx.Commit()
}

// targetStore decides which store a write statement addresses.
func (c *Conn) targetStore(stmt Statement) (toSide bool, err error) {
	name := ""
	switch s := stmt.(type) {
	case *InsertStmt:
		name = s.Table
	case *UpdateStmt:
		name = s.Table
	case *DeleteStmt:
		name = s.Table
	case *CreateTableStmt:
		return s.Temp, nil
	case *CreateIndexStmt:
		name = s.Table
	case *DropStmt:
		name = s.Name
	case *CreateRetroViewStmt:
		return true, nil // view definitions live in the side store
	case *DropRetroViewStmt:
		return true, nil
	default:
		return false, fmt.Errorf("sql: unsupported write statement %T", stmt)
	}
	// A cheap side-store catalog probe: temp objects shadow main ones.
	rt, err := c.db.side.BeginRead()
	if err != nil {
		return false, err
	}
	defer rt.Close()
	sch, err := c.db.currentSchema(c.db.side, rt, rt.LSN(), true)
	if err != nil {
		return false, err
	}
	if d, ok := stmt.(*DropStmt); ok && d.Index {
		return sch.index(name) != nil, nil
	}
	return sch.table(name) != nil, nil
}

// newWriteEnv builds the environment: a writer transaction on the
// target store, read access to the other store.
func (c *Conn) newWriteEnv(toSide bool, params []record.Value, stats *ExecStats) (*writeEnv, error) {
	w := &writeEnv{toSide: toSide}
	ec := &execCtx{conn: c, params: params, stats: stats}
	w.ec = ec

	tx, own, err := c.writerTx(toSide)
	if err != nil {
		return nil, err
	}
	w.tx, w.own = tx, own
	if toSide {
		ec.sidePager = tx
		// Main store is read-only here.
		if c.mainTx != nil {
			ec.mainPager = c.mainTx
		} else {
			mrt, err := c.db.main.BeginRead()
			if err != nil {
				tx.Rollback()
				return nil, err
			}
			ec.closers = append(ec.closers, mrt.Close)
			ec.mainPager = mrt
		}
	} else {
		ec.mainPager = tx
		srt, err := c.db.side.BeginRead()
		if err != nil {
			if own {
				tx.Rollback()
			}
			return nil, err
		}
		ec.closers = append(ec.closers, srt.Close)
		ec.sidePager = srt
	}

	// Through the memos, not the LSN caches: the walk reads every
	// catalog page through the statement's own pagers, so the writer sees
	// its own uncommitted DDL and is billed the pages it always was.
	ec.mainSchema, err = c.db.mainMemo.load(ec.mainPager, false)
	if err == nil {
		ec.sideSchema, err = c.db.sideMemo.load(ec.sidePager, true)
	}
	if err != nil {
		if own {
			tx.Rollback()
		}
		ec.close()
		return nil, err
	}
	return w, nil
}

// conflictBackoff caps the per-attempt backoff of the autocommit
// conflict retry loop (see retryWrite).
const conflictBackoff = time.Millisecond

// retryWrite runs fn, retrying on ErrWriteConflict when the statement
// autocommits: it targets the side store (a side-store statement always
// commits on its own, BEGIN or not) or no explicit transaction is open.
// Inside one, a main-store conflict belongs to the client and surfaces
// at COMMIT. Each attempt runs on a fresh snapshot and loads its
// schemas from that snapshot's catalog, so re-execution is equivalent
// to the client resubmitting the statement. The loop is unbounded: a
// conflict abort means some other transaction committed, so the system
// as a whole always progresses; a growing, capped backoff keeps an
// unlucky statement from starving under sustained contention. stats is
// reset between attempts so only the winning execution is accounted.
func (c *Conn) retryWrite(stats *ExecStats, autocommit bool, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if !autocommit || !errors.Is(err, storage.ErrWriteConflict) {
			return err
		}
		*stats = ExecStats{}
		if attempt >= 4 {
			d := time.Duration(attempt) * 50 * time.Microsecond
			if d > conflictBackoff {
				d = conflictBackoff
			}
			time.Sleep(d)
		}
	}
}

// execWrite executes a non-SELECT, non-transaction-control statement,
// transparently retrying autocommit statements that lose a
// first-committer-wins conflict in the commit group. The target store
// is resolved once, like BulkInsert's: a TEMP table created or dropped
// under the same name between attempts fails the retry in writeTable
// instead of moving the statement to the other store.
func (c *Conn) execWrite(stmt Statement, params []record.Value, stats *ExecStats) error {
	toSide, err := c.targetStore(stmt)
	if err != nil {
		return err
	}
	return c.retryWrite(stats, toSide || c.mainTx == nil, func() error {
		return c.execWriteOnce(stmt, toSide, params, stats)
	})
}

func (c *Conn) execWriteOnce(stmt Statement, toSide bool, params []record.Value, stats *ExecStats) error {
	w, err := c.newWriteEnv(toSide, params, stats)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		err = w.execInsert(s)
	case *UpdateStmt:
		err = w.execUpdate(s)
	case *DeleteStmt:
		err = w.execDelete(s)
	case *CreateTableStmt:
		err = w.execCreateTable(s)
	case *CreateIndexStmt:
		err = w.execCreateIndex(s)
	case *DropStmt:
		err = w.execDrop(s)
	case *CreateRetroViewStmt:
		err = w.execCreateRetroView(s)
	case *DropRetroViewStmt:
		err = w.execDropRetroView(s)
	default:
		err = fmt.Errorf("sql: unsupported write statement %T", stmt)
	}
	return w.finish(err)
}

// writeTable resolves the target table; it must live in the store the
// write transaction is on.
func (w *writeEnv) writeTable(name string) (*Table, *schema, error) {
	t, sch, err := w.ec.resolveTable(name)
	if err != nil {
		return nil, nil, err
	}
	if t.Temp != w.toSide {
		return nil, nil, fmt.Errorf("sql: internal: table %s resolved to the wrong store", name)
	}
	return t, sch, nil
}

func (w *writeEnv) execInsert(s *InsertStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	// Column mapping.
	colIdx := make([]int, 0, len(s.Cols))
	for _, cn := range s.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
		colIdx = append(colIdx, k)
	}
	buildRow := func(given []record.Value) ([]record.Value, error) {
		if len(s.Cols) == 0 {
			if len(given) != len(t.Cols) {
				return nil, fmt.Errorf("sql: table %s has %d columns but %d values were supplied", t.Name, len(t.Cols), len(given))
			}
			out := make([]record.Value, len(given))
			copy(out, given)
			return out, nil
		}
		if len(given) != len(colIdx) {
			return nil, fmt.Errorf("sql: %d columns but %d values", len(colIdx), len(given))
		}
		out := make([]record.Value, len(t.Cols))
		for i := range out {
			out[i] = record.Null()
		}
		for i, k := range colIdx {
			out[k] = given[i]
		}
		return out, nil
	}

	var sourceRows [][]record.Value
	switch {
	case s.Select != nil:
		if s.Select.AsOf != nil {
			return fmt.Errorf("sql: INSERT … SELECT reads the current state: AS OF is not supported there")
		}
		it, _, err := planSelect(s.Select, w.ec)
		if err != nil {
			return err
		}
		sourceRows, err = drain(it)
		if err != nil {
			return err
		}
	default:
		env := &compileEnv{ec: w.ec}
		for _, exprRow := range s.Rows {
			vals := make([]record.Value, len(exprRow))
			for i, e := range exprRow {
				ce, err := compileExpr(e, env)
				if err != nil {
					return err
				}
				v, err := ce(&rowCtx{ec: w.ec})
				if err != nil {
					return err
				}
				vals[i] = v
			}
			sourceRows = append(sourceRows, vals)
		}
	}
	ixs := sch.tableIndexes(t.Name)
	var bufs rowBufs
	for _, given := range sourceRows {
		vals, err := buildRow(given)
		if err != nil {
			return err
		}
		if _, err := insertRow(w.tx, t, ixs, vals, &bufs); err != nil {
			return err
		}
	}
	return nil
}

// rowBufs are the buffers a write path encodes a table record and index
// keys into, reused from row to row: the B-tree copies what it stores.
type rowBufs struct {
	rec, key, newKey []byte
}

// insertRow applies affinity and constraints, assigns the rowid, and
// writes the row plus its entries in t's indexes ixs. It is the single
// insert path shared by SQL INSERT, bulk loading, and the RQL
// mechanisms' result-table inserts.
func insertRow(p storage.Pager, t *Table, ixs []*Index, vals []record.Value, b *rowBufs) (int64, error) {
	if err := checkRow(t, vals); err != nil {
		return 0, err
	}
	aliasIdx := t.rowidAlias()
	tbl := btree.Open(p, t.Root)

	var rowid int64
	switch {
	case aliasIdx >= 0 && !vals[aliasIdx].IsNull():
		if vals[aliasIdx].Type() != record.TypeInt {
			return 0, fmt.Errorf("sql: %s.%s must be an integer", t.Name, t.Cols[aliasIdx].Name)
		}
		rowid = vals[aliasIdx].Int()
		if _, exists, err := tbl.Get(rowidKey(rowid)); err != nil {
			return 0, err
		} else if exists {
			return 0, fmt.Errorf("%w: %s.%s", ErrUniqueIndex, t.Name, t.Cols[aliasIdx].Name)
		}
	default:
		mk, err := tbl.MaxKey(b.key[:0])
		if err != nil {
			return 0, err
		}
		b.key = mk
		if mk == nil {
			rowid = 1
		} else {
			rowid = decodeRowidKey(mk) + 1
		}
		if aliasIdx >= 0 {
			vals[aliasIdx] = record.Int(rowid)
		}
	}

	// Index entries (with unique checks) before the row itself, so a
	// constraint failure leaves nothing half-written within this
	// statement's view (the enclosing transaction provides atomicity
	// anyway; this just keeps error paths tidy).
	for _, ix := range ixs {
		var err error
		if b.key, err = appendIndexKey(b.key[:0], ix, t, vals, rowid); err != nil {
			return 0, err
		}
		if err := checkUnique(p, ix, b.key); err != nil {
			return 0, err
		}
		if err := btree.Open(p, ix.Root).Insert(b.key, nil); err != nil {
			return 0, err
		}
	}
	b.rec = record.EncodeRow(b.rec[:0], vals)
	if err := tbl.Insert(rowidKey(rowid), b.rec); err != nil {
		return 0, err
	}
	return rowid, nil
}

// appendIndexKey appends the memcomparable key of one index entry to
// dst: the indexed columns, then the rowid.
func appendIndexKey(dst []byte, ix *Index, t *Table, vals []record.Value, rowid int64) ([]byte, error) {
	for _, cn := range ix.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return nil, fmt.Errorf("%w: index %s references %s", ErrNoColumn, ix.Name, cn)
		}
		dst = record.EncodeKey(dst, vals[k:k+1])
	}
	return record.EncodeKey(dst, []record.Value{record.Int(rowid)}), nil
}

// indexKeyRowid splits an entry key of ix into the indexed columns and
// the trailing rowid: it returns where the rowid starts and the rowid.
// The rowid's encoding is 10 bytes below 2^53 and 18 from there on
// (record.EncodeKey's long form), so its start is found by skipping the
// indexed columns, never by counting back from the end.
func indexKeyRowid(ix *Index, key []byte) (start int, rowid int64, err error) {
	if start, err = record.SkipKey(key, len(ix.Cols)); err != nil {
		return 0, 0, err
	}
	v, n, err := record.DecodeKeyValue(key[start:])
	if err != nil {
		return 0, 0, err
	}
	if start+n != len(key) || v.Type() != record.TypeInt {
		return 0, 0, fmt.Errorf("%w: index %s entry does not end in a rowid", record.ErrCorrupt, ix.Name)
	}
	return start, v.Int(), nil
}

// indexPrefixExists reports whether any index entry starts with prefix.
func indexPrefixExists(p storage.Pager, ix *Index, prefix []byte) (bool, error) {
	cur := btree.Open(p, ix.Root).Cursor()
	ok, err := cur.Seek(prefix)
	if err != nil || !ok {
		return false, err
	}
	return bytes.HasPrefix(cur.Key(), prefix), nil
}

// deleteRowByID removes one row and its entries in t's indexes ixs.
func deleteRowByID(p storage.Pager, t *Table, ixs []*Index, rowid int64, vals []record.Value, b *rowBufs) error {
	tbl := btree.Open(p, t.Root)
	if _, err := tbl.Delete(rowidKey(rowid)); err != nil {
		return err
	}
	for _, ix := range ixs {
		var err error
		if b.key, err = appendIndexKey(b.key[:0], ix, t, vals, rowid); err != nil {
			return err
		}
		if _, err := btree.Open(p, ix.Root).Delete(b.key); err != nil {
			return err
		}
	}
	return nil
}

// matchRows materializes the rows of t matching the conjuncts of where
// (each returned row carries the hidden rowid as its last value).
func (w *writeEnv) matchRows(t *Table, sch *schema, where Expr) ([][]record.Value, error) {
	// DML needs whole rows (index maintenance reads every indexed
	// column): no scan mask.
	cols := baseTableCols(t, strings.ToLower(t.Name), nil)

	conds := splitAnd(where)
	var it iterator = pickAccessPath(t, sch, conds, nil, w.ec)
	for _, cond := range conds {
		c, err := compileExpr(cond, &compileEnv{cols: cols, ec: w.ec})
		if err != nil {
			return nil, err
		}
		it = newFilter(it, c, w.ec)
	}
	return drain(it)
}

func (w *writeEnv) execDelete(s *DeleteStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	rows, err := w.matchRows(t, sch, s.Where)
	if err != nil {
		return err
	}
	ixs := sch.tableIndexes(t.Name)
	var bufs rowBufs
	for _, row := range rows {
		rowid := row[len(row)-1].Int()
		if err := deleteRowByID(w.tx, t, ixs, rowid, row[:len(row)-1], &bufs); err != nil {
			return err
		}
	}
	return nil
}

func (w *writeEnv) execUpdate(s *UpdateStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	env := &compileEnv{cols: baseTableCols(t, strings.ToLower(t.Name), nil), ec: w.ec}

	setIdx := make([]int, len(s.Cols))
	setExprs := make([]compiledExpr, len(s.Cols))
	for i, cn := range s.Cols {
		k := t.ColIndex(cn)
		if k < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
		setIdx[i] = k
		ce, err := compileExpr(s.Exprs[i], env)
		if err != nil {
			return err
		}
		setExprs[i] = ce
	}
	alias := t.rowidAlias()

	rows, err := w.matchRows(t, sch, s.Where)
	if err != nil {
		return err
	}
	ixs := sch.tableIndexes(t.Name)
	var bufs rowBufs
	rc := &rowCtx{ec: w.ec}
	for _, row := range rows {
		rowid := row[len(row)-1].Int()
		oldVals := row[:len(row)-1]
		newVals := cloneRow(oldVals)
		rc.row = row
		for i, ce := range setExprs {
			v, err := ce(rc)
			if err != nil {
				return err
			}
			newVals[setIdx[i]] = v
		}
		if alias >= 0 {
			if v := applyAffinity(newVals[alias], affInteger); v.Type() != record.TypeInt || v.Int() != rowid {
				// The statement assigns the rowid alias: the row moves to
				// another key, which only delete + insert can do.
				if err := deleteRowByID(w.tx, t, ixs, rowid, oldVals, &bufs); err != nil {
					return err
				}
				if _, err := insertRow(w.tx, t, ixs, newVals, &bufs); err != nil {
					return err
				}
				continue
			}
		}
		if err := updateRow(w.tx, t, ixs, rowid, oldVals, newVals, &bufs); err != nil {
			return err
		}
	}
	return nil
}

// checkRow applies column affinity to vals in place and enforces the
// table's arity and NOT NULL constraints.
func checkRow(t *Table, vals []record.Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("sql: table %s has %d columns but %d values", t.Name, len(t.Cols), len(vals))
	}
	for i, col := range t.Cols {
		vals[i] = applyAffinity(vals[i], col.aff)
		if col.NotNull && vals[i].IsNull() {
			return fmt.Errorf("%w: %s.%s", ErrNotNull, t.Name, col.Name)
		}
	}
	return nil
}

// updateRow rewrites the row stored under rowid from oldVals to newVals
// (which it normalizes in place). Only the indexes of ixs whose key the
// update changes are touched — a unique check, then the entry's key
// rewritten, which the B-tree does in place when the new key has the old
// one's length and keeps its position among its neighbours (an
// interval's end_snapshot moving on) — and the table cell is upserted,
// which the B-tree does in place when the new record is no larger than
// the old one. It is the one update path, shared by SQL UPDATE and the
// RQL mechanisms' result-table updates.
func updateRow(p storage.Pager, t *Table, ixs []*Index, rowid int64, oldVals, newVals []record.Value, b *rowBufs) error {
	if err := checkRow(t, newVals); err != nil {
		return err
	}
	for _, ix := range ixs {
		var err error
		if b.key, err = appendIndexKey(b.key[:0], ix, t, oldVals, rowid); err != nil {
			return err
		}
		if b.newKey, err = appendIndexKey(b.newKey[:0], ix, t, newVals, rowid); err != nil {
			return err
		}
		if bytes.Equal(b.key, b.newKey) {
			continue
		}
		if err := checkUnique(p, ix, b.newKey); err != nil {
			return err
		}
		tree := btree.Open(p, ix.Root)
		found, err := tree.ReplaceKey(b.key, b.newKey)
		if err != nil {
			return err
		}
		if !found {
			if err := tree.Insert(b.newKey, nil); err != nil {
				return err
			}
		}
	}
	b.rec = record.EncodeRow(b.rec[:0], newVals)
	return btree.Open(p, t.Root).Insert(rowidKey(rowid), b.rec)
}

// checkUnique fails when ix is unique and already holds an entry with
// key's column values (key minus its trailing rowid component).
func checkUnique(p storage.Pager, ix *Index, key []byte) error {
	if !ix.Unique {
		return nil
	}
	cols, _, err := indexKeyRowid(ix, key)
	if err != nil {
		return err
	}
	dup, err := indexPrefixExists(p, ix, key[:cols])
	if err != nil {
		return err
	}
	if dup {
		return fmt.Errorf("%w: index %s", ErrUniqueIndex, ix.Name)
	}
	return nil
}

func (w *writeEnv) execCreateTable(s *CreateTableStmt) error {
	// A retro view's name is the view's: the one table that may take it is
	// the view's own materialization, a TEMP table its maintenance
	// connection creates (Conn.MaintainView).
	if v := w.ec.sideSchema.view(s.Name); v != nil && !(w.toSide && strings.EqualFold(w.ec.conn.maintains, v.Name)) {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("%w: retro view %s", ErrExists, v.Name)
	}
	sch := w.ec.mainSchema
	if w.toSide {
		sch = w.ec.sideSchema
	}
	if sch.table(s.Name) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("%w: table %s", ErrExists, s.Name)
	}

	var cols []Column
	intPKs := 0
	for _, cd := range s.Cols {
		cols = append(cols, Column{
			Name:       cd.Name,
			Type:       cd.Type,
			NotNull:    cd.NotNull,
			RowidAlias: cd.PrimaryKey && typeAffinity(cd.Type) == affInteger,
		})
		if cols[len(cols)-1].RowidAlias {
			intPKs++
		}
	}
	if intPKs > 1 {
		return fmt.Errorf("sql: table %s has more than one INTEGER PRIMARY KEY", s.Name)
	}

	root, err := btree.Create(w.tx)
	if err != nil {
		return err
	}
	t := &Table{Name: s.Name, Root: root, Cols: cols, Temp: w.toSide}
	if err := putTable(w.tx, t); err != nil {
		return err
	}

	// Non-integer PRIMARY KEY columns get an automatic unique index.
	for _, cd := range s.Cols {
		if cd.PrimaryKey && typeAffinity(cd.Type) != affInteger {
			ixRoot, err := btree.Create(w.tx)
			if err != nil {
				return err
			}
			ix := &Index{
				Name:   fmt.Sprintf("pk_%s_%s", s.Name, cd.Name),
				Table:  s.Name,
				Root:   ixRoot,
				Cols:   []string{cd.Name},
				Unique: true,
				Temp:   w.toSide,
			}
			if err := putIndex(w.tx, ix); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *writeEnv) execCreateIndex(s *CreateIndexStmt) error {
	t, sch, err := w.writeTable(s.Table)
	if err != nil {
		return err
	}
	if sch.index(s.Name) != nil {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("%w: index %s", ErrExists, s.Name)
	}
	for _, cn := range s.Cols {
		if t.ColIndex(cn) < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Table, cn)
		}
	}
	root, err := btree.Create(w.tx)
	if err != nil {
		return err
	}
	ix := &Index{Name: s.Name, Table: t.Name, Root: root, Cols: s.Cols, Unique: s.Unique, Temp: w.toSide}
	if err := putIndex(w.tx, ix); err != nil {
		return err
	}

	// Populate from the table.
	tree := btree.Open(w.tx, ix.Root)
	need := make([]bool, len(t.Cols))
	for _, cn := range s.Cols {
		need[t.ColIndex(cn)] = true
	}
	scan := newTableScan(w.ec, t, need)
	if err := scan.reset(); err != nil {
		return err
	}
	var key []byte
	for {
		row, err := scan.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		rowid := row[len(row)-1].Int()
		if key, err = appendIndexKey(key[:0], ix, t, row[:len(row)-1], rowid); err != nil {
			return err
		}
		if err := checkUnique(w.tx, ix, key); err != nil {
			return err
		}
		if err := tree.Insert(key, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *writeEnv) execDrop(s *DropStmt) error {
	sch := w.ec.mainSchema
	if w.toSide {
		sch = w.ec.sideSchema
	}
	if s.Index {
		ix := sch.index(s.Name)
		if ix == nil {
			if s.IfExists {
				return nil
			}
			return fmt.Errorf("%w: %s", ErrNoIndex, s.Name)
		}
		if err := btree.Open(w.tx, ix.Root).Drop(); err != nil {
			return err
		}
		return deleteCatalogEntry(w.tx, "index", ix.Name)
	}
	t := sch.table(s.Name)
	if t == nil {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNoTable, s.Name)
	}
	for _, ix := range sch.tableIndexes(t.Name) {
		if err := btree.Open(w.tx, ix.Root).Drop(); err != nil {
			return err
		}
		if err := deleteCatalogEntry(w.tx, "index", ix.Name); err != nil {
			return err
		}
	}
	if err := btree.Open(w.tx, t.Root).Drop(); err != nil {
		return err
	}
	return deleteCatalogEntry(w.tx, "table", t.Name)
}

// BulkInsert inserts rows into a table through a single transaction
// (or the open explicit transaction), bypassing SQL parsing. It is the
// fast path for data loading (the TPC-H generator uses it).
func (c *Conn) BulkInsert(table string, rows [][]record.Value) error {
	toSide, err := c.tableIsTemp(table)
	if err != nil {
		return err
	}
	var stats ExecStats
	return c.retryWrite(&stats, toSide || c.mainTx == nil, func() error {
		w, err := c.newWriteEnv(toSide, nil, &stats)
		if err != nil {
			return err
		}
		err = func() error {
			t, sch, err := w.writeTable(table)
			if err != nil {
				return err
			}
			ixs := sch.tableIndexes(t.Name)
			var bufs rowBufs
			for _, row := range rows {
				vals := append([]record.Value(nil), row...)
				if _, err := insertRow(w.tx, t, ixs, vals, &bufs); err != nil {
					return err
				}
			}
			return nil
		}()
		return w.finish(err)
	})
}

func (c *Conn) tableIsTemp(name string) (bool, error) {
	rt, err := c.db.side.BeginRead()
	if err != nil {
		return false, err
	}
	defer rt.Close()
	sch, err := c.db.currentSchema(c.db.side, rt, rt.LSN(), true)
	if err != nil {
		return false, err
	}
	return sch.table(name) != nil, nil
}

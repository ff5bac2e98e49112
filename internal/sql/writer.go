package sql

import (
	"bytes"
	"fmt"
	"strings"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/storage"
)

// TableWriter is a prepared write path into one table: it holds a
// writer transaction open and performs inserts, indexed lookups and
// updates without re-parsing SQL. The RQL mechanisms use it for their
// result-table processing (the paper's UDF callbacks run prepared
// operations against the result table for every Qq record).
type TableWriter struct {
	conn *Conn
	tx   *storage.Tx
	own  bool
	sch  *schema
	done bool

	// Reused from call to call: the row Insert normalizes, the probe
	// key and row LookupByIndex reads, and the table's write state —
	// the encodings Insert and Update write and the cursors every call
	// reads and writes through, so an Update lands where the lookup
	// before it did.
	ins   []record.Value
	probe []byte
	row   scanRow
	bufs  rowBufs
}

// OpenTableWriter opens a writer on the named table. If the table lives
// in the main store and an explicit transaction is open, writes join
// that transaction; otherwise the writer holds its own transaction
// until Commit or Rollback.
func (c *Conn) OpenTableWriter(name string) (*TableWriter, error) {
	toSide, err := c.tableIsTemp(name)
	if err != nil {
		return nil, err
	}
	w := &TableWriter{conn: c}
	if w.tx, w.own, err = c.writerTx(toSide); err != nil {
		return nil, err
	}
	if w.sch, err = c.db.memo(toSide).load(w.tx, toSide); err != nil {
		w.Rollback()
		return nil, err
	}
	t := w.sch.table(name)
	if t == nil {
		w.Rollback()
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	w.bufs = newRowBufs(w.tx, t, w.sch.tableIndexes(t.Name))
	w.row = scanRow{vals: make([]record.Value, len(t.Cols)+1), poison: c.db.poisonScans}
	return w, nil
}

// Insert adds one row, maintaining all indexes, and returns its rowid.
// vals is left as it was.
func (w *TableWriter) Insert(vals []record.Value) (int64, error) {
	if w.done {
		return 0, storage.ErrTxDone
	}
	w.ins = append(w.ins[:0], vals...)
	return w.bufs.insert(w.ins)
}

// WriterIndex is one of a table's indexes, resolved by name once
// (TableWriter.Index) for LookupByIndex: its name and its position
// among the table's indexes, which serves every later writer on the
// table while the table's indexes stay as they were.
type WriterIndex struct {
	name string
	pos  int
}

// Index resolves the named index, one of the writer's table's.
func (w *TableWriter) Index(name string) (WriterIndex, error) {
	for i, ix := range w.bufs.ixs {
		if strings.EqualFold(ix.Name, name) {
			return WriterIndex{name: ix.Name, pos: i}, nil
		}
	}
	return WriterIndex{}, fmt.Errorf("%w: %s on %s", ErrNoIndex, name, w.bufs.t.Name)
}

// LookupByIndex finds the first row whose index-key prefix matches vals
// on ix, returning its rowid and column values. When the table's
// indexes have changed since ix was resolved, it resolves ix again
// first. The values live in a buffer the writer owns: they stay valid
// until the writer's next call, and the caller may change them to hand
// them back to Update as the new row.
func (w *TableWriter) LookupByIndex(ix *WriterIndex, vals []record.Value) (int64, []record.Value, bool, error) {
	if w.done {
		return 0, nil, false, storage.ErrTxDone
	}
	if ix.pos >= len(w.bufs.ixs) || w.bufs.ixs[ix.pos].Name != ix.name {
		var err error
		if *ix, err = w.Index(ix.name); err != nil {
			return 0, nil, false, err
		}
	}
	w.probe = record.EncodeKey(w.probe[:0], vals)
	cur := w.bufs.idx[ix.pos]
	ok, err := cur.Seek(w.probe)
	if err != nil || !ok {
		return 0, nil, false, err
	}
	key := cur.Key()
	if !bytes.HasPrefix(key, w.probe) {
		return 0, nil, false, nil
	}
	_, rowid, err := indexKeyRowid(w.bufs.ixs[ix.pos], key)
	if err != nil {
		return 0, nil, false, err
	}
	row, found, err := w.Fetch(rowid)
	return rowid, row, found, err
}

// Fetch returns the column values of the row stored under rowid, in the
// buffer LookupByIndex returns them in.
func (w *TableWriter) Fetch(rowid int64) ([]record.Value, bool, error) {
	if w.done {
		return nil, false, storage.ErrTxDone
	}
	row, err := w.row.fetch(w.bufs.tbl, rowid)
	if err != nil || row == nil {
		return nil, false, err
	}
	n := len(row) - 1 // the hidden rowid is not the caller's
	return row[:n:n], true, nil
}

// Update replaces the row identified by rowid, whose current values are
// oldVals (indexes maintained). It takes newVals over: column affinity
// is applied to it in place.
func (w *TableWriter) Update(rowid int64, oldVals, newVals []record.Value) error {
	if w.done {
		return storage.ErrTxDone
	}
	return w.bufs.update(rowid, oldVals, newVals)
}

// Commit publishes the writes (a no-op handoff when the writer joined
// an explicit transaction).
func (w *TableWriter) Commit() error {
	if w.done {
		return storage.ErrTxDone
	}
	w.done = true
	if !w.own {
		return nil
	}
	w.tx.SetTraceSpan(w.conn.traceParent())
	return w.tx.Commit()
}

// Rollback discards the writes (only for writers owning their
// transaction; joined writers leave the decision to the owner).
func (w *TableWriter) Rollback() {
	if w.done {
		return
	}
	w.done = true
	if w.own {
		w.tx.Rollback()
	}
}

// TableStats reports a table's size: rows, encoded data bytes, and the
// total key bytes of its indexes. Used by the §5.3 memory-footprint
// experiments.
type TableStats struct {
	Rows       int
	DataBytes  int64
	IndexBytes int64
}

// TableStats measures the named table in the current state.
func (c *Conn) TableStats(name string) (TableStats, error) {
	var out TableStats
	toSide, err := c.tableIsTemp(name)
	if err != nil {
		return out, err
	}
	store := c.db.main
	if toSide {
		store = c.db.side
	}
	rt, err := store.BeginRead()
	if err != nil {
		return out, err
	}
	defer rt.Close()
	sch, err := c.db.currentSchema(store, rt, rt.LSN(), toSide)
	if err != nil {
		return out, err
	}
	t := sch.table(name)
	if t == nil {
		return out, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	cur := btree.Open(rt, t.Root).Cursor()
	ok, err := cur.First()
	for ; ok && err == nil; ok, err = cur.Next() {
		out.Rows++
		out.DataBytes += int64(len(cur.Key()) + len(cur.Value()))
	}
	if err != nil {
		return out, err
	}
	for _, ix := range sch.tableIndexes(t.Name) {
		icur := btree.Open(rt, ix.Root).Cursor()
		ok, err := icur.First()
		for ; ok && err == nil; ok, err = icur.Next() {
			out.IndexBytes += int64(len(icur.Key()))
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ColumnsSet plans a SELECT and returns its output column names without
// executing it, against a reader set when set is non-nil (see
// ExecAsOfSet). asOf = 0 plans against the current state. The plan is
// kept like one that ran: the statement's first run plans again only if
// a catalog changed in between (a mechanism's result-table DDL changes
// the side store's). The RQL mechanisms use it to create result tables
// shaped like Qq's output.
func (c *Conn) ColumnsSet(sqlText string, set *ReaderSet, asOf uint64) ([]string, error) {
	stmts, err := c.stmts.parse(sqlText)
	if err != nil {
		return nil, err
	}
	var sel *SelectStmt
	if len(stmts) == 1 {
		sel, _ = stmts[0].(*SelectStmt)
	}
	if sel == nil {
		return nil, fmt.Errorf("sql: Columns requires a SELECT")
	}
	pool := c.plansFor(set)
	tp := pool.take(sqlText)
	defer pool.put(tp)
	p := tp.plan(0, 1)
	var stats ExecStats
	if err := c.bindPlan(sel, p, set, retro.SnapshotID(asOf), nil, &stats); err != nil {
		return nil, err
	}
	p.ec.close()
	return append([]string(nil), p.names...), nil
}

// QuoteIdent quotes an identifier for inclusion in generated SQL.
func QuoteIdent(name string) string { return quoteIdent(name) }

// ObjectInfo describes one catalog object (for shells and tools).
type ObjectInfo struct {
	Kind  string // "table" or "index"
	Name  string
	Table string // owning table for indexes
	Temp  bool   // lives in the non-snapshotable side store
}

// Objects lists every table and index in both stores.
func (c *Conn) Objects() ([]ObjectInfo, error) {
	var out []ObjectInfo
	for _, side := range []bool{false, true} {
		store := c.db.main
		if side {
			store = c.db.side
		}
		rt, err := store.BeginRead()
		if err != nil {
			return nil, err
		}
		sch, err := c.db.currentSchema(store, rt, rt.LSN(), side)
		rt.Close()
		if err != nil {
			return nil, err
		}
		for _, t := range sch.tables {
			out = append(out, ObjectInfo{Kind: "table", Name: t.Name, Temp: side})
		}
		for _, ix := range sch.indexes {
			out = append(out, ObjectInfo{Kind: "index", Name: ix.Name, Table: ix.Table, Temp: side})
		}
	}
	sortObjects(out)
	return out, nil
}

func sortObjects(objs []ObjectInfo) {
	for i := 1; i < len(objs); i++ {
		for j := i; j > 0 && objLess(objs[j], objs[j-1]); j-- {
			objs[j], objs[j-1] = objs[j-1], objs[j]
		}
	}
}

func objLess(a, b ObjectInfo) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind // indexes before tables is fine; stable rule
	}
	return a.Name < b.Name
}

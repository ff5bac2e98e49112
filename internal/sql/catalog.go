package sql

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/storage"
)

// The catalog is itself a B+tree rooted at a fixed page, so schema
// travels with snapshots: an AS OF query sees the tables and indexes
// exactly as they existed when the snapshot was declared (the paper's
// snapshots include "tables, indexes, system catalogs").
const catalogRoot storage.PageID = 1

// Errors returned by catalog operations.
var (
	ErrNoTable     = errors.New("sql: no such table")
	ErrNoIndex     = errors.New("sql: no such index")
	ErrExists      = errors.New("sql: object already exists")
	ErrNoColumn    = errors.New("sql: no such column")
	ErrNotNull     = errors.New("sql: NOT NULL constraint failed")
	ErrUniqueIndex = errors.New("sql: UNIQUE constraint failed")
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    string // declared type, upper-cased ("" if none)
	NotNull bool
	// RowidAlias marks an INTEGER PRIMARY KEY column, which aliases the
	// table's rowid like in SQLite.
	RowidAlias bool
	// aff is Type's affinity (typeAffinity), resolved once when the
	// catalog entry decodes, for the write path's per-row checks.
	aff affinity
}

// Table describes a table: its columns and root page.
type Table struct {
	Name string
	Root storage.PageID
	Cols []Column
	Temp bool // lives in the non-snapshotable side store
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i := range t.Cols {
		if strings.EqualFold(t.Cols[i].Name, name) {
			return i
		}
	}
	return -1
}

// rowidAlias returns the position of the INTEGER PRIMARY KEY column that
// aliases the rowid, or -1.
func (t *Table) rowidAlias() int {
	for i := range t.Cols {
		if t.Cols[i].RowidAlias {
			return i
		}
	}
	return -1
}

// Index describes a secondary index.
type Index struct {
	Name   string
	Table  string
	Root   storage.PageID
	Cols   []string
	Unique bool
	Temp   bool
}

// RetroViewDef is the immutable definition of a materialized retro
// view as stored in the side store's catalog: which mechanism to run
// and its string arguments. Mutable refresh state (cursor, cached
// read-set, accumulators) lives in the rql_view_state side table, not
// the catalog.
type RetroViewDef struct {
	Name      string
	Mechanism string
	Qq        string
	Extra     string
	HasExtra  bool
}

// schema is one store's catalog contents.
type schema struct {
	tables  map[string]*Table // lower-cased name
	indexes map[string]*Index
	views   map[string]*RetroViewDef
}

func newSchema() *schema {
	return &schema{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		views:   make(map[string]*RetroViewDef),
	}
}

func (s *schema) table(name string) *Table       { return s.tables[strings.ToLower(name)] }
func (s *schema) index(name string) *Index       { return s.indexes[strings.ToLower(name)] }
func (s *schema) view(name string) *RetroViewDef { return s.views[strings.ToLower(name)] }

// tableIndexes returns the indexes on a table, in name order.
func (s *schema) tableIndexes(table string) []*Index {
	var out []*Index
	for _, ix := range s.indexes {
		if strings.EqualFold(ix.Table, table) {
			out = append(out, ix)
		}
	}
	// Deterministic order for planning and tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// initCatalog formats a fresh store: page 1 becomes the catalog tree.
func initCatalog(p storage.Pager) error {
	root, err := btree.Create(p)
	if err != nil {
		return err
	}
	if root != catalogRoot {
		return fmt.Errorf("sql: catalog root allocated at page %d, want %d", root, catalogRoot)
	}
	return nil
}

// catalogKey builds the catalog btree key for an object.
func catalogKey(kind, name string) []byte {
	return record.EncodeKey(nil, []record.Value{record.Text(kind), record.Text(strings.ToLower(name))})
}

// A catalog entry is one record (internal/record) per object, every
// name, type and column a value of its own, so any identifier
// round-trips:
//
//	table: "table", name, name, root, then name, type, flags per column
//	index: "index", name, table, root, unique, then the indexed columns
//	view:  "view", name, mechanism, hasExtra, Qq, extra
//
// A column's flags are colNotNull | colRowidAlias.
const (
	colNotNull = 1 << iota
	colRowidAlias
)

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// tableEntry encodes a table's catalog entry.
func tableEntry(t *Table) []byte {
	row := make([]record.Value, 0, 4+3*len(t.Cols))
	row = append(row, record.Text("table"), record.Text(t.Name), record.Text(t.Name), record.Int(int64(t.Root)))
	for _, c := range t.Cols {
		flags := boolInt(c.NotNull)*colNotNull | boolInt(c.RowidAlias)*colRowidAlias
		row = append(row, record.Text(c.Name), record.Text(c.Type), record.Int(flags))
	}
	return record.EncodeRow(nil, row)
}

// indexEntry encodes an index's catalog entry.
func indexEntry(ix *Index) []byte {
	row := make([]record.Value, 0, 5+len(ix.Cols))
	row = append(row, record.Text("index"), record.Text(ix.Name), record.Text(ix.Table),
		record.Int(int64(ix.Root)), record.Int(boolInt(ix.Unique)))
	for _, c := range ix.Cols {
		row = append(row, record.Text(c))
	}
	return record.EncodeRow(nil, row)
}

// viewEntry encodes a retro view's catalog entry. Views have no root
// page: their result rows live in an ordinary side-store table created
// at first materialization.
func viewEntry(v *RetroViewDef) []byte {
	return record.EncodeRow(nil, []record.Value{
		record.Text("view"),
		record.Text(v.Name),
		record.Text(v.Mechanism),
		record.Int(boolInt(v.HasExtra)),
		record.Text(v.Qq),
		record.Text(v.Extra),
	})
}

// errCorruptEntry reports a catalog entry that is not in the form
// tableEntry, indexEntry or viewEntry writes.
var errCorruptEntry = fmt.Errorf("%w: catalog entry", record.ErrCorrupt)

// fieldsAre reports whether row's fields from position from on have the
// types of pattern, cycled ('t' TEXT, 'i' INTEGER): the field layout
// check that comes before any Text or Int call on a decoded entry.
func fieldsAre(row []record.Value, from int, pattern string) bool {
	if len(row) < from || (len(row)-from)%len(pattern) != 0 {
		return false
	}
	for k, v := range row[from:] {
		want := record.TypeText
		if pattern[k%len(pattern)] == 'i' {
			want = record.TypeInt
		}
		if v.Type() != want {
			return false
		}
	}
	return true
}

// add decodes one catalog entry into s. It accepts an entry only in the
// exact bytes its encoder writes, so equal schemas have equal catalog
// bytes (what schemaMemo keys on), and an entry shipped from another
// process is either decoded to what wrote it or refused.
func (s *schema) add(val []byte, temp bool) error {
	row, err := record.DecodeRow(val)
	if err != nil {
		return err
	}
	if len(row) == 0 || row[0].Type() != record.TypeText {
		return errCorruptEntry
	}
	switch kind := row[0].Text(); kind {
	case "table":
		if len(row) < 4 || !fieldsAre(row[:4], 1, "tti") || !fieldsAre(row, 4, "tti") {
			return errCorruptEntry
		}
		t := &Table{Name: row[1].Text(), Root: storage.PageID(row[3].Int()), Temp: temp,
			Cols: make([]Column, (len(row)-4)/3)}
		for i := range t.Cols {
			f := row[4+3*i:]
			t.Cols[i] = Column{Name: f[0].Text(), Type: f[1].Text(), aff: typeAffinity(f[1].Text()),
				NotNull: f[2].Int()&colNotNull != 0, RowidAlias: f[2].Int()&colRowidAlias != 0}
		}
		if !bytes.Equal(tableEntry(t), val) {
			return errCorruptEntry
		}
		s.tables[strings.ToLower(t.Name)] = t
	case "index":
		if len(row) < 5 || !fieldsAre(row[:5], 1, "ttii") || !fieldsAre(row, 5, "t") {
			return errCorruptEntry
		}
		ix := &Index{Name: row[1].Text(), Table: row[2].Text(), Root: storage.PageID(row[3].Int()),
			Unique: row[4].Int() != 0, Temp: temp, Cols: make([]string, len(row)-5)}
		for i := range ix.Cols {
			ix.Cols[i] = row[5+i].Text()
		}
		if !bytes.Equal(indexEntry(ix), val) {
			return errCorruptEntry
		}
		s.indexes[strings.ToLower(ix.Name)] = ix
	case "view":
		if len(row) != 6 || !fieldsAre(row, 1, "ttitt") {
			return errCorruptEntry
		}
		v := &RetroViewDef{Name: row[1].Text(), Mechanism: row[2].Text(), HasExtra: row[3].Int() != 0,
			Qq: row[4].Text(), Extra: row[5].Text()}
		if !bytes.Equal(viewEntry(v), val) {
			return errCorruptEntry
		}
		s.views[strings.ToLower(v.Name)] = v
	default:
		return fmt.Errorf("sql: unknown catalog object kind %q", kind)
	}
	return nil
}

// schemaMemo is the schema a store's statements decoded last, with the
// catalog bytes it was decoded from: the catalog entries' values, each
// preceded by its uvarint length, in key order. Equal catalog bytes
// decode to the same schema, so a statement — read or write — whose
// catalog matches them takes the memo's schema (the same *schema, and
// so the same plans, selectPlan) instead of decoding its own. Memo
// schemas are shared and never changed: DDL writes catalog rows only,
// and the next statement's load decodes the new catalog.
type schemaMemo struct {
	mu  sync.Mutex
	raw []byte // never changed once published: a new memo gets a new slice
	s   *schema
}

// load returns the schema of the catalog p sees. Every catalog page is
// read through p, in key order, whether the memo hits or not, so page
// counters and read-sets do not depend on it, and a writer's pager shows
// it its own uncommitted DDL; a miss decodes the catalog (from the bytes
// gathered during the walk) and becomes the memo.
func (m *schemaMemo) load(p storage.Pager, temp bool) (*schema, error) {
	m.mu.Lock()
	raw, memo := m.raw, m.s
	m.mu.Unlock()

	matched := 0   // prefix of raw the catalog has matched so far
	var cat []byte // the catalog's bytes, once it differs from raw
	differs := memo == nil
	c := btree.Open(p, catalogRoot).Cursor()
	ok, err := c.First()
	for ; ok && err == nil; ok, err = c.Next() {
		v := c.Value()
		if !differs {
			if n := matchEntry(raw[matched:], v); n > 0 {
				matched += n
				continue
			}
			differs = true
			cat = append(make([]byte, 0, len(raw)+len(v)), raw[:matched]...)
		}
		cat = binary.AppendUvarint(cat, uint64(len(v)))
		cat = append(cat, v...)
	}
	if err != nil {
		return nil, err
	}
	if !differs {
		if matched == len(raw) {
			return memo, nil
		}
		cat = raw[:matched:matched] // the catalog lost its last entries
	}
	s := newSchema()
	for rest := cat; len(rest) > 0; {
		n, k := binary.Uvarint(rest)
		if err := s.add(rest[k:k+int(n)], temp); err != nil {
			return nil, err
		}
		rest = rest[k+int(n):]
	}
	m.mu.Lock()
	m.raw, m.s = cat, s
	m.mu.Unlock()
	return s, nil
}

// matchEntry reports how many bytes of raw encode the catalog entry
// value v (0: raw does not start with v's encoding).
func matchEntry(raw, v []byte) int {
	n, k := binary.Uvarint(raw)
	if k <= 0 || n != uint64(len(v)) || uint64(len(raw)-k) < n || !bytes.Equal(raw[k:k+len(v)], v) {
		return 0
	}
	return k + len(v)
}

// putTable writes a table's catalog entry.
func putTable(p storage.Pager, t *Table) error {
	return btree.Open(p, catalogRoot).Insert(catalogKey("table", t.Name), tableEntry(t))
}

// putIndex writes an index's catalog entry.
func putIndex(p storage.Pager, ix *Index) error {
	return btree.Open(p, catalogRoot).Insert(catalogKey("index", ix.Name), indexEntry(ix))
}

// putView writes a retro view's catalog entry.
func putView(p storage.Pager, v *RetroViewDef) error {
	return btree.Open(p, catalogRoot).Insert(catalogKey("view", v.Name), viewEntry(v))
}

// deleteCatalogEntry removes an object's catalog entry.
func deleteCatalogEntry(p storage.Pager, kind, name string) error {
	tr := btree.Open(p, catalogRoot)
	found, err := tr.Delete(catalogKey(kind, name))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("sql: catalog entry %s %q missing", kind, name)
	}
	return nil
}

// typeAffinity maps a declared type to a storage affinity, following
// SQLite's rules: INT* -> integer, CHAR/CLOB/TEXT -> text,
// REAL/FLOA/DOUB -> real, otherwise numeric (here: none).
type affinity int

const (
	affNone affinity = iota
	affInteger
	affText
	affReal
)

func typeAffinity(declared string) affinity {
	d := strings.ToUpper(declared)
	switch {
	case strings.Contains(d, "INT"):
		return affInteger
	case strings.Contains(d, "CHAR"), strings.Contains(d, "CLOB"), strings.Contains(d, "TEXT"):
		return affText
	case strings.Contains(d, "REAL"), strings.Contains(d, "FLOA"), strings.Contains(d, "DOUB"), strings.Contains(d, "DEC"), strings.Contains(d, "NUM"):
		return affReal
	}
	return affNone
}

// applyAffinity coerces a value according to the column's affinity,
// mirroring SQLite's lossless-only conversions.
func applyAffinity(v record.Value, aff affinity) record.Value {
	if v.IsNull() {
		return v
	}
	switch aff {
	case affInteger:
		switch v.Type() {
		case record.TypeText:
			t := strings.TrimSpace(v.Text())
			if n, err := parseInt(t); err == nil {
				return record.Int(n)
			}
			if f, err := parseFloat(t); err == nil {
				if float64(int64(f)) == f {
					return record.Int(int64(f))
				}
				return record.Float(f)
			}
		case record.TypeFloat:
			if f := v.Float(); float64(int64(f)) == f {
				return record.Int(int64(f))
			}
		}
	case affReal:
		switch v.Type() {
		case record.TypeText:
			if f, err := parseFloat(strings.TrimSpace(v.Text())); err == nil {
				return record.Float(f)
			}
		case record.TypeInt:
			return record.Float(float64(v.Int()))
		}
	case affText:
		switch v.Type() {
		case record.TypeInt, record.TypeFloat:
			return record.Text(v.String())
		}
	}
	return v
}

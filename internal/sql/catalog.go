package sql

import (
	"errors"
	"fmt"
	"strings"

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

// encodeColumns serializes column definitions into one text field.
// Format: name|type|flags per column, columns separated by '\n'.
func encodeColumns(cols []Column) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte('\n')
		}
		flags := ""
		if c.NotNull {
			flags += "N"
		}
		if c.RowidAlias {
			flags += "R"
		}
		sb.WriteString(c.Name + "|" + c.Type + "|" + flags)
	}
	return sb.String()
}

func decodeColumns(s string) ([]Column, error) {
	if s == "" {
		return nil, nil
	}
	var cols []Column
	for _, line := range strings.Split(s, "\n") {
		parts := strings.SplitN(line, "|", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("sql: corrupt catalog column spec %q", line)
		}
		cols = append(cols, Column{
			Name:       parts[0],
			Type:       parts[1],
			NotNull:    strings.Contains(parts[2], "N"),
			RowidAlias: strings.Contains(parts[2], "R"),
		})
	}
	return cols, nil
}

// loadSchema reads the full catalog from a store through the pager.
func loadSchema(p storage.Pager, temp bool) (*schema, error) {
	s := newSchema()
	tr := btree.Open(p, catalogRoot)
	c := tr.Cursor()
	ok, err := c.First()
	for ; ok && err == nil; ok, err = c.Next() {
		row, derr := record.DecodeRow(c.Value())
		if derr != nil {
			return nil, derr
		}
		if len(row) < 5 {
			return nil, fmt.Errorf("sql: corrupt catalog row with %d fields", len(row))
		}
		kind := row[0].Text()
		switch kind {
		case "table":
			cols, derr := decodeColumns(row[4].Text())
			if derr != nil {
				return nil, derr
			}
			t := &Table{
				Name: row[1].Text(),
				Root: storage.PageID(row[3].Int()),
				Cols: cols,
				Temp: temp,
			}
			s.tables[strings.ToLower(t.Name)] = t
		case "index":
			if len(row) < 6 {
				return nil, fmt.Errorf("sql: corrupt index catalog row")
			}
			ix := &Index{
				Name:   row[1].Text(),
				Table:  row[2].Text(),
				Root:   storage.PageID(row[3].Int()),
				Cols:   strings.Split(row[4].Text(), ","),
				Unique: row[5].Int() != 0,
				Temp:   temp,
			}
			s.indexes[strings.ToLower(ix.Name)] = ix
		case "view":
			if len(row) < 6 {
				return nil, fmt.Errorf("sql: corrupt view catalog row")
			}
			v := &RetroViewDef{
				Name:      row[1].Text(),
				Mechanism: row[2].Text(),
				HasExtra:  row[3].Int() != 0,
				Qq:        row[4].Text(),
				Extra:     row[5].Text(),
			}
			s.views[strings.ToLower(v.Name)] = v
		default:
			return nil, fmt.Errorf("sql: unknown catalog object kind %q", kind)
		}
	}
	return s, err
}

// putTable writes a table's catalog entry.
func putTable(p storage.Pager, t *Table) error {
	tr := btree.Open(p, catalogRoot)
	val := record.EncodeRow(nil, []record.Value{
		record.Text("table"),
		record.Text(t.Name),
		record.Text(t.Name),
		record.Int(int64(t.Root)),
		record.Text(encodeColumns(t.Cols)),
	})
	return tr.Insert(catalogKey("table", t.Name), val)
}

// putIndex writes an index's catalog entry.
func putIndex(p storage.Pager, ix *Index) error {
	tr := btree.Open(p, catalogRoot)
	unique := int64(0)
	if ix.Unique {
		unique = 1
	}
	val := record.EncodeRow(nil, []record.Value{
		record.Text("index"),
		record.Text(ix.Name),
		record.Text(ix.Table),
		record.Int(int64(ix.Root)),
		record.Text(strings.Join(ix.Cols, ",")),
		record.Int(unique),
	})
	return tr.Insert(catalogKey("index", ix.Name), val)
}

// putView writes a retro view's catalog entry. The third field carries
// HasExtra (views have no root page; their result rows live in an
// ordinary side-store table created at first materialization).
func putView(p storage.Pager, v *RetroViewDef) error {
	tr := btree.Open(p, catalogRoot)
	hasExtra := int64(0)
	if v.HasExtra {
		hasExtra = 1
	}
	val := record.EncodeRow(nil, []record.Value{
		record.Text("view"),
		record.Text(v.Name),
		record.Text(v.Mechanism),
		record.Int(hasExtra),
		record.Text(v.Qq),
		record.Text(v.Extra),
	})
	return tr.Insert(catalogKey("view", v.Name), val)
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

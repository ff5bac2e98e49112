package core

import (
	"fmt"
	"strings"

	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/sql"
)

// mechKind identifies one of the four RQL mechanisms.
type mechKind int

const (
	mechCollate mechKind = iota
	mechAggVar
	mechAggTable
	mechIntervals
)

func (k mechKind) String() string {
	switch k {
	case mechCollate:
		return "CollateData"
	case mechAggVar:
		return "AggregateDataInVariable"
	case mechAggTable:
		return "AggregateDataInTable"
	case mechIntervals:
		return "CollateDataIntoIntervals"
	}
	return "unknown"
}

// mechKindByName resolves a mechanism name case-insensitively.
func mechKindByName(name string) (mechKind, bool) {
	for _, k := range []mechKind{mechCollate, mechAggVar, mechAggTable, mechIntervals} {
		if strings.EqualFold(k.String(), name) {
			return k, true
		}
	}
	return 0, false
}

// mechCall is a mechanism invocation as written: Mechanism(Qq, T) or
// Mechanism(Qq, T, extra), extra being AggregateDataInVariable's AggFunc
// or AggregateDataInTable's ListOfColFuncPairs.
type mechCall struct {
	kind     mechKind
	qq       string
	table    string
	extra    string
	hasExtra bool
}

// String renders the invocation in the paper's function-call notation
// (without Qs, which the SQL form never sees as text).
func (c mechCall) String() string {
	if c.hasExtra {
		return fmt.Sprintf("%s(%q, %q, %q)", c.kind, c.qq, c.table, c.extra)
	}
	return fmt.Sprintf("%s(%q, %q)", c.kind, c.qq, c.table)
}

// mech is one validated mechanism invocation: the parsed arguments, the
// result shape derived from Qq's columns, and the run-level decisions
// (reader set, pruning).
type mech struct {
	mechCall
	rql    *RQL
	monoid *Monoid   // AggregateDataInVariable
	pairs  []colFunc // AggregateDataInTable

	resultShape

	// set, when non-nil, is the pre-built reader set covering the
	// run's snapshots: iterations open their SPT from it in O(1). The
	// SQL-form UDF path and views have none (their snapshots arrive one
	// at a time) and build one SPT per iteration.
	set *sql.ReaderSet
	// prune turns delta pruning on (prune.go); snapCols are Qq's bare
	// current_snapshot() columns, re-tagged on replay.
	prune    bool
	snapCols []int
}

// resultShape is T's existence and the column bookkeeping derived from
// Qq's output columns (resolveShape). A view's failed first step puts it
// back (laneMark), so the fields are only ever replaced, never edited.
type resultShape struct {
	created  bool // T exists
	qqCols   []string
	groupIdx []int
	aggIdx   []int
}

// newMech parses and validates a mechanism invocation.
func (r *RQL) newMech(call mechCall) (*mech, error) {
	m := &mech{mechCall: call, rql: r}
	switch m.kind {
	case mechCollate, mechIntervals:
		if m.hasExtra {
			return nil, fmt.Errorf("rql: %s takes one argument (the retrospective query)", m.kind)
		}
	case mechAggVar:
		if !m.hasExtra {
			return nil, fmt.Errorf("rql: %s needs an aggregate function argument", m.kind)
		}
		if m.monoid = monoidByName(m.extra); m.monoid == nil {
			return nil, fmt.Errorf("rql: unknown aggregate function %q (want min, max, sum, count or avg)", m.extra)
		}
	case mechAggTable:
		if !m.hasExtra {
			return nil, fmt.Errorf("rql: %s needs a ListOfColFuncPairs argument", m.kind)
		}
		pairs, err := parsePairs(m.extra)
		if err != nil {
			return nil, err
		}
		m.pairs = pairs
	}
	return m, nil
}

// qsSnapshot checks one Qs row and returns its snapshot id: an INTEGER
// >= 1, as AS OF requires, never a value converted to one.
func qsSnapshot(row []record.Value) (uint64, error) {
	if len(row) != 1 {
		return 0, fmt.Errorf("rql: Qs must return a single snapshot-id column, got %d", len(row))
	}
	if v := row[0]; v.Type() != record.TypeInt || v.Int() < 1 {
		return 0, fmt.Errorf("rql: Qs returned %s: %w (a snapshot id is an integer >= 1)", v.SQL(), retro.ErrNoSnapshot)
	}
	return uint64(row[0].Int()), nil
}

// createResultTable creates T shaped like Qq's output on snap (plus the
// interval columns for CollateDataIntoIntervals). Result tables are
// temporary and live in the non-snapshotable side store (§3).
func (m *mech) createResultTable(conn *sql.Conn, snap uint64) error {
	cols, err := conn.ColumnsSet(m.qq, m.set, snap)
	if err != nil {
		return err
	}
	if err := m.resolveShape(cols); err != nil {
		return err
	}

	var ddl strings.Builder
	ddl.WriteString("CREATE TEMP TABLE ")
	ddl.WriteString(sql.QuoteIdent(m.table))
	ddl.WriteString(" (")
	for i, c := range cols {
		if i > 0 {
			ddl.WriteString(", ")
		}
		ddl.WriteString(sql.QuoteIdent(c))
	}
	if m.kind == mechIntervals {
		ddl.WriteString(", start_snapshot INTEGER, end_snapshot INTEGER")
	}
	ddl.WriteString(")")
	if err := conn.Exec(ddl.String(), nil); err != nil {
		return err
	}
	m.created = true
	return nil
}

// resolveShape derives the column bookkeeping (qqCols, aggregate and
// grouping indexes) from Qq's output columns, planned when the result
// table is created.
func (m *mech) resolveShape(cols []string) error {
	if len(cols) == 0 {
		return fmt.Errorf("rql: %s: Qq returns no columns", m.kind)
	}
	m.qqCols = make([]string, len(cols))
	for i, c := range cols {
		m.qqCols[i] = strings.ToLower(c)
	}

	switch m.kind {
	case mechAggVar:
		if len(cols) != 1 {
			return fmt.Errorf("rql: %s expects Qq to return a single column, got %d", m.kind, len(cols))
		}
	case mechAggTable:
		// Resolve pair columns; the rest are grouping columns.
		m.aggIdx = nil
		isAgg := make([]bool, len(cols))
		for _, p := range m.pairs {
			k := -1
			for i, c := range m.qqCols {
				if c == strings.ToLower(p.col) {
					k = i
					break
				}
			}
			if k < 0 {
				return fmt.Errorf("rql: %s: Qq has no column %q", m.kind, p.col)
			}
			if isAgg[k] {
				return fmt.Errorf("rql: %s: column %q appears twice in ListOfColFuncPairs", m.kind, p.col)
			}
			isAgg[k] = true
			m.aggIdx = append(m.aggIdx, k)
		}
		m.groupIdx = nil
		for i := range cols {
			if !isAgg[i] {
				m.groupIdx = append(m.groupIdx, i)
			}
		}
		if len(m.groupIdx) == 0 {
			return fmt.Errorf("rql: %s: every Qq column is aggregated; use AggregateDataInVariable", m.kind)
		}
	case mechIntervals:
		m.groupIdx = make([]int, len(cols))
		for i := range cols {
			m.groupIdx[i] = i
		}
	}
	return nil
}

// indexed reports whether T carries a search index: the grouping
// columns for AggregateDataInTable; the Qq columns plus end_snapshot for
// CollateDataIntoIntervals (so the "record alive through the previous
// snapshot" lookup is a single exact probe).
func (m *mech) indexed() bool { return m.kind == mechAggTable || m.kind == mechIntervals }

// indexName is the name of T's search index.
func (m *mech) indexName() string { return "rql_idx_" + m.table }

// resultIndexDDL builds the CREATE INDEX statement for T's search index.
func (m *mech) resultIndexDDL() string {
	var ddl strings.Builder
	ddl.WriteString("CREATE INDEX ")
	ddl.WriteString(sql.QuoteIdent(m.indexName()))
	ddl.WriteString(" ON ")
	ddl.WriteString(sql.QuoteIdent(m.table))
	ddl.WriteString(" (")
	for i, gi := range m.groupIdx {
		if i > 0 {
			ddl.WriteString(", ")
		}
		ddl.WriteString(sql.QuoteIdent(m.qqCols[gi]))
	}
	if m.kind == mechIntervals {
		ddl.WriteString(", end_snapshot")
	}
	ddl.WriteString(")")
	return ddl.String()
}

// combine folds the aggregate columns of src, one Qq record, into dst,
// standing for n records, by the per-column functions of
// ListOfColFuncPairs. It returns dst's new record count (AVG's auxiliary
// count, §2.3) and whether any value changed.
func (m *mech) combine(dst []record.Value, n int64, src []record.Value) (int64, bool) {
	changed := false
	newN := n
	for pi, p := range m.pairs {
		k := m.aggIdx[pi]
		var nv record.Value
		if p.agg.Name == avgName {
			// Every AVG column merges against the count before this
			// record; the row's one count moves once.
			var cn int64
			nv, cn = avgMerge(dst[k], n, src[k])
			newN = max(newN, cn)
		} else {
			nv = p.agg.Combine(dst[k], src[k])
		}
		if record.Compare(nv, dst[k]) != 0 || nv.Type() != dst[k].Type() {
			dst[k] = nv
			changed = true
		}
	}
	return newN, changed
}

package core

import (
	"fmt"

	"rql/internal/record"
	"rql/internal/sql"
)

// resultStore is the result table T as the fold sees it: an indexed
// multiset of rows. lookup finds the first row (lowest id) whose index
// columns equal key; the row it returns is valid until the store's next
// call, and the caller may change it to hand it back to update; insert
// copies what it keeps; update replaces the row id, whose values so far
// are old (only read), with new, which it takes over (the fold never
// changes a row's grouping columns).
type resultStore interface {
	lookup(key []record.Value) (id int64, row []record.Value, found bool, err error)
	insert(row []record.Value) (id int64, err error)
	update(id int64, old, new []record.Value) error
}

// tableStore is the paper's result store: T in the non-snapshotable
// side store, written through one open writer and searched through the
// index built at the end of the first iteration (§3). lookup's row is
// the writer's own buffer (TableWriter.LookupByIndex), which its next
// call overwrites. The writer lifecycle (open, commit, rollback) is a
// no-op on a nil store — what AggregateDataInVariable, which writes T
// only at the end, has.
type tableStore struct {
	table string
	index string // search index name; "" until built
	w     *sql.TableWriter
}

func (s *tableStore) open(conn *sql.Conn) error {
	if s == nil || s.w != nil {
		return nil
	}
	w, err := conn.OpenTableWriter(s.table)
	s.w = w
	return err
}

func (s *tableStore) commit() error {
	if s == nil || s.w == nil {
		return nil
	}
	w := s.w
	s.w = nil
	return w.Commit()
}

func (s *tableStore) rollback() {
	if s != nil && s.w != nil {
		s.w.Rollback()
		s.w = nil
	}
}

func (s *tableStore) lookup(key []record.Value) (int64, []record.Value, bool, error) {
	return s.w.LookupByIndex(s.index, key)
}

func (s *tableStore) insert(row []record.Value) (int64, error) { return s.w.Insert(row) }

func (s *tableStore) update(id int64, old, new []record.Value) error {
	return s.w.Update(id, old, new)
}

// memStore is the in-memory result store a parallel lane folds into
// before its partial result is merged into T: rows in insertion order (a
// row's id is its position) and T's search index as a map from the
// encoded grouping columns — which no update changes — to the ids
// carrying them, in id order; index columns past those (end_snapshot)
// are compared row by row.
type memStore struct {
	rows    [][]record.Value
	keyCols []int // row positions forming the index key
	hashed  int   // leading keyCols the map is keyed on
	index   map[string][]int64
	kbuf    []byte
}

func newMemStore(keyCols []int, hashed int) *memStore {
	return &memStore{keyCols: keyCols, hashed: hashed, index: make(map[string][]int64)}
}

func (s *memStore) lookup(key []record.Value) (int64, []record.Value, bool, error) {
	s.kbuf = record.EncodeKey(s.kbuf[:0], key[:s.hashed])
next:
	for _, id := range s.index[string(s.kbuf)] {
		row := s.rows[id]
		for j := s.hashed; j < len(key); j++ {
			if record.Compare(row[s.keyCols[j]], key[j]) != 0 {
				continue next
			}
		}
		return id, row, true, nil
	}
	return 0, nil, false, nil
}

func (s *memStore) insert(row []record.Value) (int64, error) {
	id := int64(len(s.rows))
	s.rows = append(s.rows, append([]record.Value(nil), row...))
	if len(s.keyCols) > 0 {
		s.kbuf = s.kbuf[:0]
		for _, c := range s.keyCols[:s.hashed] {
			s.kbuf = record.EncodeKey(s.kbuf, row[c:c+1])
		}
		k := string(s.kbuf)
		s.index[k] = append(s.index[k], id)
	}
	return id, nil
}

func (s *memStore) update(id int64, _, new []record.Value) error {
	s.rows[id] = new
	return nil
}

// observation is one input to the fold: a Qq record — one observation
// alive at [snap, snap] that may continue a lifetime — or, when lanes
// merge, one row of the later lane's partial result standing for the n
// observations and the lifetime it has accumulated.
type observation struct {
	row        []record.Value
	n          int64
	start, end uint64
	extend     bool // may continue a lifetime that ended at the fold's previous snapshot
}

// fold is a mechanism's record processing (§2's operational
// descriptions), written once over a resultStore: the state that lives
// across the iterations of one lane and the rule that folds one
// observation into it.
type fold struct {
	m     *mech
	store resultStore // nil for AggregateDataInVariable

	iterations int
	prevSnap   uint64

	// AggregateDataInVariable accumulator.
	val record.Value
	avg avgAccumulator

	// AggregateDataInTable: observations folded into each row's AVG
	// columns, by row id (the paper's auxiliary count).
	counts map[int64]int64

	// CollateDataIntoIntervals: rows inserted by the first iteration —
	// the only lifetimes a preceding lane's tail can continue.
	headRows int64

	// endIter, when non-nil, runs after the last record of every
	// iteration: the table-backed lane builds T's index in it, the
	// sort-merge variant rewrites T.
	endIter func(cost *IterationCost) error
	sm      *sortMerge // non-nil: buffer AggregateDataInTable records for endIter

	scratch []record.Value // probe / new-row buffer
}

func newFold(m *mech, store resultStore) fold {
	f := fold{m: m, store: store, val: record.Null()}
	if m.kind == mechAggTable {
		f.counts = make(map[int64]int64)
	}
	return f
}

// record folds one Qq output record of the iteration on snap.
func (f *fold) record(snap uint64, row []record.Value, cost *IterationCost) error {
	return f.add(observation{row: row, n: 1, start: snap, end: snap, extend: true}, cost)
}

// add folds one observation into the result.
func (f *fold) add(o observation, cost *IterationCost) error {
	m := f.m
	if m.kind != mechCollate && len(o.row) != len(m.qqCols) {
		return fmt.Errorf("rql: %s: Qq returned %d columns, expected %d", m.kind, len(o.row), len(m.qqCols))
	}
	switch m.kind {
	case mechCollate:
		if _, err := f.store.insert(o.row); err != nil {
			return err
		}
		cost.ResultInserts++
		return nil

	case mechAggVar:
		if cost.QqRows > 1 {
			return fmt.Errorf("rql: %s: Qq returned more than one row for snapshot %d", m.kind, o.start)
		}
		if m.monoid.Name == avgName {
			f.avg.add(o.row[0], o.n)
		} else {
			f.val = m.monoid.Combine(f.val, o.row[0])
		}
		return nil

	case mechAggTable:
		if f.sm != nil {
			f.sm.buffer(f, o)
			return nil
		}
		found := false
		var id int64
		var existing []record.Value
		if f.iterations > 0 { // the first iteration inserts Qq's output wholesale
			group := f.scratch[:0]
			for _, gi := range m.groupIdx {
				group = append(group, o.row[gi])
			}
			f.scratch = group
			cost.ResultSearch++
			var err error
			if id, existing, found, err = f.store.lookup(group); err != nil {
				return err
			}
		}
		if !found {
			id, err := f.store.insert(o.row)
			if err != nil {
				return err
			}
			cost.ResultInserts++
			f.counts[id] = o.n
			return nil
		}
		// existing is ours to change; update also wants the row as it was,
		// which goes into the scratch buffer (the probe in it is spent).
		old := append(f.scratch[:0], existing...)
		f.scratch = old
		n, changed := m.combine(existing, f.counts[id], o.row, o.n)
		if n != f.counts[id] {
			f.counts[id] = n
		}
		if changed {
			if err := f.store.update(id, old, existing); err != nil {
				return err
			}
			cost.ResultUpdates++
		}
		return nil

	case mechIntervals:
		// withSnaps builds the row followed by snapshot columns in the
		// scratch buffer: insert and lookup copy what they keep, so one
		// buffer serves the probe and the new row.
		withSnaps := func(snaps ...uint64) []record.Value {
			vals := append(f.scratch[:0], o.row...)
			for _, s := range snaps {
				vals = append(vals, record.Int(int64(s)))
			}
			f.scratch = vals
			return vals
		}
		if o.extend && f.iterations > 0 {
			// Probe for a record whose lifetime extends through the
			// previous iteration's snapshot.
			cost.ResultSearch++
			id, existing, found, err := f.store.lookup(withSnaps(f.prevSnap))
			if err != nil {
				return err
			}
			if found {
				old := append(f.scratch[:0], existing...)
				f.scratch = old
				existing[len(existing)-1] = record.Int(int64(o.end)) // end_snapshot
				if err := f.store.update(id, old, existing); err != nil {
					return err
				}
				cost.ResultUpdates++
				return nil
			}
		}
		if _, err := f.store.insert(withSnaps(o.start, o.end)); err != nil {
			return err
		}
		cost.ResultInserts++
		if f.iterations == 0 {
			f.headRows++
		}
		return nil
	}
	return fmt.Errorf("rql: unknown mechanism %d", m.kind)
}

// endIteration closes the iteration on snap: the end-of-iteration hook,
// then the cursor the next iteration's extension rule reads.
func (f *fold) endIteration(snap uint64, cost *IterationCost) error {
	if f.endIter != nil {
		if err := f.endIter(cost); err != nil {
			return err
		}
	}
	f.prevSnap = snap
	f.iterations++
	return nil
}

// merge folds b — the partial result of the lane whose snapshots
// directly follow f's in Qs order — into f, as one more iteration whose
// records are b's rows carrying the weight and lifetime b accumulated
// for them. b must be memory-backed and is consumed.
func (f *fold) merge(b *fold) error {
	var cost IterationCost // merge work is billed to no iteration
	var err error
	if f.m.kind == mechAggVar {
		part := b.val
		if f.m.monoid.Name == avgName {
			part = record.Float(b.avg.sum)
		}
		err = f.add(observation{row: []record.Value{part}, n: b.avg.n}, &cost)
	} else {
		for id, row := range b.store.(*memStore).rows {
			o := observation{row: row, n: b.counts[int64(id)]}
			if f.m.kind == mechIntervals {
				k := len(row) - 2
				o.row, o.start, o.end = row[:k], uint64(row[k].Int()), uint64(row[k+1].Int())
				o.extend = int64(id) < b.headRows
			}
			if err = f.add(o, &cost); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if err := f.endIteration(b.prevSnap, &cost); err != nil {
		return err
	}
	f.iterations += b.iterations - 1
	return nil
}

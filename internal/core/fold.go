package core

import (
	"fmt"

	"rql/internal/record"
	"rql/internal/sql"
)

// tableStore is the result table T as the fold writes it: T in the
// non-snapshotable side store, written through one open writer and
// searched through the index built at the end of the first iteration
// (§3). lookup finds the first row (lowest id) whose index columns equal
// key; the row it returns is the writer's own buffer
// (TableWriter.LookupByIndex), valid until the writer's next call, and
// the caller may change it to hand it back to update. insert copies the
// row; update replaces row id, whose values so far are old, with new
// (the fold never changes a row's grouping columns). The writer
// lifecycle (open, commit, rollback) is a no-op on a nil store — what
// AggregateDataInVariable, which writes T only at the end, has.
type tableStore struct {
	table string
	index sql.WriterIndex // T's search index; the zero value until built
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
	return s.w.LookupByIndex(&s.index, key)
}

// fetch returns row id, in the buffer lookup returns rows in.
func (s *tableStore) fetch(id int64) ([]record.Value, bool, error) { return s.w.Fetch(id) }

func (s *tableStore) insert(row []record.Value) (int64, error) { return s.w.Insert(row) }

func (s *tableStore) update(id int64, old, new []record.Value) error {
	return s.w.Update(id, old, new)
}

// fold is a mechanism's record processing (§2's operational
// descriptions), written once over T: the state that lives across the
// iterations of one lane and the rule that folds one Qq record into it.
type fold struct {
	m     *mech
	store *tableStore // nil for AggregateDataInVariable

	iterations int
	prevSnap   uint64

	// AggregateDataInVariable accumulator.
	val record.Value
	avg avgAccumulator

	// AggregateDataInTable: records folded into each row's AVG columns,
	// by row id (the paper's auxiliary count).
	counts map[int64]int64
	// AggregateDataInTable's first iteration, before T has its index:
	// the row id of each group it inserted, by encoded group key, so a
	// group the member returns again folds into its row. Nil at every
	// iteration's start, so a view's laneMark need not copy it.
	firstRows map[string]int64
	groupKey  []byte

	// endIter, when non-nil, runs after the last record of every
	// iteration: the table-backed lane builds T's index in it, the
	// sort-merge variant rewrites T.
	endIter func(cost *IterationCost) error
	sm      *sortMerge // non-nil: buffer AggregateDataInTable records for endIter

	scratch []record.Value // probe / new-row buffer
}

func newFold(m *mech, store *tableStore) fold {
	f := fold{m: m, store: store, val: record.Null()}
	if m.kind == mechAggTable {
		f.counts = make(map[int64]int64)
	}
	return f
}

// record folds one Qq output record of the iteration on snap into T.
func (f *fold) record(snap uint64, row []record.Value, cost *IterationCost) error {
	m := f.m
	if m.kind != mechCollate && len(row) != len(m.qqCols) {
		return fmt.Errorf("rql: %s: Qq returned %d columns, expected %d", m.kind, len(row), len(m.qqCols))
	}
	switch m.kind {
	case mechCollate:
		if _, err := f.store.insert(row); err != nil {
			return err
		}
		cost.ResultInserts++
		return nil

	case mechAggVar:
		if cost.QqRows > 1 {
			return fmt.Errorf("rql: %s: Qq returned more than one row for snapshot %d", m.kind, snap)
		}
		if m.monoid.Name == avgName {
			f.avg.add(row[0])
		} else {
			f.val = m.monoid.Combine(f.val, row[0])
		}
		return nil

	case mechAggTable:
		if f.sm != nil {
			f.sm.buffer(f, row)
			return nil
		}
		group := f.scratch[:0]
		for _, gi := range m.groupIdx {
			group = append(group, row[gi])
		}
		f.scratch = group
		found := false
		var id int64
		var existing []record.Value
		var err error
		if f.iterations > 0 {
			cost.ResultSearch++
			id, existing, found, err = f.store.lookup(group)
		} else { // no index yet: only this member's own rows can hold the group
			f.groupKey = record.EncodeKey(f.groupKey[:0], group)
			if id, found = f.firstRows[string(f.groupKey)]; found {
				existing, found, err = f.store.fetch(id)
			}
		}
		if err != nil {
			return err
		}
		if !found {
			id, err := f.store.insert(row)
			if err != nil {
				return err
			}
			cost.ResultInserts++
			f.counts[id] = 1
			if f.iterations == 0 {
				if f.firstRows == nil {
					f.firstRows = make(map[string]int64)
				}
				f.firstRows[string(f.groupKey)] = id
			}
			return nil
		}
		// existing is ours to change; update also wants the row as it was,
		// which goes into the scratch buffer (the probe in it is spent).
		old := append(f.scratch[:0], existing...)
		f.scratch = old
		n, changed := m.combine(existing, f.counts[id], row)
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
			vals := append(f.scratch[:0], row...)
			for _, s := range snaps {
				vals = append(vals, record.Int(int64(s)))
			}
			f.scratch = vals
			return vals
		}
		if f.iterations > 0 {
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
				existing[len(existing)-1] = record.Int(int64(snap)) // end_snapshot
				if err := f.store.update(id, old, existing); err != nil {
					return err
				}
				cost.ResultUpdates++
				return nil
			}
		}
		if _, err := f.store.insert(withSnaps(snap, snap)); err != nil {
			return err
		}
		cost.ResultInserts++
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
	f.firstRows = nil // T's index answers from here on
	return nil
}

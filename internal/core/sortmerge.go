package core

import (
	"bytes"
	"sort"

	"rql/internal/record"
	"rql/internal/sql"
)

// AggregateDataInTableSortMerge is the alternative Aggregate Data In
// Table implementation the paper mentions and rejects (§3: "We have
// also experimented with alternative Aggregate Data in Table
// implementation using a sort-merge based algorithm that turned out to
// be costlier"). Instead of probing the result table's index per Qq
// record, each iteration sorts the Qq output by the grouping columns
// and merges it with the (sorted) previous result, rewriting the result
// table. It exists as an ablation: the `rqlbench -exp ablation`
// experiment reproduces the paper's finding that the index-based
// implementation wins.
//
// Results are identical to AggregateDataInTable; only the cost profile
// differs (the whole result table is rewritten every iteration).
func (r *RQL) AggregateDataInTableSortMerge(conn *sql.Conn, qs, qq, table, pairs string) (*RunStats, error) {
	return r.run(conn, mechCall{mechAggTable, qq, table, pairs, true}, qs, func(ln *lane) {
		ln.run.Mechanism = "AggregateDataInTable (sort-merge)"
		ln.fold.sm = &sortMerge{}
		ln.fold.endIter = func(cost *IterationCost) error { return ln.fold.sm.rewrite(ln, cost) }
	})
}

// sortMerge is the ablation's fold state: the iteration's records,
// buffered instead of folded one by one, and the result so far.
type sortMerge struct {
	batch  []smEntry
	result []smEntry // sorted by key
}

type smEntry struct {
	key []byte
	row []record.Value
	n   int64 // AVG record count
}

// buffer keeps one record of the current iteration for rewrite.
func (sm *sortMerge) buffer(f *fold, row []record.Value) {
	group := f.scratch[:0]
	for _, gi := range f.m.groupIdx {
		group = append(group, row[gi])
	}
	f.scratch = group
	sm.batch = append(sm.batch, smEntry{
		key: record.EncodeKey(nil, group),
		row: append([]record.Value(nil), row...),
		n:   1,
	})
}

// rewrite is the end-of-iteration step: sort the buffered records,
// merge them into the previous result, and rewrite T — the step that
// makes this variant costlier than the index-based mechanism. The sort
// is stable and every record of a group folds, in arrival order, into
// that group's one entry, as the index-based fold folds it into the
// group's one row.
func (sm *sortMerge) rewrite(ln *lane, cost *IterationCost) error {
	batch, result := sm.batch, sm.result
	sort.SliceStable(batch, func(a, b int) bool { return bytes.Compare(batch[a].key, batch[b].key) < 0 })
	merged := make([]smEntry, 0, len(result)+len(batch))
	i := 0
	for _, e := range batch {
		for i < len(result) && bytes.Compare(result[i].key, e.key) < 0 {
			merged = append(merged, result[i])
			i++
		}
		last := len(merged) - 1
		switch {
		case last >= 0 && bytes.Equal(merged[last].key, e.key): // the group's earlier record of this batch
		case i < len(result) && bytes.Equal(result[i].key, e.key):
			merged = append(merged, result[i])
			i++
			last++
		default:
			merged = append(merged, e)
			cost.ResultInserts++
			continue
		}
		merged[last].n, _ = ln.m.combine(merged[last].row, merged[last].n, e.row)
		cost.ResultUpdates++
	}
	merged = append(merged, result[i:]...)
	sm.batch, sm.result = batch[:0], merged

	// The lane's open writer holds the side store: end its transaction
	// around the DELETE statement.
	if err := ln.table.commit(); err != nil {
		return err
	}
	if ln.fold.iterations > 0 {
		if err := ln.conn.Exec(`DELETE FROM `+sql.QuoteIdent(ln.m.table), nil); err != nil {
			return err
		}
	}
	if err := ln.table.open(ln.conn); err != nil {
		return err
	}
	for _, e := range merged {
		if _, err := ln.table.insert(e.row); err != nil {
			return err
		}
	}
	return nil
}

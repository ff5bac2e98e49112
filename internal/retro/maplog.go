package retro

import (
	"sync/atomic"

	"rql/internal/storage"
)

// SnapshotID identifies a declared snapshot. IDs are dense and 1-based,
// assigned in declaration order, like Retro's internal sequence numbers.
type SnapshotID uint64

// mapEntry is one Maplog record: "the pre-state of page as-of snapshot
// snap lives at pagelog offset off". Entries are appended in commit
// order, so snap tags are non-decreasing.
type mapEntry struct {
	snap SnapshotID
	page storage.PageID
	off  int64
}

// maplog is the Maplog plus its Skippy skip-merge hierarchy.
//
// Level 0 is the raw entry log, partitioned into per-snapshot segments
// by segStart. Level k (k >= 1) holds segments that each cover
// factor^k consecutive snapshots and contain only the first mapping per
// page within that range, in chronological order (a "skip-merge" of the
// level below, per the Skippy paper). SPT construction covers the tag
// range [S, lastSnap] greedily with the largest aligned completed
// segments, so the number of entries it takes is close to the number of
// distinct pages instead of the raw history length.
//
// Every closed segment, of any level, has a table slot: the segment's
// page → offset table, hashed by the first open whose cover takes it
// and shared by every later one (see segTable).
type maplog struct {
	factor   int
	entries  []mapEntry
	segStart []int         // segStart[s] = first entry index with tag >= s; len = lastSnap+1
	tables0  []*tableSlot  // tables0[s] = closed level-0 segment of snapshot s (s < lastSnap); index 0 unused
	levels   [][]*levelSeg // levels[k-1][j] covers snapshots [j*factor^k+1, (j+1)*factor^k]
}

type levelSeg struct {
	entries []mapEntry
	table   tableSlot
}

// segTable is one segment's page table: each page's first mapping
// within the segment. Immutable once built.
type segTable struct {
	loc map[storage.PageID]int64
}

// tableSlot holds a closed segment's segTable once an open has built
// it; nil before that and after dropTables. Slots are reached through
// pointers only, so growing the slices that hold them copies no atomic.
type tableSlot struct {
	t atomic.Pointer[segTable]
}

// hashSegment builds the table of es, the first mapping per page
// winning.
func hashSegment(es []mapEntry) *segTable {
	t := &segTable{loc: make(map[storage.PageID]int64, len(es))}
	for _, e := range es {
		if _, ok := t.loc[e.page]; !ok {
			t.loc[e.page] = e.off
		}
	}
	return t
}

func newMaplog(factor int) *maplog {
	if factor < 2 {
		factor = 4
	}
	return &maplog{factor: factor, segStart: []int{0}, tables0: []*tableSlot{nil}} // index 0 unused
}

// lastSnap returns the most recently declared snapshot id (0 if none).
func (m *maplog) lastSnap() SnapshotID { return SnapshotID(len(m.segStart) - 1) }

// append records one capture mapping. The tag must be the latest
// declared snapshot.
func (m *maplog) append(snap SnapshotID, page storage.PageID, off int64) {
	m.entries = append(m.entries, mapEntry{snap: snap, page: page, off: off})
}

// declare registers a new snapshot: subsequent entries get the new tag.
// It also completes the previous snapshot's segment and skip-merges any
// level segments that became complete.
func (m *maplog) declare() SnapshotID {
	m.segStart = append(m.segStart, len(m.entries))
	completed := int(m.lastSnap()) - 1 // snapshot whose segment just closed
	if completed < 1 {
		return m.lastSnap()
	}
	m.tables0 = append(m.tables0, new(tableSlot))
	// Build level k when the completed snapshot count reaches a
	// multiple of factor^k.
	span := m.factor
	for level := 1; completed%span == 0; level++ {
		j := completed/span - 1
		for len(m.levels) < level {
			m.levels = append(m.levels, nil)
		}
		// j is always exactly len(levels[level-1]): segments complete in order.
		m.levels[level-1] = append(m.levels[level-1], m.merge(level, j))
		span *= m.factor
	}
	return m.lastSnap()
}

// merge skip-merges the factor children below (level, j) into one
// segment keeping the chronologically-first mapping per page.
func (m *maplog) merge(level, j int) *levelSeg {
	var out []mapEntry
	seen := make(map[storage.PageID]bool)
	add := func(es []mapEntry) {
		for _, e := range es {
			if !seen[e.page] {
				seen[e.page] = true
				out = append(out, e)
			}
		}
	}
	if level == 1 {
		for s := j*m.factor + 1; s <= (j+1)*m.factor; s++ {
			add(m.entries[m.segStart[s]:m.segStart[s+1]])
		}
	} else {
		for c := j * m.factor; c < (j+1)*m.factor; c++ {
			add(m.levels[level-2][c].entries)
		}
	}
	return &levelSeg{entries: out}
}

// SPT is a snapshot page table: for every page captured after snapshot
// S, the Pagelog offset of its as-of-S pre-state. Pages absent from the
// table are shared with the current database.
//
// It is a stack of segment tables in chronological order: the shared
// tables of the closed segments covering [S, last], then a private
// table of the latest snapshot's open segment as of the open. Lookup
// takes the first hit, which is first-mapping-wins because Maplog tags
// never decrease.
type SPT struct {
	Snap   SnapshotID
	tables []*segTable
}

// Lookup returns the Pagelog offset holding the page's as-of-S state.
func (t *SPT) Lookup(id storage.PageID) (int64, bool) {
	for _, st := range t.tables {
		if off, ok := st.loc[id]; ok {
			return off, true
		}
	}
	return 0, false
}

// cover walks the closed segments over the snapshot tag range
// [lo, lastSnap-1] in chronological order, calling take on each with
// its table slot. It greedily prefers the largest aligned, completed
// Skippy level segments that fit inside the range, falling back to raw
// level-0 segments.
func (m *maplog) cover(lo SnapshotID, take func(slot *tableSlot, es []mapEntry)) {
	closed := int(m.lastSnap()) - 1 // the latest snapshot's segment is still open
	pos := int(lo)
	for pos <= closed {
		// Largest aligned, completed level segment starting at pos whose
		// span stays within the closed part of the range.
		level, span := 0, 1
		for f := m.factor; (pos-1)%f == 0 && pos-1+f <= closed && level < len(m.levels); f *= m.factor {
			if (pos-1)/f < len(m.levels[level]) {
				level++
				span = f
			} else {
				break
			}
		}
		if level == 0 {
			take(m.tables0[pos], m.entries[m.segStart[pos]:m.segStart[pos+1]])
			pos++
			continue
		}
		seg := m.levels[level-1][(pos-1)/span]
		take(&seg.table, seg.entries)
		pos += span
	}
}

// checkOpenable validates that snapshot s can be built.
func (m *maplog) checkOpenable(s SnapshotID) error {
	if s < 1 || s > m.lastSnap() {
		return ErrNoSnapshot
	}
	return nil
}

// hashed accounts an open's hashing: the segment tables it built and
// published, the entries those tables hold, and the Maplog entries it
// hashed into them and into its open tail.
type hashed struct {
	tables, tableEntries, entries int
}

// tail builds the private table of the latest snapshot's open segment
// as appended so far, nil when it is empty. One open builds it once,
// whatever its members.
func (m *maplog) tail(h *hashed) *segTable {
	es := m.entries[m.segStart[m.lastSnap()]:]
	if len(es) == 0 {
		return nil
	}
	h.entries += len(es)
	return hashSegment(es)
}

// buildSPT assembles SPT(s) for a snapshot checkOpenable accepts: the
// tables of cover's segments from s onward, each hashed here when no
// earlier open has, then tail (the open segment's table, or nil).
// Concurrent opens race to publish a table; the loser discards its
// copy and takes the winner's, and only the winner counts the table in
// h, so the counts summed over all opens are the hashing actually kept.
func (m *maplog) buildSPT(s SnapshotID, tail *segTable, h *hashed) *SPT {
	t := &SPT{Snap: s}
	m.cover(s, func(slot *tableSlot, es []mapEntry) {
		if len(es) == 0 {
			return
		}
		st := slot.t.Load()
		if st == nil {
			st = hashSegment(es)
			if slot.t.CompareAndSwap(nil, st) {
				h.tables++
				h.tableEntries += len(st.loc)
				h.entries += len(es)
			} else if won := slot.t.Load(); won != nil {
				st = won
			} // else dropTables ran in between: keep the private copy
		}
		t.tables = append(t.tables, st)
	})
	if tail != nil {
		t.tables = append(t.tables, tail)
	}
	return t
}

// dropTables empties every table slot, returning the table entries
// dropped. Readers keep the tables they already hold.
func (m *maplog) dropTables() (entries int) {
	drop := func(slot *tableSlot) {
		if st := slot.t.Swap(nil); st != nil {
			entries += len(st.loc)
		}
	}
	for _, slot := range m.tables0[1:] {
		drop(slot)
	}
	for _, level := range m.levels {
		for _, seg := range level {
			drop(&seg.table)
		}
	}
	return entries
}

// unchanged is the delta oracle: the pages that can differ between
// snapshots a and b are exactly those of the Maplog entries tagged
// [a, b), one contiguous run entries[segStart[a]:segStart[b]] because
// tags never decrease. It reports whether none of them is in readSet,
// stopping at the first that is; examined counts the entries tested.
// ok is false, and nothing is tested, unless 1 <= a < b <= lastSnap.
func (m *maplog) unchanged(a, b SnapshotID, readSet map[storage.PageID]struct{}) (ok, unchanged bool, examined int) {
	if a < 1 || b <= a || b > m.lastSnap() {
		return false, false, 0
	}
	for _, e := range m.entries[m.segStart[a]:m.segStart[b]] {
		examined++
		if _, hit := readSet[e.page]; hit {
			return true, false, examined
		}
	}
	return true, true, examined
}

// len0 returns the raw Maplog length (level-0 entries).
func (m *maplog) len0() int { return len(m.entries) }

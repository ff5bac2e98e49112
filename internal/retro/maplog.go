package retro

import (
	"fmt"

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
// segments, so the number of entries scanned is close to the number of
// distinct pages instead of the raw history length.
type maplog struct {
	factor   int
	entries  []mapEntry
	segStart []int        // segStart[s] = first entry index with tag >= s; len = lastSnap+1
	levels   [][]levelSeg // levels[k-1][j] covers snapshots [j*factor^k+1, (j+1)*factor^k]
}

type levelSeg struct {
	entries []mapEntry
}

func newMaplog(factor int) *maplog {
	if factor < 2 {
		factor = 4
	}
	return &maplog{factor: factor, segStart: []int{0}} // index 0 unused
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
func (m *maplog) merge(level, j int) levelSeg {
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
	return levelSeg{entries: out}
}

// SPT is a snapshot page table: for every page captured after snapshot
// S, the Pagelog offset of its as-of-S pre-state. Pages absent from the
// table are shared with the current database.
//
// A batch-built SPT (see buildSPTBatch) holds only the mappings first
// recorded between its own snapshot and the next set member, and chains
// to the next member's SPT for everything later — the "later snapshot's
// SPT plus the per-snapshot segment delta" decomposition. Lookup walks
// the chain; own entries shadow chained ones, which is exactly
// first-mapping-wins because Maplog tags are non-decreasing.
type SPT struct {
	Snap    SnapshotID
	loc     map[storage.PageID]int64
	next    *SPT // batch chain toward the set's latest member (nil otherwise)
	size    int  // distinct pages resolved across the whole chain
	Scanned int  // Maplog entries examined building this table (its delta, when chained)
}

// Lookup returns the Pagelog offset holding the page's as-of-S state.
func (t *SPT) Lookup(id storage.PageID) (int64, bool) {
	for s := t; s != nil; s = s.next {
		if off, ok := s.loc[id]; ok {
			return off, true
		}
	}
	return 0, false
}

// Len returns the number of pages resolved to the Pagelog.
func (t *SPT) Len() int { return t.size }

// cover walks the Maplog over the snapshot tag range [lo, hi] in
// chronological order, calling take on each covering segment. It
// greedily prefers the largest aligned, completed Skippy level segments
// that fit inside the range, falling back to raw level-0 segments. When
// hi is the latest snapshot, its still-open segment is scanned raw,
// bounded by upto.
func (m *maplog) cover(lo, hi SnapshotID, upto int, take func([]mapEntry)) {
	last := int(m.lastSnap())
	closed := int(hi)
	if closed > last-1 {
		closed = last - 1 // the latest snapshot's segment is still open
	}
	pos := int(lo)
	for pos <= int(hi) {
		if pos == int(last) {
			// The open segment of the latest snapshot: raw scan.
			start := m.segStart[pos]
			if start > upto {
				start = upto
			}
			take(m.entries[start:upto])
			break
		}
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
			take(m.entries[m.segStart[pos]:m.segStart[pos+1]])
			pos++
			continue
		}
		take(m.levels[level-1][(pos-1)/span].entries)
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

// fold scans the Maplog over the tag range [lo, hi] into t, the first
// mapping per page winning (upto bounds the open tail, as in cover).
func (m *maplog) fold(t *SPT, lo, hi SnapshotID, upto int) {
	m.cover(lo, hi, upto, func(es []mapEntry) {
		for _, e := range es {
			t.Scanned++
			if _, ok := t.loc[e.page]; !ok {
				t.loc[e.page] = e.off
			}
		}
	})
}

// buildSPT constructs SPT(S) by scanning the Maplog from S forward,
// first-mapping-wins, using the Skippy hierarchy to skip over long
// histories. upto bounds the raw tail scan (entries appended later
// belong to commits the caller's MVCC read transaction does not see;
// including them would also be correct, but bounding keeps the build
// deterministic for a given open point).
func (m *maplog) buildSPT(s SnapshotID, upto int) (*SPT, error) {
	if err := m.checkOpenable(s); err != nil {
		return nil, err
	}
	t := &SPT{Snap: s, loc: make(map[storage.PageID]int64)}
	m.fold(t, s, m.lastSnap(), upto)
	t.size = len(t.loc)
	return t, nil
}

// buildSPTBatch constructs the SPTs of every snapshot in ids — which
// must be sorted ascending and unique — in a single Maplog sweep. The
// latest member's SPT is built with the usual Skippy-covered scan from
// it to the tail; each earlier member then only scans its delta range
// [S_i, S_i+1) and chains to its successor, so the ranges shared by the
// set members are walked once instead of once per member. The returned
// tables are aligned with ids.
//
// A naive chain makes every Lookup walk O(n) links, which for large
// sets costs more than the sweep saves. Every k-th member (k ≈ √n) is
// therefore a checkpoint: its own table holds the cumulative delta from
// itself to the base and its next pointer skips straight to the base,
// bounding the walk at ~√n links for the ~n/√n extra tables' memory.
func (m *maplog) buildSPTBatch(ids []SnapshotID, upto int) ([]*SPT, error) {
	for _, s := range ids {
		if err := m.checkOpenable(s); err != nil {
			return nil, err
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot set", ErrNoSnapshot)
	}
	out := make([]*SPT, len(ids))
	n := len(ids)
	base := &SPT{Snap: ids[n-1], loc: make(map[storage.PageID]int64)}
	m.fold(base, ids[n-1], m.lastSnap(), upto)
	base.size = len(base.loc)
	out[n-1] = base
	k := 1
	for k*k < n {
		k++
	}
	// cum folds the deltas from the current member to the base together,
	// earliest mapping winning: walking backwards, each member's delta
	// overwrites what later members recorded for the same page.
	cum := make(map[storage.PageID]int64)
	for i := n - 2; i >= 0; i-- {
		t := &SPT{Snap: ids[i], loc: make(map[storage.PageID]int64), next: out[i+1]}
		m.fold(t, ids[i], ids[i+1]-1, upto)
		for page, off := range t.loc {
			cum[page] = off
		}
		if (n-1-i)%k == 0 {
			// Checkpoint: replace the delta with the cumulative table and
			// skip the chain. Scanned stays the delta's scan count — the
			// copy examines no Maplog entries.
			loc := make(map[storage.PageID]int64, len(cum))
			for page, off := range cum {
				loc[page] = off
			}
			t.loc, t.next = loc, base
		}
		// Chain-aware resolved-page count: an own key not resolvable by
		// the successor chain is new.
		t.size = t.next.size
		for page := range t.loc {
			if _, ok := t.next.Lookup(page); !ok {
				t.size++
			}
		}
		out[i] = t
	}
	return out, nil
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

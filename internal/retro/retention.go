package retro

import (
	"errors"
	"fmt"
	"sort"

	"rql/internal/storage"
)

// Snapshot retention — an extension beyond the paper, which notes that
// Pagelog growth is "limited only by the available disk space" (§4).
// TruncateBefore retires old snapshots (their Maplog segments and
// Skippy levels are dropped immediately); Compact then rewrites the
// Pagelog keeping only pre-states still referenced, reclaiming space.

// ErrReadersActive is returned by Compact when snapshot readers are
// open (compaction moves Pagelog offsets, which open SPTs reference).
var ErrReadersActive = errors.New("retro: snapshot readers are active")

// TruncateBefore retires every snapshot with id < keep: they can no
// longer be opened, and their Maplog entries are dropped. Pagelog space
// is reclaimed by a subsequent Compact. It is a no-op when keep is not
// beyond the current retention floor.
func (s *System) TruncateBefore(keep SnapshotID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if keep > s.ml.lastSnap()+1 {
		return fmt.Errorf("%w: cannot truncate beyond snapshot %d", ErrNoSnapshot, s.ml.lastSnap())
	}
	s.ml.truncateBefore(keep)
	// Retired mappings may leave whole sealed segments unreferenced;
	// nudge the background compactor to unlink them promptly (the kick
	// is a non-blocking channel send, safe under s.mu).
	s.kickCompactor()
	return nil
}

// DropExpiredSegments synchronously unlinks sealed segments that no
// retained Maplog entry references (see compactor.go). It returns the
// number of segments dropped; with open readers it drops nothing.
func (s *System) DropExpiredSegments() int { return s.dropExpiredSegments() }

// RetentionFloor returns the oldest snapshot id still openable.
func (s *System) RetentionFloor() SnapshotID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ml.minSnap
}

// Compact rewrites the Pagelog keeping only the pre-states referenced
// by retained Maplog entries, and remaps every mapping to its new
// offset. It fails with ErrReadersActive while snapshot readers are
// open. The snapshot page cache is reset (it is keyed by old offsets).
// It returns the number of pages reclaimed.
//
// Unlike sealing (compactor.go), Compact moves offsets, so it excludes
// the sealer via compactMu and produces a fresh flat generation —
// sealed segments of the old generation are decompressed as needed,
// copied live-page-by-live-page, and unlinked with the old tail.
func (s *System) Compact() (int64, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.openReaders.Load() != 0 {
		return 0, ErrReadersActive
	}

	// Collect live offsets from the raw log and every skip level.
	remap := make(map[int64]int64)
	for _, e := range s.ml.entries {
		remap[e.off] = -1
	}
	for _, level := range s.ml.levels {
		for _, seg := range level {
			for _, e := range seg.entries {
				remap[e.off] = -1
			}
		}
	}

	old := s.pl.Load()
	newPl, err := old.compactTo(remap)
	if err != nil {
		return 0, err
	}
	reclaimed := old.size() - newPl.size()
	s.pl.Store(newPl)
	old.destroy()

	// Remap the mappings in place.
	for i := range s.ml.entries {
		s.ml.entries[i].off = remap[s.ml.entries[i].off]
	}
	for _, level := range s.ml.levels {
		for si := range level {
			for i := range level[si].entries {
				level[si].entries[i].off = remap[level[si].entries[i].off]
			}
		}
	}
	s.cache.reset()
	return reclaimed, nil
}

// compactTo copies the pages whose offsets key remap into a fresh
// pagelog (same backing kind), filling remap with the new offsets.
// Pages are copied in old-offset order to preserve locality.
func (pl *pagelog) compactTo(remap map[int64]int64) (*pagelog, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out *pagelog
	var err error
	if pl.file != nil {
		out, err = newPagelog(fmt.Sprintf("%s.gen%d", pl.base, pl.gen+1))
		if err != nil {
			return nil, err
		}
		out.base = pl.base
		out.gen = pl.gen + 1
	} else {
		out = &pagelog{bcache: newBlockCache()}
	}
	offs := make([]int64, 0, len(remap))
	for off := range remap {
		offs = append(offs, off)
	}
	sortInt64s(offs)
	var page storage.PageData
	for _, off := range offs {
		// readPageLocked serves whichever tier holds the offset — the
		// hot tail directly, sealed segments via block decompression.
		if err := pl.readPageLocked(off, &page); err != nil {
			return nil, fmt.Errorf("retro: compact read: %w", err)
		}
		newOff, err := out.appendLocked(&page)
		if err != nil {
			return nil, err
		}
		remap[off] = newOff
	}
	return out, nil
}

// appendLocked is append for a pagelog not yet shared (no lock).
func (pl *pagelog) appendLocked(data *storage.PageData) (int64, error) {
	off := pl.n
	if pl.file != nil {
		if _, err := pl.file.WriteAt(data[:], off*storage.PageSize); err != nil {
			return 0, fmt.Errorf("retro: pagelog write: %w", err)
		}
	} else {
		cp := new(storage.PageData)
		*cp = *data
		pl.mem = append(pl.mem, cp)
	}
	pl.n++
	return off, nil
}

func sortInt64s(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// truncateBefore drops segments and levels for snapshots below keep.
func (m *maplog) truncateBefore(keep SnapshotID) {
	if keep <= m.minSnap {
		return
	}
	last := m.lastSnap()
	cutSnap := keep
	if cutSnap > last {
		cutSnap = last
	}
	cut := m.segStart[cutSnap]
	if keep > last {
		// Everything closed is dropped; the open tail is kept only if
		// keep == last+1 drops it too.
		cut = len(m.entries)
	}
	m.entries = m.entries[cut:]
	for sIdx := range m.segStart {
		if SnapshotID(sIdx) < keep {
			m.segStart[sIdx] = 0
			continue
		}
		m.segStart[sIdx] -= cut
	}
	// Drop whole skip levels whose segments all start below keep, and
	// blank the dropped segments of partially affected levels.
	span := m.factor
	for level := range m.levels {
		for j := range m.levels[level] {
			segStartSnap := SnapshotID(j*span + 1)
			if segStartSnap < keep {
				m.levels[level][j] = levelSeg{} // never consulted again
			}
		}
		span *= m.factor
	}
	m.minSnap = keep
}

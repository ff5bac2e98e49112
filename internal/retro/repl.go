package retro

import (
	"errors"
	"fmt"

	"rql/internal/storage"
)

// Replication hooks. The primary side observes every commit as a
// CommitDelta (SetCommitObserver) and exports a consistent bootstrap
// cut (ExportBootstrap/ExportPagelog); the replica side applies deltas
// (ApplyCommitDelta) and bootstrap state (ApplyBootstrap) so that its
// Pagelog byte-for-byte and its Maplog entry-for-entry equal the
// primary's. Offsets shipped in deltas are therefore valid verbatim on
// the replica, and SPT construction — including the Skippy levels,
// which rebuild deterministically from the same declare/append
// sequence — yields identical page tables and figure counters.

// ErrReplDiverged reports replicated retro state that no longer lines
// up with the local Pagelog/Maplog; the replica must re-sync.
var ErrReplDiverged = errors.New("retro: replicated state diverged")

// ReplCapture is one captured pre-state within a replicated commit.
type ReplCapture struct {
	Page storage.PageID
	Data *storage.PageData
}

// CommitDelta is everything a replication stream ships per commit.
// Page pointers are the committed versions themselves (immutable after
// commit under the store's copy-on-write discipline), so building a
// delta copies no page data.
type CommitDelta struct {
	LSN      uint64
	SnapTag  SnapshotID // Maplog tag of Captures (0 when none)
	PlBase   int64      // Pagelog size before this commit's captures
	Captures []ReplCapture
	Pages    []storage.ReplPage // post-images; Data nil = freed
	Freed    []storage.PageID
	Declare  bool
	SnapID   SnapshotID // assigned snapshot id when Declare
	Reg      any        // the declaration's registration, opaque here (nil when none)
}

// SetCommitObserver registers fn to see every main-store commit group
// as a batch of CommitDeltas in commit order (a serial caller's commit
// is a batch of one). Called on the commit path under the system's
// mutex — it must not block or re-enter the store. nil unregisters.
func (s *System) SetCommitObserver(fn func([]CommitDelta)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// ApplyCommitDelta applies one replicated commit's Pagelog appends and
// Maplog effects. It runs from ApplyReplicated's pre callback, i.e. at
// the same point of the commit sequence the primary's hook ran, and
// verifies the replica's logs line up with the primary's offsets before
// appending.
func (s *System) ApplyCommitDelta(d *CommitDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if len(d.Captures) > 0 {
		pl := s.pl
		if got := pl.size(); got != d.PlBase {
			return fmt.Errorf("%w: pagelog at %d, primary commit expects %d", ErrReplDiverged, got, d.PlBase)
		}
		if last := s.ml.lastSnap(); last != d.SnapTag {
			return fmt.Errorf("%w: maplog tag %d, primary commit expects %d", ErrReplDiverged, last, d.SnapTag)
		}
		for _, c := range d.Captures {
			off, err := pl.append(c.Data)
			if err != nil {
				return err
			}
			s.ml.append(d.SnapTag, c.Page, off)
			s.lastCapture[c.Page] = d.SnapTag
			s.stats.PagelogWrites.Add(1)
		}
	}
	if d.Declare {
		id := s.ml.declare()
		if id != d.SnapID {
			return fmt.Errorf("%w: declared snapshot %d, primary declared %d", ErrReplDiverged, id, d.SnapID)
		}
		s.snapLSN = append(s.snapLSN, d.LSN)
		s.stats.Snapshots.Add(1)
	}
	return nil
}

// BootstrapEntry is one level-0 Maplog entry in a bootstrap export.
type BootstrapEntry struct {
	Snap SnapshotID
	Page storage.PageID
	Off  int64
}

// BootstrapState is the retro half of a replication bootstrap: the
// snapshot metadata and raw Maplog, from which the replica replays the
// primary's declare/append sequence. Pagelog pages ship separately
// (ExportPagelog) because of their bulk.
type BootstrapState struct {
	LastSnap     SnapshotID
	SnapLSNs     []uint64
	Entries      []BootstrapEntry
	PagelogPages int64
}

// ExportBootstrap snapshots the Maplog and snapshot metadata for a
// bootstrap. The caller must have quiesced commits (it holds the
// store's writer lock) so this cut is consistent with the store LSN it
// exports alongside. Its Pagelog offsets stay valid while the pages
// stream out, because no offset ever moves.
func (s *System) ExportBootstrap() (BootstrapState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.usableLocked(); err != nil {
		return BootstrapState{}, err
	}
	bs := BootstrapState{
		LastSnap:     s.ml.lastSnap(),
		SnapLSNs:     append([]uint64(nil), s.snapLSN...),
		PagelogPages: s.pl.size(),
	}
	bs.Entries = make([]BootstrapEntry, len(s.ml.entries))
	for i, e := range s.ml.entries {
		bs.Entries[i] = BootstrapEntry{Snap: e.snap, Page: e.page, Off: e.off}
	}
	return bs, nil
}

// ExportPagelog reads up to max consecutive Pagelog pages starting at
// offset off, for shipping bootstrap chunks. It reads through tiers, so
// it serves sealed ranges too (decompressed) — the raw-page fallback
// for subscribers that do not speak segment shipping.
func (s *System) ExportPagelog(off int64, max int) ([]*storage.PageData, error) {
	pages, _, _, err := s.pl.readRun(off, max)
	return pages, err
}

// SealedSegmentBlob is one sealed segment as shipped during an
// incremental bootstrap: the encoded blob verbatim, so the replica's
// cold tier is byte-identical to the primary's and no decompression or
// re-sealing happens on either side.
type SealedSegmentBlob struct {
	Base  int64 // first logical offset covered
	Pages int64 // logical offsets covered
	Blob  []byte
}

// ExportSealedSegments returns the encoded blobs of the sealed segments
// that form a contiguous prefix [0, covered) of the Pagelog with
// covered <= limit. Segments beyond limit (sealed after the bootstrap
// cut was taken) are excluded; the caller ships [covered, limit) as raw
// pages.
func (s *System) ExportSealedSegments(limit int64) ([]SealedSegmentBlob, int64, error) {
	pl := s.pl
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	var out []SealedSegmentBlob
	covered := int64(0)
	for _, sg := range pl.segments {
		if sg.base != covered || sg.base+sg.slots > limit {
			break
		}
		blob := make([]byte, sg.diskBytes)
		if _, err := sg.file.ReadAt(blob, 0); err != nil {
			return nil, 0, fmt.Errorf("retro: segment export read: %w", err)
		}
		out = append(out, SealedSegmentBlob{Base: sg.base, Pages: sg.slots, Blob: blob})
		covered = sg.base + sg.slots
	}
	return out, covered, nil
}

// ApplyBootstrap loads an exported retro state into an empty system:
// shipped sealed segments installed verbatim as the cold tier, the raw
// Pagelog pages appended after them, then the primary's declare/append
// sequence replayed in order, which reproduces segStart and the Skippy
// levels exactly (skip-merging is deterministic in that sequence).
// segs is nil when the primary shipped everything raw (flat Pagelog, or
// a subscriber protocol without segment shipping).
func (s *System) ApplyBootstrap(bs BootstrapState, segs []SealedSegmentBlob, plPages []*storage.PageData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	pl := s.pl
	if s.ml.lastSnap() != 0 || len(s.ml.entries) != 0 || pl.size() != 0 {
		return errors.New("retro: bootstrap into a non-empty snapshot system")
	}
	var sealedPages int64
	for _, sb := range segs {
		if err := pl.installShippedSegment(sb.Blob); err != nil {
			return err
		}
		sealedPages += sb.Pages
	}
	for _, p := range plPages {
		if _, err := pl.append(p); err != nil {
			return err
		}
	}
	if got := pl.size(); got != bs.PagelogPages {
		return fmt.Errorf("%w: bootstrap pagelog %d pages, expected %d", ErrReplDiverged, got, bs.PagelogPages)
	}
	if uint64(len(bs.SnapLSNs)) != uint64(bs.LastSnap) {
		return fmt.Errorf("%w: bootstrap has %d snapLSNs for %d snapshots", ErrReplDiverged, len(bs.SnapLSNs), bs.LastSnap)
	}
	idx := 0
	for snap := SnapshotID(1); snap <= bs.LastSnap; snap++ {
		// declare(snap) precedes the entries tagged snap in the
		// primary's timeline: entries are tagged with the latest
		// declared snapshot.
		if id := s.ml.declare(); id != snap {
			return fmt.Errorf("%w: bootstrap replay declared %d, expected %d", ErrReplDiverged, id, snap)
		}
		for idx < len(bs.Entries) && bs.Entries[idx].Snap == snap {
			e := bs.Entries[idx]
			s.ml.append(e.Snap, e.Page, e.Off)
			s.lastCapture[e.Page] = e.Snap
			idx++
		}
	}
	if idx != len(bs.Entries) {
		return fmt.Errorf("%w: %d bootstrap maplog entries with out-of-range tags", ErrReplDiverged, len(bs.Entries)-idx)
	}
	s.snapLSN = append(s.snapLSN[:0], bs.SnapLSNs...)
	// Mirror the primary's cumulative counters for the shipped history
	// so the replica's /metrics line up.
	s.stats.Snapshots.Add(uint64(bs.LastSnap))
	s.stats.PagelogWrites.Add(uint64(sealedPages) + uint64(len(plPages)))
	return nil
}

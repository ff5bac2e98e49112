package retro

import (
	"fmt"
	"time"

	"rql/internal/storage"
)

// The background compactor turns the flat, ever-growing Pagelog into a
// tiered one: it seals prefixes of the hot tail into immutable
// deduplicated compressed segments (segment.go). Sealing is the only
// structural change the Pagelog ever undergoes, and it is invisible to
// the rest of the system — logical offsets never move, so SPTs, the
// Maplog, the snapshot cache, and replication deltas need no
// coordination with it.
//
// The billed counter series is invisible too, by construction rather
// than by care: PagelogReads/CacheHits/DeviceReads count logical events
// at logical offsets, and a cold read is one device command whichever
// tier serves it. What changes is the physical side — DeviceBytesRead
// and the footprint gauges.

// CompactionOptions configures the tiered Pagelog. The zero value
// disables tiering entirely: the Pagelog stays flat and byte-identical
// to a build without compaction support.
type CompactionOptions struct {
	// Enabled starts the background compactor.
	Enabled bool
	// SegmentPages is the logical size of one sealed segment. 0 uses
	// DefaultSegmentPages.
	SegmentPages int
	// MinTailPages is how much of the hot tail sealing leaves behind —
	// the recently-captured region demand reads are likeliest to hit.
	// 0 uses DefaultMinTailPages; negative means "seal everything
	// eligible" (tests, benchmarks).
	MinTailPages int
	// Interval is the background compactor's poll period. 0 uses
	// DefaultCompactInterval.
	Interval time.Duration
}

// Default compaction geometry: 4 MiB logical segments, one segment's
// worth of hot tail kept unsealed, 25ms polls.
const (
	DefaultSegmentPages    = 1024
	DefaultMinTailPages    = 1024
	DefaultCompactInterval = 25 * time.Millisecond
)

func (c CompactionOptions) withDefaults() CompactionOptions {
	if c.SegmentPages <= 0 {
		c.SegmentPages = DefaultSegmentPages
	}
	switch {
	case c.MinTailPages == 0:
		c.MinTailPages = DefaultMinTailPages
	case c.MinTailPages < 0:
		c.MinTailPages = 0
	}
	if c.Interval <= 0 {
		c.Interval = DefaultCompactInterval
	}
	return c
}

// compactorLoop is the background compactor: each tick it seals every
// eligible tail prefix.
func (s *System) compactorLoop() {
	defer close(s.compactDone)
	t := time.NewTicker(s.copts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
		}
		for {
			sealed, err := s.sealOnce()
			if err != nil || !sealed {
				break
			}
		}
	}
}

// SealNow synchronously seals every eligible hot-tail prefix into cold
// segments, honouring the configured segment geometry, and returns the
// number of segments sealed. It works whether or not the background
// compactor is enabled (tests and benchmarks use it for deterministic
// tiering).
func (s *System) SealNow() (int, error) {
	n := 0
	for {
		sealed, err := s.sealOnce()
		if err != nil {
			return n, err
		}
		if !sealed {
			return n, nil
		}
		n++
	}
}

// sealOnce seals one segment's worth of the oldest hot-tail pages, if
// the tail is long enough to leave MinTailPages behind. The expensive
// part — reading, deduplicating, compressing, writing the blob — runs
// without any System or pagelog lock: the region being sealed is
// immutable (appends only ever extend the tail) and sealMu keeps any
// other seal from installing underneath us. Only the final install
// (segment list append + tail rotation) takes pl.mu.
func (s *System) sealOnce() (bool, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()

	s.mu.RLock()
	err := s.usableLocked()
	s.mu.RUnlock()
	if err != nil {
		return false, err
	}
	pl := s.pl
	segPages := int64(s.copts.SegmentPages)
	minTail := int64(s.copts.MinTailPages)

	// Plan the cut under the read lock; capture the tail file the
	// lock-free read below reads the cut from.
	pl.mu.RLock()
	if pl.closed {
		pl.mu.RUnlock()
		return false, ErrClosed
	}
	base := pl.tailBase
	if pl.n-base < segPages+minTail {
		pl.mu.RUnlock()
		return false, nil
	}
	cut := base + segPages
	dir, tail := pl.dir, pl.tail
	pl.mu.RUnlock()

	sb := newSegmentBuilder(base)
	var page storage.PageData
	for off := base; off < cut; off++ {
		if _, err := tail.ReadAt(page[:], (off-base)*storage.PageSize); err != nil {
			return false, fmt.Errorf("retro: seal read: %w", err)
		}
		sb.add(&page)
	}
	blob, err := sb.encode()
	if err != nil {
		return false, err
	}
	sg, err := parseSegmentMeta(blob)
	if err != nil {
		return false, fmt.Errorf("retro: seal self-check: %w", err)
	}
	name := pl.segName(base)
	if sg.file, err = publishSegment(dir, name, blob); err != nil {
		return false, err
	}
	if err := pl.installSegment(sg, cut); err != nil {
		sg.file.Close()
		dir.Remove(name) // never installed, so never read
		return false, err
	}
	s.stats.SegmentSeals.Add(1)
	s.stats.SealedPages.Add(uint64(cut - base))
	return true, nil
}

// publishSegment writes blob as the segment file name crash-safely and
// opens it for reading: the blob lands in a .tmp, is synced, renamed
// into place, and the rename is made durable by a directory sync. A
// kill mid-publish leaves nothing or a .tmp that reopen sweeps away; a
// failed step removes what it wrote and installs nothing.
func publishSegment(dir vfs, name string, blob []byte) (vfile, error) {
	tmp := name + ".tmp"
	f, err := dir.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("retro: segment write: %w", err)
	}
	_, err = f.WriteAt(blob, 0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = dir.Rename(tmp, name)
	}
	if err != nil {
		dir.Remove(tmp) // best effort: reopen sweeps a .tmp left behind
		return nil, fmt.Errorf("retro: segment publish: %w", err)
	}
	if err = dir.SyncDir(); err == nil {
		f, err = dir.Open(name)
	}
	if err != nil {
		dir.Remove(name)
		return nil, fmt.Errorf("retro: segment publish: %w", err)
	}
	return f, nil
}

// installSegment atomically swaps the sealed range out of the hot tail:
// it appends sg to the segment list, rotates the tail file so the
// remaining unsealed suffix starts at position zero of a fresh file
// (reclaiming the sealed prefix's flat bytes), and advances tailBase.
// Readers are excluded for the suffix copy, which goes through a 1 MiB
// buffer; under the background compactor the suffix is at most
// MinTailPages plus what was appended while the seal encoded.
func (pl *pagelog) installSegment(sg *segment, cut int64) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return ErrClosed
	}
	if pl.tailBase != sg.base || cut > pl.n {
		return fmt.Errorf("retro: seal install out of sync (tail %d, segment %d)", pl.tailBase, sg.base)
	}
	newName := fmt.Sprintf("%s.tail-%012d", pl.name, cut)
	nf, err := pl.dir.Create(newName)
	if err != nil {
		return fmt.Errorf("retro: tail rotate: %w", err)
	}
	remain := (pl.n - cut) * storage.PageSize
	buf := make([]byte, min(remain, 256*storage.PageSize))
	for pos := int64(0); pos < remain && err == nil; pos += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), remain-pos)]
		if _, err = pl.tail.ReadAt(chunk, (cut-pl.tailBase)*storage.PageSize+pos); err == nil {
			_, err = nf.WriteAt(chunk, pos)
		}
	}
	if err != nil {
		nf.Close()
		pl.dir.Remove(newName)
		return fmt.Errorf("retro: tail rotate: %w", err)
	}
	old, oldName := pl.tail, pl.tailName
	pl.tail, pl.tailName = nf, newName
	old.Close()
	pl.dir.Remove(oldName)
	pl.segments = append(pl.segments, sg)
	pl.tailBase = cut
	return nil
}

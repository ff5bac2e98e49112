package retro

import (
	"fmt"
	"os"
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

	// Plan the cut under the read lock; capture what the lock-free read
	// below needs (the file handle, or the immutable mem prefix).
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
	file := pl.file
	var memRegion []*storage.PageData
	if file == nil {
		memRegion = pl.mem[:cut-base]
	}
	pl.mu.RUnlock()

	sb := newSegmentBuilder(base)
	if file != nil {
		var page storage.PageData
		for off := base; off < cut; off++ {
			if _, err := file.ReadAt(page[:], (off-base)*storage.PageSize); err != nil {
				return false, fmt.Errorf("retro: seal read: %w", err)
			}
			sb.add(&page)
		}
	} else {
		for _, p := range memRegion {
			sb.add(p)
		}
	}
	blob, err := sb.encode()
	if err != nil {
		return false, err
	}
	sg, err := parseSegmentMeta(blob)
	if err != nil {
		return false, fmt.Errorf("retro: seal self-check: %w", err)
	}
	sg.blob = blob // memory backing; replaced by the file below

	if file != nil {
		// Crash-safe publication: the blob lands in a .tmp first and is
		// renamed into place only once fully synced, so a kill mid-seal
		// leaves either nothing or a .tmp that reopen sweeps away.
		final := fmt.Sprintf("%s.seg-%012d", pl.base, base)
		tmp := final + ".tmp"
		if err := writeSegmentFile(tmp, blob); err != nil {
			return false, err
		}
		pl.mu.Lock()
		if err := pl.injectSealErr; err != nil {
			pl.injectSealErr = nil
			pl.mu.Unlock()
			return false, err // simulated crash: the partial .tmp stays behind
		}
		pl.mu.Unlock()
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
			return false, fmt.Errorf("retro: seal publish: %w", err)
		}
		f, err := os.Open(final)
		if err != nil {
			os.Remove(final)
			return false, fmt.Errorf("retro: seal reopen: %w", err)
		}
		sg.file = f
		sg.path = final
		sg.blob = nil
	}

	if err := pl.installSegment(sg, cut); err != nil {
		sg.remove()
		return false, err
	}
	s.stats.SegmentSeals.Add(1)
	s.stats.SealedPages.Add(uint64(cut - base))
	return true, nil
}

// writeSegmentFile writes blob to path and syncs it to stable storage.
func writeSegmentFile(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("retro: seal write: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("retro: seal write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("retro: seal sync: %w", err)
	}
	return f.Close()
}

// installSegment atomically swaps the sealed range out of the hot tail:
// it appends sg to the segment list, rotates the tail file so the
// remaining unsealed suffix starts at position zero of a fresh file
// (reclaiming the sealed prefix's flat bytes), and advances tailBase.
// Readers are excluded for the duration of the suffix copy — the
// suffix is at most MinTailPages plus whatever was appended while the
// seal encoded, so the stall is small and bounded.
func (pl *pagelog) installSegment(sg *segment, cut int64) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return ErrClosed
	}
	if pl.tailBase != sg.base || cut > pl.n {
		return fmt.Errorf("retro: seal install out of sync (tail %d, segment %d)", pl.tailBase, sg.base)
	}
	if pl.file != nil {
		newPath := fmt.Sprintf("%s.tail-%06d", pl.base, pl.tailSeq+1)
		nf, err := os.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("retro: tail rotate: %w", err)
		}
		buf := make([]byte, 256*storage.PageSize)
		var copied int64
		remain := (pl.n - cut) * storage.PageSize
		srcOff := (cut - pl.tailBase) * storage.PageSize
		for copied < remain {
			chunk := int64(len(buf))
			if remain-copied < chunk {
				chunk = remain - copied
			}
			if _, err := pl.file.ReadAt(buf[:chunk], srcOff+copied); err != nil {
				nf.Close()
				os.Remove(newPath)
				return fmt.Errorf("retro: tail rotate read: %w", err)
			}
			if _, err := nf.WriteAt(buf[:chunk], copied); err != nil {
				nf.Close()
				os.Remove(newPath)
				return fmt.Errorf("retro: tail rotate write: %w", err)
			}
			copied += chunk
		}
		old, oldPath := pl.file, pl.path
		pl.file = nf
		pl.path = newPath
		pl.tailSeq++
		old.Close()
		os.Remove(oldPath)
	} else {
		keep := pl.mem[cut-pl.tailBase:]
		pl.mem = append(make([]*storage.PageData, 0, len(keep)), keep...)
	}
	pl.segments = append(pl.segments, sg)
	pl.tailBase = cut
	return nil
}

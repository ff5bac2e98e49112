// Package retro implements the paper's Retro snapshot system (§4): an
// incremental page-level copy-on-write snapshot store layered on the
// storage package.
//
// At transaction commit, the first modification of a page P after a
// snapshot declaration S captures P's pre-state into the Pagelog, an
// on-disk log-structured archive, and appends the mapping (S, P, off)
// to the Maplog. Building the snapshot page table SPT(S) scans the
// Maplog forward from S taking the first mapping per page; pages with
// no mapping are shared with the current database and are read through
// an MVCC read transaction. A Skippy-style hierarchy of skip-merged
// Maplog segments keeps the scan length near n·log(n) in the number of
// snapshot pages rather than proportional to history length.
//
// Snapshot pages are cached in an LRU cache keyed by Pagelog offset, so
// a pre-state shared by several snapshots occupies one cache entry and
// is fetched from the Pagelog at most once per cold run — the page
// sharing the paper's §5.1 performance analysis is built on.
//
// The Pagelog itself is tiered (see segment.go): appends land in a hot
// tail in the flat format, and a background compactor seals tail
// prefixes into immutable, page-deduplicated, block-compressed cold
// segments. The tail and each segment are files behind one small file
// interface (vfs.go), implemented over the host's file system (osFS)
// and over memory (memFS). Sealing never moves a logical offset — the
// tail shrinks from the front and the segment covers exactly the
// logical range it replaced — so SPTs, the Maplog, the snapshot cache,
// and replication deltas are oblivious to it. Nothing else restructures
// the Pagelog: an offset, once assigned, names the same pre-state for
// the life of the store.
package retro

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"rql/internal/storage"
)

// Errors returned by the retro package.
var (
	ErrNoSnapshot   = errors.New("retro: snapshot does not exist")
	ErrClosed       = errors.New("retro: system is closed")
	ErrBadOffset    = errors.New("retro: pagelog offset out of range")
	ErrReaderClosed = errors.New("retro: snapshot reader is closed")
)

// pagelog is the append-only archive of captured page pre-states.
// Offsets are page indexes. Its files live in a vfs: osFS when a path
// is given, memFS otherwise (tests, examples).
//
// Tiering: logical offsets [0, tailBase) live in sealed segments
// (sorted by base, contiguous); [tailBase, n) is the hot tail in the
// flat format. Tail file positions are tail-relative — (off - tailBase)
// * PageSize — because sealing rotates the tail file to reclaim the
// sealed prefix.
type pagelog struct {
	mu       sync.RWMutex
	dir      vfs
	name     string // the configured file name segment and tail files derive from
	tail     vfile  // the hot tail's file
	tailName string // the configured name, then <name>.tail-<tailBase> once rotated
	n        int64

	tailBase int64      // first logical offset still in the hot tail
	segments []*segment // sealed cold segments, ascending base
	bcache   *blockCache

	// Staged appends (group commit): between beginStage and
	// flushStaged, append buffers page pointers instead of writing,
	// handing out the offsets the pages will occupy; flushStaged then
	// performs one backing write for the whole group. size() includes
	// staged pages so offset arithmetic (PlBase, Maplog entries) is
	// identical with staging on or off. The caller (System) holds its
	// mutex across the stage, so no reader can chase a staged offset
	// before the flush.
	staging bool
	staged  []*storage.PageData

	closed bool // set by close; reads fail and seals abort instead of installing
}

// newPagelog opens an empty archive named name in dir. It first sweeps
// away what a previous incarnation or a crash mid-seal left beside it —
// sealed segments, rotated tails, partial .tmp blobs: the archive starts
// empty, so a reopen never resurrects them.
func newPagelog(dir vfs, name string) (*pagelog, error) {
	for _, prefix := range []string{name + ".seg-", name + ".tail-"} {
		stray, _ := dir.List(prefix) // best effort: a stray file is never read
		for _, s := range stray {
			dir.Remove(s)
		}
	}
	tail, err := dir.Create(name)
	if err != nil {
		return nil, fmt.Errorf("retro: open pagelog: %w", err)
	}
	return &pagelog{dir: dir, name: name, tail: tail, tailName: name, bcache: newBlockCache()}, nil
}

// segName is the file name of the sealed segment starting at base.
func (pl *pagelog) segName(base int64) string { return fmt.Sprintf("%s.seg-%012d", pl.name, base) }

// append stores a copy of data and returns its offset. In staging
// mode the referenced page (an immutable committed version) is only
// recorded; flushStaged writes the batch.
func (pl *pagelog) append(data *storage.PageData) (int64, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.staging {
		off := pl.n + int64(len(pl.staged))
		pl.staged = append(pl.staged, data)
		return off, nil
	}
	off := pl.n
	if _, err := pl.tail.WriteAt(data[:], (off-pl.tailBase)*storage.PageSize); err != nil {
		return 0, fmt.Errorf("retro: pagelog write: %w", err)
	}
	pl.n++
	return off, nil
}

// findSegment returns the sealed segment containing the logical offset.
// Sealed segments tile [0, tailBase) without holes, so nil for an offset
// below tailBase is a broken invariant, reported as ErrBadOffset.
func (pl *pagelog) findSegment(off int64) *segment {
	i := sort.Search(len(pl.segments), func(i int) bool {
		return pl.segments[i].base+pl.segments[i].slots > off
	})
	if i < len(pl.segments) && pl.segments[i].contains(off) {
		return pl.segments[i]
	}
	return nil
}

// read fills dst with the page at off. It returns the bytes physically
// transferred from the backing — PageSize for a tail read, the
// compressed block length for a cold-segment read whose block was not
// already buffered, zero on a block-cache hit — and the block-cache hit
// count, which the demand read adds to the device counters.
func (pl *pagelog) read(off int64, dst *storage.PageData) (physBytes int64, blockHits int, err error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if pl.closed {
		return 0, 0, ErrClosed
	}
	if off < 0 || off >= pl.n {
		return 0, 0, ErrBadOffset
	}
	if off >= pl.tailBase {
		if _, err := pl.tail.ReadAt(dst[:], (off-pl.tailBase)*storage.PageSize); err != nil {
			return 0, 0, fmt.Errorf("retro: pagelog read: %w", err)
		}
		return storage.PageSize, 0, nil
	}
	sg := pl.findSegment(off)
	if sg == nil {
		return 0, 0, fmt.Errorf("%w: offset %d is in no sealed segment", ErrBadOffset, off)
	}
	return sg.readPages(off, 1, []*storage.PageData{dst}, pl.bcache)
}

// readRun reads n consecutively-archived pages starting at off with
// one backing operation per tier crossed (the replication export's
// bulk read). The caller owns the returned pages — they are carved
// from one slab the tail run is read straight into, so a run costs two
// allocations instead of n+2, which is what BenchmarkPagelogReadRun
// pins down.
func (pl *pagelog) readRun(off int64, n int) (out []*storage.PageData, physBytes int64, blockHits int, err error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if pl.closed {
		return nil, 0, 0, ErrClosed
	}
	if n <= 0 || off < 0 || off+int64(n) > pl.n {
		return nil, 0, 0, ErrBadOffset
	}
	slab := make([]byte, n*storage.PageSize)
	out = make([]*storage.PageData, n)
	for i := range out {
		out[i] = (*storage.PageData)(slab[i*storage.PageSize:])
	}
	for i := 0; i < n; {
		cur := off + int64(i)
		if cur >= pl.tailBase {
			// Rest of the run is in the hot tail: one backing ReadAt.
			if _, err := pl.tail.ReadAt(slab[i*storage.PageSize:], (cur-pl.tailBase)*storage.PageSize); err != nil {
				return nil, 0, 0, fmt.Errorf("retro: pagelog read: %w", err)
			}
			return out, physBytes + int64(n-i)*storage.PageSize, blockHits, nil
		}
		sg := pl.findSegment(cur)
		if sg == nil {
			return nil, 0, 0, fmt.Errorf("%w: offset %d is in no sealed segment", ErrBadOffset, cur)
		}
		m := n - i
		if rem := sg.base + sg.slots - cur; int64(m) > rem {
			m = int(rem)
		}
		pb, bh, err := sg.readPages(cur, m, out[i:i+m], pl.bcache)
		if err != nil {
			return nil, 0, 0, err
		}
		physBytes += pb
		blockHits += bh
		i += m
	}
	return out, physBytes, blockHits, nil
}

// beginStage switches append into staging mode (see the struct doc).
func (pl *pagelog) beginStage() {
	pl.mu.Lock()
	pl.staging = true
	pl.mu.Unlock()
}

// flushStaged writes every staged page with one backing WriteAt and
// leaves staging mode. It reports how many pages the flush appended to
// the hot tail — zero means the group touched only already-archived
// ranges, so its device flush can be skipped (see System.GroupDurable).
func (pl *pagelog) flushStaged() (int, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.staging = false
	if len(pl.staged) == 0 {
		return 0, nil
	}
	n := len(pl.staged)
	buf := make([]byte, n*storage.PageSize)
	for i, d := range pl.staged {
		copy(buf[i*storage.PageSize:], d[:])
	}
	if _, err := pl.tail.WriteAt(buf, (pl.n-pl.tailBase)*storage.PageSize); err != nil {
		pl.staged = pl.staged[:0]
		return 0, fmt.Errorf("retro: pagelog group write: %w", err)
	}
	pl.n += int64(len(pl.staged))
	pl.staged = pl.staged[:0]
	return n, nil
}

// size returns the log length in pages, staged appends included.
func (pl *pagelog) size() int64 {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.n + int64(len(pl.staged))
}

// tiers reports the tier shape: sealed segment count, pages held in
// sealed segments, and pages in the hot tail (archived, unstaged).
func (pl *pagelog) tiers() (segs int, sealedPages, tailPages int64) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	for _, sg := range pl.segments {
		sealedPages += sg.slots
	}
	return len(pl.segments), sealedPages, pl.n - pl.tailBase
}

// footprint reports the archive's logical size (pages × PageSize)
// against the bytes actually held by the backing: sealed segments store
// deduplicated compressed blocks.
func (pl *pagelog) footprint() (logicalBytes, diskBytes int64) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	tail := (pl.n - pl.tailBase) * storage.PageSize
	logicalBytes, diskBytes = tail, tail
	for _, sg := range pl.segments {
		logicalBytes += sg.logicalBytes()
		diskBytes += sg.diskBytes
	}
	return logicalBytes, diskBytes
}

func (pl *pagelog) close() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	// Discard any still-staged pages and leave staging mode: a teardown
	// racing a failed group flush must not keep the staged slice (and
	// the page versions it pins) alive through the closed pagelog.
	pl.staged = nil
	pl.staging = false
	pl.closed = true
	for _, sg := range pl.segments {
		sg.file.Close() // opened read-only
	}
	pl.segments = nil
	err := pl.tail.Close()
	// Drop the backing: a closed memory-backed archive frees its pages.
	pl.tail, pl.dir = nil, nil
	return err
}

// installShippedSegment attaches a replicated sealed-segment blob as
// the next cold segment of a bootstrap-loading pagelog. Segments must
// arrive in base order while the tail is still empty — the raw tail
// pages of the bootstrap append afterwards.
func (pl *pagelog) installShippedSegment(blob []byte) error {
	sg, err := parseSegmentMeta(blob)
	if err != nil {
		return err
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return ErrClosed
	}
	if pl.tailBase != pl.n || sg.base != pl.n || pl.staging {
		return fmt.Errorf("retro: shipped segment base %d does not extend pagelog at %d", sg.base, pl.n)
	}
	if sg.file, err = publishSegment(pl.dir, pl.segName(sg.base), blob); err != nil {
		return err
	}
	pl.segments = append(pl.segments, sg)
	pl.n += sg.slots
	pl.tailBase = pl.n
	return nil
}

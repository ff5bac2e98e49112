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
// segments. Sealing never moves a logical offset — the tail shrinks
// from the front and the segment covers exactly the logical range it
// replaced — so SPTs, the Maplog, the snapshot cache, and replication
// deltas are oblivious to it. Only Compact (retention.go) remaps
// offsets, and it still requires zero open readers.
package retro

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

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
// Offsets are page indexes. It is backed by a real file when a path is
// given, or by memory otherwise (tests, examples).
//
// Tiering: logical offsets [0, tailBase) that have not been dropped by
// retention live in sealed segments (sorted by base, contiguous);
// [tailBase, n) is the hot tail in the flat format. Tail file positions
// are tail-relative — (off - tailBase) * PageSize — because sealing
// rotates the tail file to reclaim the sealed prefix.
type pagelog struct {
	mu   sync.RWMutex
	file *os.File
	path string // the current tail file's actual path ("" for memory backing)
	base string // the configured path compaction generations derive from
	gen  int
	mem  []*storage.PageData // tail pages, mem[off - tailBase]
	n    int64

	tailBase int64      // first logical offset still in the hot tail
	segments []*segment // sealed cold segments, ascending base
	bcache   *blockCache
	tailSeq  int // tail-file rotation counter (file backing)

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

	closed bool // set by close/destroy; seals abort instead of installing

	injectReadErr atomic.Pointer[error] // test hook: fail the next read (see takeReadErr)
	injectSealErr error                 // test hook: fail the next seal after the partial write
}

// takeReadErr claims the injected read error, if any. Reads hold only
// pl.mu's read lock, so the claim is an atomic swap: of any number of
// concurrent reads, exactly one fails.
func (pl *pagelog) takeReadErr() error {
	if p := pl.injectReadErr.Swap(nil); p != nil {
		return *p
	}
	return nil
}

func newPagelog(path string) (*pagelog, error) {
	if path == "" {
		return &pagelog{bcache: newBlockCache()}, nil
	}
	// A previous incarnation (or a crash mid-seal) may have left sealed
	// segment files, rotated tails, or partial .tmp blobs next to the
	// configured path. The archive starts empty (O_TRUNC semantics), so
	// they are all stale: discard the whole generation.
	removeStrayPagelogFiles(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("retro: open pagelog: %w", err)
	}
	return &pagelog{file: f, path: path, base: path, bcache: newBlockCache()}, nil
}

// removeStrayPagelogFiles unlinks segment, rotated-tail, and temp files
// derived from the configured path — the crash-recovery sweep: a kill
// mid-seal leaves at most a *.tmp (never renamed into place) or an
// orphaned segment file, and reopening must not resurrect either.
func removeStrayPagelogFiles(base string) {
	for _, pat := range []string{base + ".seg-*", base + ".tail-*", base + ".gen*"} {
		names, err := filepath.Glob(pat)
		if err != nil {
			continue
		}
		for _, name := range names {
			os.Remove(name)
		}
	}
}

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
	if pl.file != nil {
		if _, err := pl.file.WriteAt(data[:], (off-pl.tailBase)*storage.PageSize); err != nil {
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

// findSegment returns the sealed segment containing the logical offset,
// or nil (offset is in a retention hole).
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
	if err := pl.takeReadErr(); err != nil {
		return 0, 0, err
	}
	if off < 0 || off >= pl.n {
		return 0, 0, ErrBadOffset
	}
	if off >= pl.tailBase {
		if pl.file != nil {
			if _, err := pl.file.ReadAt(dst[:], (off-pl.tailBase)*storage.PageSize); err != nil {
				return 0, 0, fmt.Errorf("retro: pagelog read: %w", err)
			}
			return storage.PageSize, 0, nil
		}
		*dst = *pl.mem[off-pl.tailBase]
		return storage.PageSize, 0, nil
	}
	sg := pl.findSegment(off)
	if sg == nil {
		return 0, 0, fmt.Errorf("%w: offset %d was dropped by retention", ErrBadOffset, off)
	}
	return sg.readPages(off, 1, []*storage.PageData{dst}, pl.bcache)
}

// runSlabPool recycles the staging buffers readRun uses for the one
// backing ReadAt of a tail run. The returned *[]byte always has the cap
// the last user grew it to.
var runSlabPool = sync.Pool{New: func() any { return new([]byte) }}

// readRun reads n consecutively-archived pages starting at off with
// one backing operation per tier crossed (the replication export's
// bulk read). The caller owns the returned pages — they are
// carved from one slab allocation, so a run costs two allocations
// instead of n+2, which is what BenchmarkPagelogReadRun pins down.
func (pl *pagelog) readRun(off int64, n int) (out []*storage.PageData, physBytes int64, blockHits int, err error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if err := pl.takeReadErr(); err != nil {
		return nil, 0, 0, err
	}
	if n <= 0 || off < 0 || off+int64(n) > pl.n {
		return nil, 0, 0, ErrBadOffset
	}
	slab := make([]storage.PageData, n)
	out = make([]*storage.PageData, n)
	for i := range out {
		out[i] = &slab[i]
	}
	for i := 0; i < n; {
		cur := off + int64(i)
		if cur >= pl.tailBase {
			// Rest of the run is in the hot tail: one backing ReadAt.
			m := n - i
			if pl.file != nil {
				bufp := runSlabPool.Get().(*[]byte)
				if cap(*bufp) < m*storage.PageSize {
					*bufp = make([]byte, m*storage.PageSize)
				}
				buf := (*bufp)[:m*storage.PageSize]
				if _, err := pl.file.ReadAt(buf, (cur-pl.tailBase)*storage.PageSize); err != nil {
					runSlabPool.Put(bufp)
					return nil, 0, 0, fmt.Errorf("retro: pagelog read: %w", err)
				}
				for j := 0; j < m; j++ {
					copy(out[i+j][:], buf[j*storage.PageSize:])
				}
				runSlabPool.Put(bufp)
			} else {
				for j := 0; j < m; j++ {
					*out[i+j] = *pl.mem[cur-pl.tailBase+int64(j)]
				}
			}
			physBytes += int64(m) * storage.PageSize
			i += m
			continue
		}
		sg := pl.findSegment(cur)
		if sg == nil {
			return nil, 0, 0, fmt.Errorf("%w: offset %d was dropped by retention", ErrBadOffset, cur)
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

// readPageLocked serves one logical offset with pl.mu already held
// exclusively (Compact's rewrite loop).
func (pl *pagelog) readPageLocked(off int64, dst *storage.PageData) error {
	if off < 0 || off >= pl.n {
		return fmt.Errorf("%w: offset %d", ErrBadOffset, off)
	}
	if off >= pl.tailBase {
		if pl.file != nil {
			if _, err := pl.file.ReadAt(dst[:], (off-pl.tailBase)*storage.PageSize); err != nil {
				return fmt.Errorf("retro: pagelog read: %w", err)
			}
			return nil
		}
		*dst = *pl.mem[off-pl.tailBase]
		return nil
	}
	sg := pl.findSegment(off)
	if sg == nil {
		return fmt.Errorf("%w: offset %d was dropped by retention", ErrBadOffset, off)
	}
	_, _, err := sg.readPages(off, 1, []*storage.PageData{dst}, pl.bcache)
	return err
}

// beginStage switches append into staging mode (see the struct doc).
func (pl *pagelog) beginStage() {
	pl.mu.Lock()
	pl.staging = true
	pl.mu.Unlock()
}

// flushStaged writes every staged page with one backing WriteAt (one
// copy per page for the memory backing) and leaves staging mode. It
// reports how many pages the flush appended to the hot tail — zero
// means the group touched only already-archived ranges, so its device
// flush can be skipped (see System.GroupDurable).
func (pl *pagelog) flushStaged() (int, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.staging = false
	if len(pl.staged) == 0 {
		return 0, nil
	}
	n := len(pl.staged)
	if pl.file != nil {
		buf := make([]byte, len(pl.staged)*storage.PageSize)
		for i, d := range pl.staged {
			copy(buf[i*storage.PageSize:], d[:])
		}
		if _, err := pl.file.WriteAt(buf, (pl.n-pl.tailBase)*storage.PageSize); err != nil {
			pl.staged = pl.staged[:0]
			return 0, fmt.Errorf("retro: pagelog group write: %w", err)
		}
	} else {
		for _, d := range pl.staged {
			cp := new(storage.PageData)
			*cp = *d
			pl.mem = append(pl.mem, cp)
		}
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

// footprint reports the archive's logical size (live pages ×
// PageSize) against the bytes actually held by the backing: sealed
// segments store deduplicated compressed blocks, and retention-dropped
// ranges cost nothing.
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
		sg.close()
	}
	pl.segments = nil
	if pl.file != nil {
		err := pl.file.Close()
		pl.file = nil
		return err
	}
	pl.mem = nil
	return nil
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
	if pl.file != nil {
		path := fmt.Sprintf("%s.seg-g%d-%012d", pl.base, pl.gen, sg.base)
		if err := writeSegmentFile(path, blob); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			os.Remove(path)
			return fmt.Errorf("retro: shipped segment reopen: %w", err)
		}
		sg.file = f
		sg.path = path
	} else {
		sg.blob = append([]byte(nil), blob...)
	}
	pl.segments = append(pl.segments, sg)
	pl.n += sg.slots
	pl.tailBase = pl.n
	return nil
}

// destroy closes the pagelog and unlinks every backing file — the tail
// and all sealed segments (Compact discarding the previous generation).
func (pl *pagelog) destroy() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.staged = nil
	pl.staging = false
	pl.closed = true
	for _, sg := range pl.segments {
		sg.remove()
	}
	pl.segments = nil
	if pl.file != nil {
		pl.file.Close()
		pl.file = nil
		os.Remove(pl.path)
	}
	pl.mem = nil
}

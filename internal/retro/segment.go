package retro

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"rql/internal/storage"
)

// A sealed segment is an immutable cold tier of the Pagelog: the
// compactor takes a prefix of the hot tail and rewrites it as
//
//	header | slot index | block directory | compressed blocks | crc
//
// Logical offsets are NOT remapped by sealing — the segment covers the
// contiguous logical range [base, base+slots) and its slot index maps
// each logical slot to one of nuniq unique pages (identical pre-states
// are stored once; TPC-H-style refresh workloads re-capture unchanged
// regions of a page run, so dedup is not hypothetical). Unique pages
// are grouped into blocks of segBlockPages and each block is
// DEFLATE-compressed independently, so one block decompression serves a
// clustered run and a demand read only inflates ~64 KiB. The layout
// keeps unique pages in first-reference order — capture order is commit
// order, so clustered retro sweeps walk blocks sequentially.
//
// Everything before the blocks (header, slot index, block directory) is
// kept in memory after sealing or loading; block bytes stay in the
// segment's file until read.

// segMagic identifies a sealed segment blob, version 1.
const segMagic = "RQLSEG01"

// segBlockPages is the number of unique pages per compression block.
// 16 pages = 64 KiB uncompressed, a good flate window while keeping
// single-page demand inflation cheap.
const segBlockPages = 16

// segHeaderSize is the fixed header: magic, base, slots, nuniq,
// blockPages, index+directory byte length (for one-read loading).
const segHeaderSize = 8 + 8 + 4 + 4 + 4 + 4

// segment is one sealed, immutable cold range of the Pagelog.
type segment struct {
	base  int64 // first logical offset covered
	slots int64 // logical offsets covered (base..base+slots)
	nuniq int   // unique pages stored

	// slotIdx[i] is the unique-page index serving logical offset base+i.
	slotIdx []uint32
	// blockOff[b] / blockLen[b] locate block b's compressed bytes
	// relative to the start of the blob's block area.
	blockOff []uint32
	blockLen []uint32

	blocksStart int64 // byte offset of the block area within the blob

	file vfile // the encoded segment, opened read-only

	diskBytes int64 // total encoded size
}

// logicalBytes is the uncompressed size the segment represents.
func (sg *segment) logicalBytes() int64 { return sg.slots * storage.PageSize }

// contains reports whether the logical offset falls in this segment.
func (sg *segment) contains(off int64) bool {
	return off >= sg.base && off < sg.base+sg.slots
}

// inflateBlock reads block b's compressed bytes and decompresses them
// into a fresh buffer of blockPages*PageSize (the final block may be
// shorter).
func (sg *segment) inflateBlock(b int) ([]byte, error) {
	raw := make([]byte, sg.blockLen[b])
	if _, err := sg.file.ReadAt(raw, sg.blocksStart+int64(sg.blockOff[b])); err != nil {
		return nil, fmt.Errorf("retro: segment block read: %w", err)
	}
	first := b * segBlockPages
	pages := sg.nuniq - first
	if pages > segBlockPages {
		pages = segBlockPages
	}
	out := make([]byte, pages*storage.PageSize)
	fr := flate.NewReader(bytes.NewReader(raw))
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, fmt.Errorf("retro: segment block inflate: %w", err)
	}
	fr.Close()
	return out, nil
}

// blockCache is a small LRU of decompressed segment blocks — the
// device's DRAM buffer. It makes demand reads that revisit a block (and
// runs that straddle one) pay the inflate once. Entries are keyed by
// (segment base, block index); segment bases are unique within a
// Pagelog, whose offsets never move, so an entry never goes stale.
type blockCache struct {
	mu  sync.Mutex
	cap int
	ord []blockKey // LRU order, front = most recent
	m   map[blockKey][]byte
}

type blockKey struct {
	segBase int64
	block   int
}

// segBlockCacheBlocks bounds the decompressed-block cache: 512 blocks
// of 64 KiB = 32 MiB of host DRAM. Deep retrospective sweeps revisit
// blocks in a scattered order (lazy capture interleaves snapshots'
// pages), so the cache must hold a sweep's working set of blocks or
// every revisit pays a re-inflate; 32 MiB covers ~128 MiB of sealed
// logical history at typical 2x compression.
const segBlockCacheBlocks = 512

func newBlockCache() *blockCache {
	return &blockCache{cap: segBlockCacheBlocks, m: make(map[blockKey][]byte)}
}

func (c *blockCache) get(k blockKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf, ok := c.m[k]
	if !ok {
		return nil
	}
	for i, o := range c.ord {
		if o == k {
			copy(c.ord[1:i+1], c.ord[:i])
			c.ord[0] = k
			break
		}
	}
	return buf
}

func (c *blockCache) put(k blockKey, buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	if len(c.ord) >= c.cap {
		last := c.ord[len(c.ord)-1]
		c.ord = c.ord[:len(c.ord)-1]
		delete(c.m, last)
	}
	c.ord = append([]blockKey{k}, c.ord...)
	c.m[k] = buf
}

func (c *blockCache) reset() {
	c.mu.Lock()
	c.ord = c.ord[:0]
	c.m = make(map[blockKey][]byte)
	c.mu.Unlock()
}

// segmentBuilder accumulates pages, dedups them, and encodes the blob.
type segmentBuilder struct {
	base    int64
	slotIdx []uint32
	uniq    []*storage.PageData
	byHash  map[uint64][]int // content hash -> indexes into uniq
}

func newSegmentBuilder(base int64) *segmentBuilder {
	return &segmentBuilder{base: base, byHash: make(map[uint64][]int)}
}

// add appends one logical slot, deduplicating against pages already in
// the builder.
func (sb *segmentBuilder) add(p *storage.PageData) {
	h := p.Sum64()
	for _, i := range sb.byHash[h] {
		if *sb.uniq[i] == *p {
			sb.slotIdx = append(sb.slotIdx, uint32(i))
			return
		}
	}
	i := len(sb.uniq)
	cp := new(storage.PageData)
	*cp = *p
	sb.uniq = append(sb.uniq, cp)
	sb.byHash[h] = append(sb.byHash[h], i)
	sb.slotIdx = append(sb.slotIdx, uint32(i))
}

// encode produces the segment blob: header, slot index, block
// directory, compressed blocks, crc32 trailer.
func (sb *segmentBuilder) encode() ([]byte, error) {
	nuniq := len(sb.uniq)
	nblocks := (nuniq + segBlockPages - 1) / segBlockPages

	// Compress the blocks first so the directory is exact.
	blockBufs := make([][]byte, nblocks)
	var comp bytes.Buffer
	for b := 0; b < nblocks; b++ {
		comp.Reset()
		fw, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		for i := b * segBlockPages; i < nuniq && i < (b+1)*segBlockPages; i++ {
			if _, err := fw.Write(sb.uniq[i][:]); err != nil {
				return nil, err
			}
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		blockBufs[b] = append([]byte(nil), comp.Bytes()...)
	}

	metaLen := 4*len(sb.slotIdx) + 8*nblocks
	var out bytes.Buffer
	out.WriteString(segMagic)
	var hdr [segHeaderSize - 8]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(sb.base))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(sb.slotIdx)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(nuniq))
	binary.LittleEndian.PutUint32(hdr[16:], segBlockPages)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(metaLen))
	out.Write(hdr[:])
	var u32 [4]byte
	for _, s := range sb.slotIdx {
		binary.LittleEndian.PutUint32(u32[:], s)
		out.Write(u32[:])
	}
	off := uint32(0)
	for _, bb := range blockBufs {
		binary.LittleEndian.PutUint32(u32[:], off)
		out.Write(u32[:])
		binary.LittleEndian.PutUint32(u32[:], uint32(len(bb)))
		out.Write(u32[:])
		off += uint32(len(bb))
	}
	for _, bb := range blockBufs {
		out.Write(bb)
	}
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(out.Bytes()))
	out.Write(u32[:])
	return out.Bytes(), nil
}

// parseSegmentMeta validates a blob's header + metadata + crc and
// returns a segment with the in-memory index filled in. The caller
// attaches the file.
func parseSegmentMeta(blob []byte) (*segment, error) {
	if len(blob) < segHeaderSize+4 || string(blob[:8]) != segMagic {
		return nil, fmt.Errorf("retro: not a sealed segment")
	}
	crcWant := binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if crc32.ChecksumIEEE(blob[:len(blob)-4]) != crcWant {
		return nil, fmt.Errorf("retro: sealed segment checksum mismatch")
	}
	sg := &segment{
		base:  int64(binary.LittleEndian.Uint64(blob[8:])),
		slots: int64(binary.LittleEndian.Uint32(blob[16:])),
		nuniq: int(binary.LittleEndian.Uint32(blob[20:])),
	}
	if bp := binary.LittleEndian.Uint32(blob[24:]); bp != segBlockPages {
		return nil, fmt.Errorf("retro: sealed segment block size %d, want %d", bp, segBlockPages)
	}
	metaLen := int(binary.LittleEndian.Uint32(blob[28:]))
	nblocks := (sg.nuniq + segBlockPages - 1) / segBlockPages
	if metaLen != 4*int(sg.slots)+8*nblocks || len(blob) < segHeaderSize+metaLen+4 {
		return nil, fmt.Errorf("retro: sealed segment metadata truncated")
	}
	meta := blob[segHeaderSize : segHeaderSize+metaLen]
	sg.slotIdx = make([]uint32, sg.slots)
	for i := range sg.slotIdx {
		sg.slotIdx[i] = binary.LittleEndian.Uint32(meta[4*i:])
		if int(sg.slotIdx[i]) >= sg.nuniq {
			return nil, fmt.Errorf("retro: sealed segment slot out of range")
		}
	}
	dir := meta[4*sg.slots:]
	sg.blockOff = make([]uint32, nblocks)
	sg.blockLen = make([]uint32, nblocks)
	sg.blocksStart = int64(segHeaderSize + metaLen)
	blockArea := int64(len(blob)) - 4 - sg.blocksStart
	for b := 0; b < nblocks; b++ {
		sg.blockOff[b] = binary.LittleEndian.Uint32(dir[8*b:])
		sg.blockLen[b] = binary.LittleEndian.Uint32(dir[8*b+4:])
		if int64(sg.blockOff[b])+int64(sg.blockLen[b]) > blockArea {
			return nil, fmt.Errorf("retro: sealed segment block %d lies outside the blob", b)
		}
	}
	sg.diskBytes = int64(len(blob))
	return sg, nil
}

// readPages serves logical offsets [off, off+n) from the segment into
// dst (n pre-allocated pages), using (and filling) the block cache.
// It returns the compressed bytes physically read — block-cache hits
// transfer nothing — and the number of cache hits.
func (sg *segment) readPages(off int64, n int, dst []*storage.PageData, bc *blockCache) (physBytes int64, blockHits int, err error) {
	for i := 0; i < n; i++ {
		u := int(sg.slotIdx[off+int64(i)-sg.base])
		b := u / segBlockPages
		k := blockKey{segBase: sg.base, block: b}
		buf := bc.get(k)
		if buf == nil {
			buf, err = sg.inflateBlock(b)
			if err != nil {
				return physBytes, blockHits, err
			}
			physBytes += int64(sg.blockLen[b])
			bc.put(k, buf)
		} else {
			blockHits++
		}
		p := u % segBlockPages
		copy(dst[i][:], buf[p*storage.PageSize:(p+1)*storage.PageSize])
	}
	return physBytes, blockHits, nil
}

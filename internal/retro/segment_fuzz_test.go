package retro

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"rql/internal/storage"
)

// sealedMeta re-encodes a parsed segment's header, slot index and block
// directory — everything parseSegmentMeta keeps.
func sealedMeta(sg *segment) []byte {
	out := []byte(segMagic)
	out = binary.LittleEndian.AppendUint64(out, uint64(sg.base))
	out = binary.LittleEndian.AppendUint32(out, uint32(sg.slots))
	out = binary.LittleEndian.AppendUint32(out, uint32(sg.nuniq))
	out = binary.LittleEndian.AppendUint32(out, segBlockPages)
	out = binary.LittleEndian.AppendUint32(out, uint32(4*len(sg.slotIdx)+8*len(sg.blockOff)))
	for _, u := range sg.slotIdx {
		out = binary.LittleEndian.AppendUint32(out, u)
	}
	for b := range sg.blockOff {
		out = binary.LittleEndian.AppendUint32(out, sg.blockOff[b])
		out = binary.LittleEndian.AppendUint32(out, sg.blockLen[b])
	}
	return out
}

// FuzzParseSegmentMeta feeds parseSegmentMeta — which a replica runs on
// blobs off the network — arbitrary bytes, as they are and with the crc
// trailer recomputed (a mutation almost never keeps it, and a hostile
// peer can): no panic, no allocation beyond a small multiple of the
// input, what parses re-encodes to the blob's own metadata, and every
// slot of it can then be read — an error at worst, never a panic.
func FuzzParseSegmentMeta(f *testing.F) {
	sb := newSegmentBuilder(7)
	for i := 0; i < 40; i++ {
		p := new(storage.PageData)
		p[0], p[storage.PageSize-1] = byte(i%20), byte(i%20) // 20 unique pages, two blocks
		sb.add(p)
	}
	blob, err := sb.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:segHeaderSize+4])
	hostile := append([]byte(nil), blob[:segHeaderSize]...)
	binary.LittleEndian.PutUint32(hostile[16:], 1<<29) // slots
	binary.LittleEndian.PutUint32(hostile[20:], 0)     // no unique pages, no blocks
	binary.LittleEndian.PutUint32(hostile[28:], 4<<29) // and a metadata length to match
	f.Add(append(hostile, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := append([]byte(nil), data...)
		if n := len(resealed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		for _, blob := range [][]byte{data, resealed} {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			sg, err := parseSegmentMeta(blob)
			runtime.ReadMemStats(&b)
			if got := b.TotalAlloc - a.TotalAlloc; got > 64<<10+4*uint64(len(blob)) {
				t.Fatalf("parsing a %d-byte blob allocated %d bytes", len(blob), got)
			}
			if err != nil {
				continue
			}
			if meta := sealedMeta(sg); !bytes.Equal(meta, blob[:len(meta)]) {
				t.Fatalf("parsed metadata does not re-encode to the blob's")
			}
			sg.blob = blob
			bc, dst := newBlockCache(), []*storage.PageData{new(storage.PageData)}
			for i := int64(0); i < sg.slots; i++ {
				sg.readPages(sg.base+i, 1, dst, bc)
			}
		}
	})
}

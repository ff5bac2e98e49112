package wire

// Replication frame bodies. The stream a replica opens
// with ReqReplSub is the one place the protocol departs from its
// one-request-at-a-time rule: after the subscribe, the server pushes
// RespReplBoot / RespReplDelta / RespReplViewDDL frames indefinitely
// while the replica sends ReqReplAck frames back on the same
// connection (full duplex). A snapshot's SnapIds row rides the final
// RespReplDelta frame of the commit that declared it.

// PageSize is the fixed page size replicated page images use. It must
// equal storage.PageSize; internal/repl asserts this at compile time.
const PageSize = 4096

// Bootstrap chunk kinds carried by RespReplBoot. A bootstrap is a
// sequence of chunks: Meta, then any number of Pages / Pagelog /
// Maplog / Annots chunks, then Done. A resuming replica instead
// receives a single Resume chunk and then deltas.
const (
	BootMeta    byte = iota // store LSN, page geometry, snapshot metadata
	BootPages   byte = iota // batch of current-state page images
	BootPagelog byte = iota // batch of Pagelog page images
	BootMaplog  byte = iota // batch of Maplog entries
	BootAnnots  byte = iota // batch of SnapIds rows
	BootDone    byte = iota // bootstrap complete
	BootResume  byte = iota // no bootstrap; stream resumes past last applied
	BootSegment byte = iota // one sealed Pagelog segment blob, verbatim
	BootViews   byte = iota // batch of retro-view definitions
)

// EncodeBootViews appends a BootViews chunk body: the primary's current
// retro-view definitions, shipped as create-form ViewDDL events so a
// bootstrapping replica installs them before the delta stream starts.
func EncodeBootViews(e *Enc, views []ViewDDL) {
	e.Uvarint(uint64(len(views)))
	for _, v := range views {
		EncodeViewDDL(e, v)
	}
}

// DecodeBootViews reads a BootViews chunk body.
func DecodeBootViews(d *Dec) []ViewDDL {
	n := d.Len()
	out := make([]ViewDDL, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, DecodeViewDDL(d))
	}
	return out
}

// ViewSubscribe is the ReqViewSub body. The server replies with the
// view's column header as a first RespViewBatch (possibly empty), then
// pushes one RespViewBatch per materialized refresh until the client
// closes the connection; like the replication stream, a subscription
// takes the connection over.
type ViewSubscribe struct {
	View string
}

// EncodeViewSubscribe appends a ViewSubscribe body.
func EncodeViewSubscribe(e *Enc, s ViewSubscribe) {
	e.String(s.View)
}

// DecodeViewSubscribe reads a ViewSubscribe body.
func DecodeViewSubscribe(d *Dec) ViewSubscribe {
	return ViewSubscribe{View: d.String()}
}

// Replication roles reported by HorizonInfo / ReplStats.
const (
	RolePrimary byte = 1
	RoleReplica byte = 2
)

// ReplSubscribe is the ReqReplSub body.
type ReplSubscribe struct {
	ID          string // replica identity, for the primary's registry
	LastApplied uint64 // last fully applied snapshot; 0 = fresh, bootstrap
}

// EncodeReplSubscribe appends a ReplSubscribe body.
func EncodeReplSubscribe(e *Enc, s ReplSubscribe) {
	e.String(s.ID)
	e.Uvarint(s.LastApplied)
}

// DecodeReplSubscribe reads a ReplSubscribe body.
func DecodeReplSubscribe(d *Dec) ReplSubscribe {
	return ReplSubscribe{ID: d.String(), LastApplied: d.Uvarint()}
}

// ReplBootMeta is the BootMeta chunk body: everything the replica needs
// to size its state before the bulk chunks arrive.
type ReplBootMeta struct {
	LSN           uint64   // commit LSN of the shipped state
	NumPages      uint64   // page slots ever allocated (including free)
	Free          []uint32 // free-list page ids
	LastSnap      uint64   // highest declared snapshot
	SnapLSNs      []uint64 // snapLSN[s-1] = commit LSN of snapshot s
	PagelogPages  int64    // Pagelog length in pages
	MaplogEntries uint64   // level-0 Maplog entries shipped in BootMaplog chunks
}

// EncodeReplBootMeta appends a ReplBootMeta body (after the kind byte).
func EncodeReplBootMeta(e *Enc, m ReplBootMeta) {
	e.Uvarint(m.LSN)
	e.Uvarint(m.NumPages)
	e.Uvarint(uint64(len(m.Free)))
	for _, id := range m.Free {
		e.Uvarint(uint64(id))
	}
	e.Uvarint(m.LastSnap)
	e.Uvarint(uint64(len(m.SnapLSNs)))
	for _, l := range m.SnapLSNs {
		e.Uvarint(l)
	}
	e.Varint(m.PagelogPages)
	e.Uvarint(m.MaplogEntries)
}

// DecodeReplBootMeta reads a ReplBootMeta body.
func DecodeReplBootMeta(d *Dec) ReplBootMeta {
	var m ReplBootMeta
	m.LSN = d.Uvarint()
	m.NumPages = d.Uvarint()
	n := d.Len()
	m.Free = make([]uint32, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.Free = append(m.Free, uint32(d.Uvarint()))
	}
	m.LastSnap = d.Uvarint()
	n = d.Len()
	m.SnapLSNs = make([]uint64, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		m.SnapLSNs = append(m.SnapLSNs, d.Uvarint())
	}
	m.PagelogPages = d.Varint()
	m.MaplogEntries = d.Uvarint()
	return m
}

// ReplPageImage is one page image in a BootPages chunk or a delta's
// post-image list. Data nil means the page is freed/absent at that
// point; present pages carry exactly PageSize bytes.
type ReplPageImage struct {
	ID   uint32
	Data []byte
}

// EncodeReplPages appends a page-image list.
func EncodeReplPages(e *Enc, pages []ReplPageImage) {
	e.Uvarint(uint64(len(pages)))
	for _, p := range pages {
		e.Uvarint(uint64(p.ID))
		if p.Data == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.B = append(e.B, p.Data[:PageSize]...)
	}
}

// DecodeReplPages reads a page-image list. Page data aliases the frame
// payload; callers copy what they retain.
func DecodeReplPages(d *Dec) []ReplPageImage {
	n := d.Len()
	out := make([]ReplPageImage, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		p := ReplPageImage{ID: uint32(d.Uvarint())}
		if d.Bool() && d.Err() == nil {
			if len(d.B) < PageSize {
				d.fail()
				return nil
			}
			p.Data = d.B[:PageSize]
			d.B = d.B[PageSize:]
		}
		out = append(out, p)
	}
	return out
}

// EncodeReplPagelogChunk appends a BootPagelog chunk body: the starting
// Pagelog offset followed by consecutive page images.
func EncodeReplPagelogChunk(e *Enc, off int64, pages [][]byte) {
	e.Varint(off)
	e.Uvarint(uint64(len(pages)))
	for _, p := range pages {
		e.B = append(e.B, p[:PageSize]...)
	}
}

// DecodeReplPagelogChunk reads a BootPagelog chunk body. Page data
// aliases the frame payload.
func DecodeReplPagelogChunk(d *Dec) (off int64, pages [][]byte) {
	off = d.Varint()
	n := d.Len()
	pages = make([][]byte, 0, min(n, len(d.B)/PageSize))
	for i := 0; i < n; i++ {
		if len(d.B) < PageSize {
			d.fail()
			return 0, nil
		}
		pages = append(pages, d.B[:PageSize])
		d.B = d.B[PageSize:]
	}
	return off, pages
}

// EncodeReplSegmentChunk appends a BootSegment chunk body: the logical
// base offset and page count the segment covers, then its encoded blob
// verbatim — the replica installs it without decompressing, so the cold
// tier ships at its compressed size and lands byte-identical.
func EncodeReplSegmentChunk(e *Enc, base, pages int64, blob []byte) {
	e.Varint(base)
	e.Varint(pages)
	e.Uvarint(uint64(len(blob)))
	e.B = append(e.B, blob...)
}

// DecodeReplSegmentChunk reads a BootSegment chunk body. The blob
// aliases the frame payload; callers copy what they retain.
func DecodeReplSegmentChunk(d *Dec) (base, pages int64, blob []byte) {
	base = d.Varint()
	pages = d.Varint()
	n := d.Len()
	if d.Err() != nil {
		return 0, 0, nil
	}
	blob = d.B[:n]
	d.B = d.B[n:]
	return base, pages, blob
}

// ReplMapEntry is one level-0 Maplog entry in a BootMaplog chunk.
type ReplMapEntry struct {
	Snap uint64
	Page uint32
	Off  int64
}

// EncodeReplMapEntries appends a Maplog entry list.
func EncodeReplMapEntries(e *Enc, entries []ReplMapEntry) {
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.Uvarint(en.Snap)
		e.Uvarint(uint64(en.Page))
		e.Varint(en.Off)
	}
}

// DecodeReplMapEntries reads a Maplog entry list.
func DecodeReplMapEntries(d *Dec) []ReplMapEntry {
	n := d.Len()
	out := make([]ReplMapEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, ReplMapEntry{
			Snap: d.Uvarint(),
			Page: uint32(d.Uvarint()),
			Off:  d.Varint(),
		})
	}
	return out
}

// ReplAnnot is one SnapIds row: the logical registration of a declared
// snapshot's timestamp and label (paper §3's SnapIds table). Shipped
// logically because SnapIds lives in the replica's own non-snapshotable
// side store.
type ReplAnnot struct {
	Snap  uint64
	TS    string
	Label string
}

// EncodeReplAnnots appends a list of SnapIds rows (BootAnnots chunk body).
func EncodeReplAnnots(e *Enc, anns []ReplAnnot) {
	e.Uvarint(uint64(len(anns)))
	for _, a := range anns {
		e.Uvarint(a.Snap)
		e.String(a.TS)
		e.String(a.Label)
	}
}

// DecodeReplAnnots reads a list of SnapIds rows.
func DecodeReplAnnots(d *Dec) []ReplAnnot {
	n := d.Len()
	out := make([]ReplAnnot, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, ReplAnnot{Snap: d.Uvarint(), TS: d.String(), Label: d.String()})
	}
	return out
}

// ReplDelta is one replicated commit (the RespReplDelta body): the
// commit's post-images, from which the replica's own commit path
// derives the Retro captures. Large commits are split across frames:
// every frame repeats LSN, and only the frame with Partial == false
// carries the commit's Declare/SnapID/PlEnd/Annot and completes it. The
// replica merges Partial frames and applies nothing until the final
// frame of the final commit of a snapshot group arrives — the
// snapshot's SnapIds row included — so its horizon moves only between
// complete snapshots.
type ReplDelta struct {
	LSN     uint64
	Partial bool            // more frames follow for the same commit
	Declare bool            // commit was COMMIT WITH SNAPSHOT (final frame only)
	SnapID  uint64          // declared snapshot id when Declare
	PlEnd   int64           // primary Pagelog size after the commit (final frame only)
	Annot   *ReplAnnot      // SnapIds row of SnapID, if the declaration carried one (Snap not encoded)
	Pages   []ReplPageImage // post-images; Data nil = freed
}

// EncodeReplDelta appends a ReplDelta body.
func EncodeReplDelta(e *Enc, rd ReplDelta) {
	e.Uvarint(rd.LSN)
	e.Bool(rd.Partial)
	e.Bool(rd.Declare)
	e.Uvarint(rd.SnapID)
	e.Varint(rd.PlEnd)
	e.Bool(rd.Annot != nil)
	if rd.Annot != nil {
		e.String(rd.Annot.TS)
		e.String(rd.Annot.Label)
	}
	EncodeReplPages(e, rd.Pages)
}

// DecodeReplDelta reads a ReplDelta body. Page data aliases the frame
// payload.
func DecodeReplDelta(d *Dec) ReplDelta {
	var rd ReplDelta
	rd.LSN = d.Uvarint()
	rd.Partial = d.Bool()
	rd.Declare = d.Bool()
	rd.SnapID = d.Uvarint()
	rd.PlEnd = d.Varint()
	if d.Bool() {
		rd.Annot = &ReplAnnot{Snap: rd.SnapID, TS: d.String(), Label: d.String()}
	}
	rd.Pages = DecodeReplPages(d)
	return rd
}

// ReplAck is the ReqReplAck body a replica sends after applying a
// complete snapshot group.
type ReplAck struct {
	Snap  uint64 // applied snapshot horizon
	LSN   uint64 // applied commit LSN
	Bytes uint64 // stream bytes received so far (frame payloads)
}

// EncodeReplAck appends a ReplAck body.
func EncodeReplAck(e *Enc, a ReplAck) {
	e.Uvarint(a.Snap)
	e.Uvarint(a.LSN)
	e.Uvarint(a.Bytes)
}

// DecodeReplAck reads a ReplAck body.
func DecodeReplAck(d *Dec) ReplAck {
	return ReplAck{Snap: d.Uvarint(), LSN: d.Uvarint(), Bytes: d.Uvarint()}
}

// HorizonInfo is the RespHorizon body: which role the server plays and
// how far its applied state reaches. Cluster clients use it to route
// retrospective queries to replicas whose horizon covers the snapshots
// they need.
type HorizonInfo struct {
	Role    byte   // RolePrimary or RoleReplica
	Horizon uint64 // last fully applied (or declared) snapshot
	LSN     uint64 // main-store commit LSN
	Primary string // replica only: address of the primary, for redirects
}

// EncodeHorizonInfo appends a HorizonInfo body.
func EncodeHorizonInfo(e *Enc, h HorizonInfo) {
	e.Byte(h.Role)
	e.Uvarint(h.Horizon)
	e.Uvarint(h.LSN)
	e.String(h.Primary)
}

// DecodeHorizonInfo reads a HorizonInfo body.
func DecodeHorizonInfo(d *Dec) HorizonInfo {
	return HorizonInfo{
		Role:    d.Byte(),
		Horizon: d.Uvarint(),
		LSN:     d.Uvarint(),
		Primary: d.String(),
	}
}

// ReplicaStat is one replica's row in a primary's ReplStats.
type ReplicaStat struct {
	ID        string
	Addr      string
	Connected bool
	AckedSnap uint64 // last snapshot the replica acknowledged
	AckedLSN  uint64
	SentBytes uint64 // frame payload bytes shipped on the stream
}

// ReplStats is the RespReplStats body. Role selects which half is
// meaningful: a primary fills Replicas, a replica fills the apply-side
// counters.
type ReplStats struct {
	Role    byte
	Horizon uint64
	LSN     uint64
	Primary string // replica only

	// Primary side: one row per replication stream ever registered.
	Replicas []ReplicaStat

	// Replica side.
	BytesReceived    uint64
	DeltasApplied    uint64
	SnapshotsApplied uint64
	Bootstraps       uint64
	Reconnects       uint64
	LastError        string
}

// EncodeReplStats appends a ReplStats body.
func EncodeReplStats(e *Enc, s ReplStats) {
	e.Byte(s.Role)
	e.Uvarint(s.Horizon)
	e.Uvarint(s.LSN)
	e.String(s.Primary)
	e.Uvarint(uint64(len(s.Replicas)))
	for _, r := range s.Replicas {
		e.String(r.ID)
		e.String(r.Addr)
		e.Bool(r.Connected)
		e.Uvarint(r.AckedSnap)
		e.Uvarint(r.AckedLSN)
		e.Uvarint(r.SentBytes)
	}
	e.Uvarint(s.BytesReceived)
	e.Uvarint(s.DeltasApplied)
	e.Uvarint(s.SnapshotsApplied)
	e.Uvarint(s.Bootstraps)
	e.Uvarint(s.Reconnects)
	e.String(s.LastError)
}

// DecodeReplStats reads a ReplStats body.
func DecodeReplStats(d *Dec) ReplStats {
	var s ReplStats
	s.Role = d.Byte()
	s.Horizon = d.Uvarint()
	s.LSN = d.Uvarint()
	s.Primary = d.String()
	n := d.Len()
	s.Replicas = make([]ReplicaStat, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Replicas = append(s.Replicas, ReplicaStat{
			ID:        d.String(),
			Addr:      d.String(),
			Connected: d.Bool(),
			AckedSnap: d.Uvarint(),
			AckedLSN:  d.Uvarint(),
			SentBytes: d.Uvarint(),
		})
	}
	s.BytesReceived = d.Uvarint()
	s.DeltasApplied = d.Uvarint()
	s.SnapshotsApplied = d.Uvarint()
	s.Bootstraps = d.Uvarint()
	s.Reconnects = d.Uvarint()
	s.LastError = d.String()
	return s
}

package retro

import "sync/atomic"

// Stats holds the snapshot system's global counters.
type Stats struct {
	Snapshots     atomic.Uint64 // snapshots declared
	PagelogWrites atomic.Uint64 // pre-states captured (COW)
	PagelogReads  atomic.Uint64 // cache-missing Pagelog reads
	CacheHits     atomic.Uint64 // snapshot cache hits
	SPTBuilds     atomic.Uint64 // snapshot page tables built one at a time

	// Batch SPT construction (OpenSnapshotSet).
	SPTBatchBuilds  atomic.Uint64 // one-sweep batch builds performed
	BatchSnapshots  atomic.Uint64 // SPTs derived by batch builds
	BatchMapScanned atomic.Uint64 // Maplog entries scanned by batch builds

	// Clustered Pagelog prefetch (SnapshotReader.PrefetchAsync / FetchBatch).
	ClusteredReads atomic.Uint64 // coalesced read runs issued
	ClusteredPages atomic.Uint64 // pages fetched via clustered runs

	// Per-member delta page sets (OpenSnapshotSet, read-set pruning).
	DeltaBuilds atomic.Uint64 // batch builds that retained delta sets
	DeltaPages  atomic.Uint64 // delta pages retained across those builds

	// Device model (device.go): physical command-level view of the
	// Pagelog. DeviceReads counts commands serviced (a clustered run is
	// one command); OverlappedReads counts commands that were in service
	// concurrently with at least one other; DeviceBusyNS accumulates
	// per-command service time in nanoseconds.
	DeviceReads     atomic.Uint64
	OverlappedReads atomic.Uint64
	DeviceBusyNS    atomic.Uint64

	// DeviceFlushes counts fsync-equivalent commit flushes: one per
	// commit group (group commit on) or one per commit (off). With
	// Commits it proves the batching the group-commit bench claims.
	DeviceFlushes atomic.Uint64

	// GroupFlushesSkipped counts commit groups whose device flush was
	// elided because the group appended nothing new to the Pagelog's
	// hot tail — every page it touched was already captured since the
	// last snapshot declaration, so its pre-states live in already-
	// durable archived ranges and the tail backing is byte-identical
	// to its last flushed state.
	GroupFlushesSkipped atomic.Uint64

	// DeviceBytesRead accumulates the bytes device commands physically
	// transferred: PageSize per flat/tail page, the compressed block
	// length per cold block inflated, zero on a block-cache hit. The
	// logical counters above are tier-oblivious; this one is where
	// compression and dedup show up.
	DeviceBytesRead atomic.Uint64

	// Tiered-Pagelog compactor (compactor.go). SegmentSeals/SealedPages
	// count sealing work; RetentionDrops/RetentionDroppedPages count
	// sealed segments unlinked whole after TruncateBefore;
	// SegBlockHits counts cold reads served from the decompressed-block
	// cache without touching the backing.
	SegmentSeals          atomic.Uint64
	SealedPages           atomic.Uint64
	RetentionDrops        atomic.Uint64
	RetentionDroppedPages atomic.Uint64
	SegBlockHits          atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Snapshots     uint64
	PagelogWrites uint64
	PagelogReads  uint64
	CacheHits     uint64
	SPTBuilds     uint64

	SPTBatchBuilds  uint64
	BatchSnapshots  uint64
	BatchMapScanned uint64

	ClusteredReads uint64
	ClusteredPages uint64

	DeltaBuilds uint64
	DeltaPages  uint64

	DeviceReads         uint64
	OverlappedReads     uint64
	DeviceBusyNS        uint64
	DeviceFlushes       uint64
	GroupFlushesSkipped uint64
	DeviceQueueDepth    uint64
	DeviceBytesRead     uint64

	// Tiered Pagelog: compactor counters …
	SegmentSeals          uint64
	SealedPages           uint64
	RetentionDrops        uint64
	RetentionDroppedPages uint64
	SegBlockHits          uint64

	// … and point-in-time tier gauges, filled by System.Stats rather
	// than accumulated: current sealed-segment count, logical pages per
	// tier, and the archive's logical footprint against the bytes its
	// backing actually holds (compression ratio = logical/disk).
	Segments            uint64
	SegmentPages        uint64
	TailPages           uint64
	PagelogLogicalBytes uint64
	PagelogDiskBytes    uint64
}

// Reset zeroes all counters without disturbing the Pagelog, Maplog,
// snapshot cache, or any open readers: experiments can zero the
// accounting between phases without reopening the store.
func (s *Stats) Reset() {
	s.Snapshots.Store(0)
	s.PagelogWrites.Store(0)
	s.PagelogReads.Store(0)
	s.CacheHits.Store(0)
	s.SPTBuilds.Store(0)
	s.SPTBatchBuilds.Store(0)
	s.BatchSnapshots.Store(0)
	s.BatchMapScanned.Store(0)
	s.ClusteredReads.Store(0)
	s.ClusteredPages.Store(0)
	s.DeltaBuilds.Store(0)
	s.DeltaPages.Store(0)
	s.DeviceReads.Store(0)
	s.OverlappedReads.Store(0)
	s.DeviceBusyNS.Store(0)
	s.DeviceFlushes.Store(0)
	s.GroupFlushesSkipped.Store(0)
	s.DeviceBytesRead.Store(0)
	s.SegmentSeals.Store(0)
	s.SealedPages.Store(0)
	s.RetentionDrops.Store(0)
	s.RetentionDroppedPages.Store(0)
	s.SegBlockHits.Store(0)
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Snapshots:           s.Snapshots.Load(),
		PagelogWrites:       s.PagelogWrites.Load(),
		PagelogReads:        s.PagelogReads.Load(),
		CacheHits:           s.CacheHits.Load(),
		SPTBuilds:           s.SPTBuilds.Load(),
		SPTBatchBuilds:      s.SPTBatchBuilds.Load(),
		BatchSnapshots:      s.BatchSnapshots.Load(),
		BatchMapScanned:     s.BatchMapScanned.Load(),
		ClusteredReads:      s.ClusteredReads.Load(),
		ClusteredPages:      s.ClusteredPages.Load(),
		DeltaBuilds:         s.DeltaBuilds.Load(),
		DeltaPages:          s.DeltaPages.Load(),
		DeviceReads:         s.DeviceReads.Load(),
		OverlappedReads:     s.OverlappedReads.Load(),
		DeviceBusyNS:        s.DeviceBusyNS.Load(),
		DeviceFlushes:       s.DeviceFlushes.Load(),
		GroupFlushesSkipped: s.GroupFlushesSkipped.Load(),
		DeviceBytesRead:     s.DeviceBytesRead.Load(),

		SegmentSeals:          s.SegmentSeals.Load(),
		SealedPages:           s.SealedPages.Load(),
		RetentionDrops:        s.RetentionDrops.Load(),
		RetentionDroppedPages: s.RetentionDroppedPages.Load(),
		SegBlockHits:          s.SegBlockHits.Load(),
	}
}

package retro

import "rql/internal/obs"

// Stats declares the snapshot system's metrics (see obs.Set): each
// field is the live atomic its call sites increment, and its tags are
// the one place its exported name and help text are written.
type Stats struct {
	Snapshots     obs.Counter `metric:"retro_snapshots" help:"Snapshots declared."`
	PagelogWrites obs.Counter `metric:"retro_pagelog_writes" help:"Page pre-states captured into the Pagelog (copy-on-write)."`
	PagelogReads  obs.Counter `metric:"retro_pagelog_reads" help:"Billed Pagelog page reads (snapshot-cache misses)."`
	CacheHits     obs.Counter `metric:"retro_cache_hits" help:"Snapshot pages served from the cache."`
	SPTBuilds     obs.Counter `metric:"retro_spt_builds" help:"Snapshot page tables built one at a time."`
	PagelogPages  obs.Gauge   `metric:"retro_pagelog_pages" help:"Archived page pre-states in the Pagelog."`
	CachedPages   obs.Gauge   `metric:"retro_cached_pages" help:"Pages held by the snapshot cache."`

	// Batch SPT construction (OpenSnapshotSet).
	SPTBatchBuilds  obs.Counter `metric:"retro_spt_batch_builds" help:"One-sweep batch SPT builds."`
	BatchSnapshots  obs.Counter `metric:"retro_batch_snapshots" help:"SPTs derived by batch builds."`
	BatchMapScanned obs.Counter `metric:"retro_batch_map_scanned" help:"Maplog entries scanned by batch builds."`

	// Per-member delta page sets (OpenSnapshotSet, read-set pruning).
	DeltaBuilds obs.Counter `metric:"retro_delta_builds" help:"Batch builds that retained per-member delta sets."`
	DeltaPages  obs.Counter `metric:"retro_delta_pages" help:"Delta pages retained across those builds."`

	// Physical view of the Pagelog: one device read per demand miss that
	// was not coalesced (System.demandRead), and the time spent in it.
	DeviceReads  obs.Counter `metric:"device_reads" help:"Device read commands serviced."`
	DeviceBusyNS obs.Counter `metric:"device_busy_ns" help:"Nanoseconds spent in Pagelog demand reads."`

	// DeviceFlushes counts fsync-equivalent commit flushes, one per
	// commit group that appended to the Pagelog's hot tail;
	// GroupFlushesSkipped counts the groups whose flush was elided
	// because every page they touched was already captured since the
	// last declaration, so the tail backing is byte-identical to its
	// last flushed state. Together they are one decision per group.
	DeviceFlushes       obs.Counter `metric:"device_flushes" help:"Device flush round-trips."`
	GroupFlushesSkipped obs.Counter `metric:"group_flushes_skipped" help:"Commit groups that skipped the hot-tail flush."`

	// DeviceBytesRead is where compression and dedup show up: PageSize
	// per flat/tail page, the compressed block length per cold block
	// inflated, zero on a block-cache hit.
	DeviceBytesRead obs.Counter `metric:"device_bytes_read" help:"Bytes device commands physically transferred."`

	// Tiered Pagelog: point-in-time tier shape and footprint (their
	// ratio is the compression+dedup factor), then compactor activity.
	Segments              obs.Gauge   `metric:"retro_segments" help:"Sealed Pagelog segments."`
	SegmentPages          obs.Gauge   `metric:"retro_segment_pages" help:"Logical pages held in sealed segments."`
	TailPages             obs.Gauge   `metric:"retro_tail_pages" help:"Pages in the Pagelog hot tail."`
	PagelogLogicalBytes   obs.Gauge   `metric:"retro_pagelog_logical_bytes" help:"Logical size of the archive."`
	PagelogDiskBytes      obs.Gauge   `metric:"retro_pagelog_disk_bytes" help:"Bytes the archive's backing holds after dedup and compression."`
	SegmentSeals          obs.Counter `metric:"retro_segment_seals" help:"Segments sealed by the compactor."`
	SealedPages           obs.Counter `metric:"retro_sealed_pages" help:"Pages sealed into segments."`
	RetentionDrops        obs.Counter `metric:"retro_retention_drops" help:"Sealed segments dropped whole by retention."`
	RetentionDroppedPages obs.Counter `metric:"retro_retention_dropped_pages" help:"Pages in retention-dropped segments."`
	SegBlockHits          obs.Counter `metric:"retro_seg_block_hits" help:"Cold reads served from the decompressed-block cache."`
}

// StatsSnapshot is a point-in-time copy of Stats, filled by field name.
type StatsSnapshot struct {
	Snapshots     uint64
	PagelogWrites uint64
	PagelogReads  uint64
	CacheHits     uint64
	SPTBuilds     uint64

	SPTBatchBuilds  uint64
	BatchSnapshots  uint64
	BatchMapScanned uint64

	DeltaBuilds uint64
	DeltaPages  uint64

	DeviceReads         uint64
	DeviceBusyNS        uint64
	DeviceFlushes       uint64
	GroupFlushesSkipped uint64
	DeviceBytesRead     uint64

	SegmentSeals          uint64
	SealedPages           uint64
	RetentionDrops        uint64
	RetentionDroppedPages uint64
	SegBlockHits          uint64

	Segments            uint64
	SegmentPages        uint64
	TailPages           uint64
	PagelogLogicalBytes uint64
	PagelogDiskBytes    uint64
}

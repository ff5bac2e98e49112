package retro

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rql/internal/obs"
	"rql/internal/storage"
)

// Options configures the snapshot system.
type Options struct {
	// PagelogPath backs the Pagelog with a file; empty keeps it in
	// memory (tests and examples).
	PagelogPath string
	// CachePages is the snapshot page cache capacity in pages.
	// Defaults to 16384 (64 MB of 4 KiB pages); 0 uses the default,
	// negative disables caching.
	CachePages int
	// SkipFactor is the Skippy skip-merge fanout. Defaults to 4.
	SkipFactor int
	// SimulatedReadLatency models the cost of one Pagelog read that
	// misses the snapshot cache (the paper's SSD). It is accounted,
	// never slept; see Counters.ModeledIOTime.
	SimulatedReadLatency time.Duration
	// Compaction configures the tiered Pagelog's background compactor
	// (see compactor.go). The zero value leaves the Pagelog flat —
	// every counter series and every byte on disk identical to a build
	// without compaction support.
	Compaction CompactionOptions
}

// DefaultReadLatency approximates one 4 KiB random read from the SATA
// SSD of the paper's testbed (~100µs). With it, the I/O-intensive
// queries of §5.1 are I/O-dominated exactly as in the paper's Figure 8.
const DefaultReadLatency = 100 * time.Microsecond

// System is the Retro snapshot system. It installs itself as the
// store's commit hook; thereafter COMMIT WITH SNAPSHOT declares
// snapshots and every commit captures the pre-states the declared
// snapshots need (page-level copy-on-write).
type System struct {
	store *storage.Store

	// pl is the Pagelog. Assigned once in New; an offset it hands out
	// names the same pre-state for the life of the system (sealing moves
	// pages between tiers, never between offsets).
	pl *pagelog

	// mu guards the Maplog and the fields below it. SPT builds and the
	// delta oracle only read the Maplog, so they share it: concurrent
	// opens and prune checks do not wait on one another. (The segment
	// tables opens publish are atomic slots: see tableSlot.)
	mu          sync.RWMutex
	ml          *maplog
	lastCapture map[storage.PageID]SnapshotID
	snapLSN     []uint64 // snapLSN[s-1] = commit LSN of snapshot s
	closed      bool
	// failed is the sticky error of a system whose Pagelog diverged from
	// the store (a lost group flush). Commits and opens return it; Close
	// still tears down. Guarded by mu.
	failed error

	cache      *pageCache
	simLatency time.Duration

	// sealMu serializes seals with each other and with Close.
	// Lock order: sealMu → s.mu → pl.mu.
	sealMu      sync.Mutex
	copts       CompactionOptions
	compactStop chan struct{} // non-nil while the background compactor runs
	compactDone chan struct{}

	// missing coalesces concurrent demand misses of the same Pagelog
	// offset into one Pagelog read (see demandRead). Guarded by
	// missMu, never by mu.
	missMu  sync.Mutex
	missing map[int64]*missCall

	// observer, when set, sees every main-store commit group as a
	// batch of CommitDeltas (replication primary). Invoked under s.mu
	// on the commit path; a serial caller's commit is a batch of one.
	observer func([]CommitDelta)

	// staging is true while a commit group is open (BeginGroup..
	// EndGroup): s.mu is held by the group, Pagelog appends buffer
	// until the group flush, and observer deltas collect in
	// groupDeltas. Only the writer-semaphore holder opens groups and
	// calls Committing, so the flag needs no extra synchronization.
	staging     bool
	groupDeltas []CommitDelta

	// unflushedTail counts hot-tail pages appended by group flushes
	// whose fsync-equivalent device round-trip has not happened yet.
	// GroupDurable runs after the store mutex is released — the next
	// group can be staging concurrently — so the count is atomic: each
	// EndGroup adds its appended-page count, each GroupDurable swaps the
	// total to zero. A zero swap means every page this group archived
	// was deduplicated into already-flushed ranges (captured since the
	// last declaration), so the hot tail's backing is byte-identical to
	// its last flushed state and the device flush is skipped.
	unflushedTail atomic.Int64

	stats   Stats
	metrics *obs.Set // over stats
}

// missCall is one in-service demand read that later demand misses of
// the same offset can join instead of issuing a duplicate read.
type missCall struct {
	done chan struct{} // closed once data/err are set
	data *storage.PageData
	err  error
}

// New creates a snapshot system over store and registers it as the
// store's commit hook.
func New(store *storage.Store, opts Options) (*System, error) {
	if opts.PagelogPath == "" {
		return newSystem(store, opts, newMemFS(), "pagelog")
	}
	return newSystem(store, opts, osFS{filepath.Dir(opts.PagelogPath)}, filepath.Base(opts.PagelogPath))
}

// newSystem is New with the Pagelog's files named name in dir.
func newSystem(store *storage.Store, opts Options, dir vfs, name string) (*System, error) {
	pl, err := newPagelog(dir, name)
	if err != nil {
		return nil, err
	}
	capacity := opts.CachePages
	if capacity == 0 {
		capacity = 16384
	}
	sys := &System{
		store:       store,
		pl:          pl,
		ml:          newMaplog(opts.SkipFactor),
		lastCapture: make(map[storage.PageID]SnapshotID),
		cache:       newPageCache(capacity),
		missing:     make(map[int64]*missCall),
		simLatency:  opts.SimulatedReadLatency,
		copts:       opts.Compaction.withDefaults(),
	}
	sys.metrics = obs.NewSet(&sys.stats)
	store.SetCommitHook(sys)
	if sys.copts.Enabled {
		sys.compactStop = make(chan struct{})
		sys.compactDone = make(chan struct{})
		go sys.compactorLoop()
	}
	return sys, nil
}

// Close releases the Pagelog, waiting out reads in service. The system
// must not be used afterwards. A failed system (see EndGroup) is torn
// down like any other.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.compactStop != nil {
		// Stop the background compactor before tearing down the Pagelog
		// it seals into; sealMu acquisition below then guarantees no
		// seal is mid-flight when the log closes.
		close(s.compactStop)
		<-s.compactDone
	}
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pl.close()
}

// Committing implements storage.CommitHook: capture pre-states for the
// latest declared snapshot (first-modification-wins) and, when declare
// is set, assign the next snapshot id. Inside a commit group
// (BeginGroup..EndGroup) s.mu is already held by the group and appends
// stage until the group flush; outside one (a direct call, e.g. from a
// unit test) it locks s.mu itself and the effects land immediately.
func (s *System) Committing(dirty []storage.DirtyPage, declare bool, reg any, newLSN uint64) (uint64, error) {
	if !s.staging {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.committingLocked(dirty, declare, reg, newLSN)
}

// committingLocked is Committing's body. Callers hold s.mu.
func (s *System) committingLocked(dirty []storage.DirtyPage, declare bool, reg any, newLSN uint64) (uint64, error) {
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	pl := s.pl
	var delta *CommitDelta
	if s.observer != nil {
		delta = &CommitDelta{LSN: newLSN, PlBase: pl.size()}
	}
	last := s.ml.lastSnap()
	if last >= 1 {
		for _, d := range dirty {
			if d.Pre == nil {
				continue // page did not exist as of any snapshot
			}
			if s.lastCapture[d.ID] >= last {
				continue // already captured since the latest declaration
			}
			off, err := pl.append(d.Pre)
			if err != nil {
				return 0, err
			}
			s.ml.append(last, d.ID, off)
			s.lastCapture[d.ID] = last
			s.stats.PagelogWrites.Add(1)
			if delta != nil {
				delta.Captures = append(delta.Captures, ReplCapture{Page: d.ID, Data: d.Pre})
			}
		}
		if delta != nil && len(delta.Captures) > 0 {
			delta.SnapTag = last
		}
	}
	var snapID uint64
	if declare {
		id := s.ml.declare()
		s.snapLSN = append(s.snapLSN, newLSN)
		s.stats.Snapshots.Add(1)
		snapID = uint64(id)
	}
	if delta != nil {
		delta.Declare = declare
		delta.SnapID = SnapshotID(snapID)
		delta.Reg = reg
		for _, d := range dirty {
			delta.Pages = append(delta.Pages, storage.ReplPage{ID: d.ID, Data: d.New})
			if d.New == nil {
				delta.Freed = append(delta.Freed, d.ID)
			}
		}
		if s.staging {
			s.groupDeltas = append(s.groupDeltas, *delta)
		} else {
			s.observer([]CommitDelta{*delta})
		}
	}
	return snapID, nil
}

// BeginGroup implements storage.GroupCommitHook: it takes the system
// mutex for the whole commit group and switches the Pagelog to staged
// appends, so the group's captures flush as one backing write and no
// reader can observe a Maplog entry whose Pagelog offset is not yet
// written.
func (s *System) BeginGroup() {
	s.mu.Lock()
	s.staging = true
	s.pl.beginStage()
}

// EndGroup flushes the group's staged Pagelog appends with one backing
// write, delivers the group's commit deltas to the observer as one
// batch, and releases the system mutex taken by BeginGroup.
func (s *System) EndGroup() {
	appended, err := s.pl.flushStaged()
	if err != nil && s.failed == nil {
		// The group's page versions are already installed in the
		// store; with the archive write lost the snapshot log has
		// diverged, so fail the system rather than serve wrong
		// pre-states later.
		s.failed = fmt.Errorf("retro: system failed: %w", err)
	}
	s.unflushedTail.Add(int64(appended))
	s.staging = false
	if s.observer != nil && len(s.groupDeltas) > 0 {
		s.observer(s.groupDeltas)
	}
	s.groupDeltas = nil
	s.mu.Unlock()
}

// GroupDurable implements storage.GroupCommitHook: one flush decision
// for the whole group, however many commits it carried, counted as a
// DeviceFlush (the Pagelog is memory- or page-cache-backed, so the flush
// itself is not performed). Called after the store mutex is released,
// so the next group stages while this one flushes.
//
// Archived-only groups skip the flush: when the group (and any group
// completed since the previous flush) appended nothing to the Pagelog's
// hot tail — every page it touched was already captured since the last
// snapshot declaration, i.e. its pre-states live in already-durable
// archived ranges — the tail backing is unchanged since its last flush,
// so an fsync of it would make nothing new durable. Crash-recovery
// invariants hold because a skipped flush implies byte-identical tail
// content to the last flushed state. Counted as GroupFlushesSkipped.
func (s *System) GroupDurable(commits int) {
	if s.unflushedTail.Swap(0) == 0 {
		s.stats.GroupFlushesSkipped.Add(1)
		return
	}
	s.stats.DeviceFlushes.Add(1)
}

// FlushDecisions implements storage.GroupCommitHook.
func (s *System) FlushDecisions() uint64 {
	return s.stats.DeviceFlushes.Load() + s.stats.GroupFlushesSkipped.Load()
}

// usableLocked returns the error that stops a closed or failed system
// from committing or opening readers. Callers hold s.mu (either mode).
func (s *System) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.failed
}

// LastSnapshot returns the most recently declared snapshot id (0 if none).
func (s *System) LastSnapshot() SnapshotID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ml.lastSnap()
}

// PagelogPages returns the number of page pre-states archived.
func (s *System) PagelogPages() int64 { return s.pl.size() }

// Unchanged is the delta oracle of delta pruning: it reports whether
// every page of readSet has the same content as of snapshots a and b,
// by testing the Maplog entries tagged [a, b) — the only pages that can
// differ between the two images — against readSet, stopping at the
// first hit. examined counts the entries tested. It allocates nothing,
// and replicas, which reproduce the same entries via ApplyCommitDelta,
// answer identically. ok is false (nothing can be concluded) when a is
// 0, b <= a, or b is not yet declared.
func (s *System) Unchanged(a, b SnapshotID, readSet map[storage.PageID]struct{}) (ok, unchanged bool, examined int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ml.unchanged(a, b, readSet)
}

// MaplogEntries returns the raw (level 0) Maplog length.
func (s *System) MaplogEntries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ml.len0()
}

// ReadLatency returns the configured per-Pagelog-read latency used for
// modeled I/O time.
func (s *System) ReadLatency() time.Duration { return s.simLatency }

// ResetCache empties the snapshot page cache, the decompressed
// segment-block cache and every Maplog segment table, producing the
// paper's "all-cold" starting condition on a tiered archive too: the
// next open of a snapshot pays its Skippy hashing again.
func (s *System) ResetCache() {
	s.cache.reset()
	s.pl.bcache.reset()
	s.mu.RLock()
	dropped := s.ml.dropTables()
	s.mu.RUnlock()
	s.stats.SPTTableEntries.Add(-int64(dropped))
}

// CachedPages reports the number of pages currently cached.
func (s *System) CachedPages() int { return s.cache.len() }

// sampleGauges stores the point-in-time gauges — cache and archive
// size, tier shape, logical vs on-disk footprint — read from the live
// Pagelog, so the next snapshot of the set reports them.
func (s *System) sampleGauges() {
	pl := s.pl
	segs, sealedPages, tailPages := pl.tiers()
	logical, disk := pl.footprint()
	s.stats.PagelogPages.Store(pl.size())
	s.stats.CachedPages.Store(int64(s.cache.len()))
	s.stats.Segments.Store(int64(segs))
	s.stats.SegmentPages.Store(sealedPages)
	s.stats.TailPages.Store(tailPages)
	s.stats.PagelogLogicalBytes.Store(logical)
	s.stats.PagelogDiskBytes.Store(disk)
}

// Stats returns a typed point-in-time copy of the system's metrics.
func (s *System) Stats() StatsSnapshot {
	s.sampleGauges()
	var st StatsSnapshot
	s.metrics.Fill(&st)
	return st
}

// Metrics samples the system's metrics as the self-describing list.
func (s *System) Metrics() []obs.Metric {
	s.sampleGauges()
	return s.metrics.Snapshot()
}

// PagelogFootprint reports the archive's live logical bytes against the
// bytes its backing actually holds (sealed segments are deduplicated
// and compressed).
func (s *System) PagelogFootprint() (logicalBytes, diskBytes int64) {
	return s.pl.footprint()
}

// ResetStats zeroes the system's counters without disturbing the
// Pagelog, Maplog, snapshot cache, or any open readers: experiments can
// zero the accounting between phases without reopening the store.
func (s *System) ResetStats() { s.metrics.Reset() }

// OpenSnapshot builds SPT(id) and pins an MVCC read transaction,
// returning a reader that serves any page as of the snapshot. The
// reader must be closed.
func (s *System) OpenSnapshot(id SnapshotID) (*SnapshotReader, error) {
	rt, spts, c, err := s.pinAndBuild([]SnapshotID{id})
	if err != nil {
		return nil, err
	}
	s.stats.SPTBuilds.Add(1)
	return &SnapshotReader{sys: s, spt: spts[0], rt: rt, Counters: c}, nil
}

// pinAndBuild pins an MVCC read transaction, then builds the SPT of
// every snapshot in ids under the Maplog lock over the entries
// appended so far: each a stack of the shared segment tables its cover
// takes, hashing those no earlier open has, over one private table of
// the open tail. The returned counters hold the entries this open
// hashed and the build's wall time. The pin-then-scan order matters:
// commits that land after the read transaction is pinned may capture
// further pre-states, but the pinned transaction still observes the
// pre-commit versions of those pages directly, so an SPT built from
// the earlier Maplog prefix remains complete for it.
func (s *System) pinAndBuild(ids []SnapshotID) (*storage.ReadTx, []*SPT, Counters, error) {
	rt, err := s.store.BeginRead()
	if err != nil {
		return nil, nil, Counters{}, err
	}
	s.mu.RLock()
	err = s.usableLocked()
	for _, id := range ids {
		if err == nil {
			err = s.ml.checkOpenable(id)
		}
	}
	if err != nil {
		s.mu.RUnlock()
		rt.Close()
		return nil, nil, Counters{}, err
	}
	start := time.Now()
	var h hashed
	tail := s.ml.tail(&h)
	spts := make([]*SPT, len(ids))
	for i, id := range ids {
		spts[i] = s.ml.buildSPT(id, tail, &h)
	}
	buildTime := time.Since(start)
	s.mu.RUnlock()
	s.stats.SPTTablesBuilt.Add(uint64(h.tables))
	s.stats.SPTTableEntries.Add(int64(h.tableEntries))
	return rt, spts, Counters{MapScanned: h.entries, SPTBuildTime: buildTime}, nil
}

// SnapshotSet is a reader set over the SPTs of a group of snapshots,
// built together under one MVCC read transaction — pinned before the
// build, as for OpenSnapshot — which serves the pages each member
// shares with the current database. The members' SPTs share their
// segment tables with each other and with every other open.
//
// The set is immutable after construction and safe for concurrent use:
// concurrent sessions may Open readers on different (or the same) members
// simultaneously. Close releases the pinned read transaction; readers
// opened from the set must be closed first (they do not pin their own).
type SnapshotSet struct {
	sys  *System
	rt   *storage.ReadTx
	spts map[SnapshotID]*SPT
	ids  []SnapshotID // sorted ascending, unique

	// Scanned is the number of Maplog entries the set's open hashed:
	// the segment tables it built, which no earlier open had, plus the
	// open tail once. BuildTime is the build's wall time.
	Scanned   int
	BuildTime time.Duration

	mu     sync.Mutex
	closed bool
}

// OpenSnapshotSet builds the SPT of every snapshot in ids (ids need not
// be sorted; duplicates are ignored) and pins one MVCC read
// transaction shared by all readers opened from the set. This is the
// batch entry point for RQL's defining access pattern, a loop over a
// whole Qs snapshot set: the members' SPTs are built at once, sharing
// one open tail, and readers open in O(1).
func (s *System) OpenSnapshotSet(ids []SnapshotID) (*SnapshotSet, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot set", ErrNoSnapshot)
	}
	sorted := make([]SnapshotID, 0, len(ids))
	seen := make(map[SnapshotID]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			sorted = append(sorted, id)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	rt, spts, c, err := s.pinAndBuild(sorted)
	if err != nil {
		return nil, err
	}
	set := &SnapshotSet{
		sys:       s,
		rt:        rt,
		spts:      make(map[SnapshotID]*SPT, len(sorted)),
		ids:       sorted,
		Scanned:   c.MapScanned,
		BuildTime: c.SPTBuildTime,
	}
	for i, id := range sorted {
		set.spts[id] = spts[i]
	}
	s.stats.SPTBatchBuilds.Add(1)
	s.stats.BatchSnapshots.Add(uint64(len(sorted)))
	s.stats.BatchMapScanned.Add(uint64(set.Scanned))
	return set, nil
}

// Snapshots returns the set's members, sorted ascending.
func (ss *SnapshotSet) Snapshots() []SnapshotID {
	return append([]SnapshotID(nil), ss.ids...)
}

// Contains reports whether the snapshot is a member of the set.
func (ss *SnapshotSet) Contains(id SnapshotID) bool {
	_, ok := ss.spts[id]
	return ok
}

// Open returns a reader serving pages as of a member snapshot. The
// reader reuses the set's pre-built SPT and pinned read transaction, so
// opening is O(1) — no Maplog scan, no new MVCC pin. Closing the reader
// does not release the set.
func (ss *SnapshotSet) Open(id SnapshotID) (*SnapshotReader, error) {
	ss.mu.Lock()
	closed := ss.closed
	ss.mu.Unlock()
	if closed {
		return nil, ErrReaderClosed
	}
	spt, ok := ss.spts[id]
	if !ok {
		return nil, fmt.Errorf("%w: snapshot %d is not in the reader set", ErrNoSnapshot, id)
	}
	return &SnapshotReader{sys: ss.sys, spt: spt, rt: ss.rt, sharedRT: true}, nil
}

// Close releases the pinned read transaction. Idempotent.
func (ss *SnapshotSet) Close() {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	ss.mu.Unlock()
	ss.rt.Close()
}

// Counters accumulates the per-reader costs the paper's §5 figures
// break down. It is the innermost cost record (obs/cost.go): the
// statement's record embeds it and the iteration's takes its fields by
// name.
type Counters struct {
	PagelogReads int           `cost:"pagelog_reads"` // logical cache-missing reads from the Pagelog
	CacheHits    int           `cost:"cache_hits"`    // snapshot pages served from the cache
	DBReads      int           `cost:"db_reads"`      // pages shared with (and read from) the current DB
	MapScanned   int           `cost:"map_scanned"`   // Maplog entries this open hashed: new segment tables plus the open tail
	SPTBuildTime time.Duration `cost:"spt_build"`     // wall time of the SPT build
}

// ModeledIOTime converts Pagelog misses into modeled I/O time at the
// given per-read latency.
func (c Counters) ModeledIOTime(perRead time.Duration) time.Duration {
	return time.Duration(c.PagelogReads) * perRead
}

// SnapshotReader serves page reads as of one snapshot. It implements
// storage.Pager (read-only) so the B+tree and the SQL engine run over a
// snapshot exactly as they run over the current database — the paper's
// retrospection property.
type SnapshotReader struct {
	sys      *System
	spt      *SPT
	rt       *storage.ReadTx
	sharedRT bool // the read tx belongs to a SnapshotSet; Close leaves it pinned

	// Counters accumulates this reader's costs; not safe for
	// concurrent readers sharing one SnapshotReader.
	Counters Counters

	// readSet, when non-nil, records every page id served by Get —
	// whether from the Pagelog, the snapshot cache, or the shared
	// current database. Same single-owner rule as Counters.
	readSet map[storage.PageID]struct{}

	// span parents the reader's Pagelog-fetch and device-read spans.
	// Nil (the default) leaves the reader untraced. Same single-owner
	// rule as Counters; nil-safe throughout.
	span *obs.Span

	closed bool
}

// SetTraceSpan parents this reader's fetch spans under sp (nil stops
// tracing the reader). Only the cache-miss path emits spans — cache
// hits stay span-free so a traced hot run costs almost nothing extra.
func (r *SnapshotReader) SetTraceSpan(sp *obs.Span) { r.span = sp }

// RecordReadSet makes Get record every page it serves into set (pass
// nil to stop recording). The caller owns the map.
func (r *SnapshotReader) RecordReadSet(set map[storage.PageID]struct{}) {
	r.readSet = set
}

// Get returns the page content as of the snapshot.
//
// The returned *storage.PageData is SHARED — with the snapshot page
// cache (other readers receive the same pointer), and, for pages the
// snapshot shares with the current database, with the store's committed
// version chain. Callers must treat it as immutable; mutating it would
// corrupt every other reader of the same pre-state. The B+tree and SQL
// layers honour this by only writing through Pager.GetMut, which this
// reader rejects. TestCachedPageAliasingReadOnly guards the contract.
func (r *SnapshotReader) Get(id storage.PageID) (*storage.PageData, error) {
	if r.closed {
		return nil, ErrReaderClosed
	}
	if r.readSet != nil {
		r.readSet[id] = struct{}{}
	}
	off, ok := r.spt.Lookup(id)
	if !ok {
		// Shared with the current database: MVCC-pinned current read.
		data, err := r.rt.Get(id)
		if err != nil {
			return nil, err
		}
		r.Counters.DBReads++
		return data, nil
	}
	if data := r.sys.cache.get(off); data != nil {
		r.Counters.CacheHits++
		r.sys.stats.CacheHits.Add(1)
		return data, nil
	}
	data, filled, err := r.sys.demandRead(off, r.span)
	if err != nil {
		return nil, err
	}
	if filled {
		r.Counters.PagelogReads++
		r.sys.stats.PagelogReads.Add(1)
	} else {
		r.Counters.CacheHits++
		r.sys.stats.CacheHits.Add(1)
	}
	return data, nil
}

// demandRead services one cache-missing demand read with one Pagelog
// read, inline on the calling goroutine. Concurrent misses of the same
// offset coalesce into that single read: the first caller performs it
// and installs the page, later callers block on its completion and
// share the result. Without this, concurrent sessions missing together
// would double-bill (and double-fetch) shared pages, making
// PagelogReads nondeterministic.
//
// filled reports how the caller must bill the read: true — it issued
// the page's one cold read (a PagelogRead); false — the cold read was
// billed by the caller that filled the cache (an in-service miss this
// one joined, or a fill that completed between the caller's cache miss
// and now), so it is the CacheHit it would have been a moment later.
func (s *System) demandRead(off int64, span *obs.Span) (data *storage.PageData, filled bool, err error) {
	s.missMu.Lock()
	if c, ok := s.missing[off]; ok {
		s.missMu.Unlock()
		// Joining an in-service miss: the wait is this caller's cost
		// even though the read belongs to the issuer.
		wsp := span.Child("pagelog.wait").SetInt("off", off)
		<-c.done
		wsp.End()
		return c.data, false, c.err
	}
	if data := s.cache.get(off); data != nil {
		s.missMu.Unlock()
		return data, false, nil
	}
	c := &missCall{done: make(chan struct{})}
	s.missing[off] = c
	s.missMu.Unlock()

	fsp := span.Child("pagelog.fetch").SetInt("off", off)
	start := time.Now()
	page := new(storage.PageData)
	physBytes, blockHits, err := s.pl.read(off, page)
	busy := time.Since(start)
	s.stats.DeviceReads.Add(1)
	s.stats.DeviceBytesRead.Add(uint64(physBytes))
	if blockHits > 0 {
		s.stats.SegBlockHits.Add(uint64(blockHits))
	}
	s.stats.DeviceBusyNS.Add(uint64(busy))
	if fsp != nil {
		obs.Record(fsp, "device.read", start, busy, obs.Attr{Key: "off", Int: off})
	}
	fsp.End()
	if err == nil {
		// Install before unregistering so no window exists in which the
		// page is in neither the cache nor the miss table.
		c.data = page
		s.cache.put(off, page)
	}
	c.err = err
	s.missMu.Lock()
	delete(s.missing, off)
	s.missMu.Unlock()
	close(c.done)
	return c.data, true, c.err
}

// GetMut always fails: snapshots are immutable.
func (r *SnapshotReader) GetMut(storage.PageID) (*storage.PageData, error) {
	return nil, storage.ErrReadOnly
}

// Allocate always fails: snapshots are immutable.
func (r *SnapshotReader) Allocate() (storage.PageID, error) {
	return 0, storage.ErrReadOnly
}

// Free always fails: snapshots are immutable.
func (r *SnapshotReader) Free(storage.PageID) error { return storage.ErrReadOnly }

// Writes is always 0: snapshots are immutable.
func (r *SnapshotReader) Writes() uint64 { return 0 }

// Close unpins the underlying MVCC read transaction (unless the reader
// was opened from a SnapshotSet, whose transaction stays pinned until
// the set itself is closed).
func (r *SnapshotReader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.sharedRT {
		return
	}
	r.rt.Close()
}

package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rql"
)

// The group-commit experiment measures write throughput under
// concurrent sessions on a sleeping device: every commit group costs
// one fsync-equivalent flush (the modeled read latency), so a single
// writer — groups of one — pays one device round-trip per commit while
// concurrent writers amortize it over whole batches. Writers insert
// into private tables — disjoint page sets — so the comparison isolates
// batching from conflict aborts.

// GroupCommitSide is one writer count's measurement.
type GroupCommitSide struct {
	Wall          string  `json:"wall"`
	WallNS        int64   `json:"wall_ns"`
	Commits       uint64  `json:"commits"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Groups        uint64  `json:"groups"`
	MeanGroupSize float64 `json:"mean_group_size"`
	Flushes       uint64  `json:"device_flushes"`
	SkippedFlush  uint64  `json:"flushes_skipped,omitempty"`
	Conflicts     uint64  `json:"conflicts"`
}

// GroupCommitResult is the commit path at one writer count. The serial
// baseline is the 1-writer row: every group has one member, so every
// commit pays its own flush.
type GroupCommitResult struct {
	Writers int             `json:"writers"`
	Ops     int             `json:"ops_per_writer"`
	Grouped GroupCommitSide `json:"grouped"`
	Speedup float64         `json:"speedup"` // commits/s over the 1-writer row's
}

// groupCommitLatency models the device flush: the cost of making one
// commit group durable, matching the tracing phases' cold-tier read.
const groupCommitLatency = time.Millisecond

// groupCommitBatch runs the commits/sec phase: the same insert workload
// timed at each writer count on a sleeping device, the 1-writer row
// first.
func (r *Runner) groupCommitBatch(rep *BatchReport) error {
	ops := 25
	if r.Cfg.Quick {
		ops = 10
	}
	writerCounts := []int{1, 8, 32}
	fmt.Fprintf(r.Out, "[setup] building group-commit environment: sleeping device (%v/flush), %d ops/writer...\n",
		groupCommitLatency, ops)

	db, err := rql.Open(rql.Options{
		SleepOnRead:          true,
		SimulatedReadLatency: groupCommitLatency,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	setup := db.Conn()

	table := 0
	runSide := func(writers int) (GroupCommitSide, error) {
		// Fresh tables per row, created outside the timed region.
		names := make([]string, writers)
		for w := range names {
			table++
			names[w] = fmt.Sprintf("gc_%d", table)
			if err := setup.Exec(fmt.Sprintf(`CREATE TABLE %s (i INTEGER)`, names[w]), nil); err != nil {
				return GroupCommitSide{}, err
			}
		}
		// Open the capture window before the timed region so the very
		// first commit also archives pre-images (nothing has been
		// declared yet on the first row).
		if _, err := setup.DeclareSnapshot(""); err != nil {
			return GroupCommitSide{}, err
		}
		db.ResetStats()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := db.Conn()
				for i := 0; i < ops; i++ {
					// Snapshot-tagged commits: each one re-opens the capture
					// window, so every commit archives pre-images and its
					// group's device flush is mandatory (an untagged loop
					// would produce archived-only groups, which skip the
					// flush and leave nothing to measure).
					stmt := fmt.Sprintf(`BEGIN; INSERT INTO %s VALUES (%d); COMMIT WITH SNAPSHOT`, names[w], i)
					if err := c.Exec(stmt, nil); err != nil {
						errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(start)
		close(errs)
		for err := range errs {
			return GroupCommitSide{}, err
		}
		ss := db.StorageStats()
		rs := db.RetroStats()
		side := GroupCommitSide{
			Wall:         wall.Round(time.Microsecond).String(),
			WallNS:       wall.Nanoseconds(),
			Commits:      ss.Commits,
			Groups:       ss.Groups,
			Flushes:      rs.DeviceFlushes,
			SkippedFlush: rs.GroupFlushesSkipped,
			Conflicts:    ss.Conflicts,
		}
		if wall > 0 {
			side.CommitsPerSec = float64(ss.Commits) / wall.Seconds()
		}
		if ss.Groups > 0 {
			side.MeanGroupSize = float64(ss.Commits) / float64(ss.Groups)
		}
		if want := uint64(writers * ops); ss.Commits != want {
			return side, fmt.Errorf("group-commit phase: %d commits accounted, want %d", ss.Commits, want)
		}
		// Durability gives each group one flush unless it appended nothing
		// new to the Pagelog tail (archived-only), which it may skip.
		if rs.DeviceFlushes+rs.GroupFlushesSkipped != ss.Groups {
			return side, fmt.Errorf("group-commit phase: %d flushes + %d skipped for %d groups, want one decision per group",
				rs.DeviceFlushes, rs.GroupFlushesSkipped, ss.Groups)
		}
		return side, nil
	}

	for _, writers := range writerCounts {
		side, err := runSide(writers)
		if err != nil {
			return err
		}
		rep.GroupCommit = append(rep.GroupCommit, GroupCommitResult{Writers: writers, Ops: ops, Grouped: side})
		if base := rep.GroupCommit[0].Grouped.CommitsPerSec; base > 0 {
			rep.GroupCommit[len(rep.GroupCommit)-1].Speedup = side.CommitsPerSec / base
		}
	}
	return nil
}

// compareGroupCommit diffs the group-commit phase of two reports
// through the same regression check as the batch sides. Runs predating
// the phase have nothing to match; the serial side older runs also
// carry is not read.
func compareGroupCommit(old, cur *BatchReport, out io.Writer, check func(mech, side string, old, cur BatchSide)) {
	if len(old.GroupCommit) == 0 || len(cur.GroupCommit) == 0 {
		return
	}
	prev := map[int]GroupCommitResult{}
	for _, res := range old.GroupCommit {
		prev[res.Writers] = res
	}
	tab := &Table{
		Title:   "Group commit: newest run vs previous",
		Headers: []string{"writers", "wall Δ", "speedup", "commits/s", "mean group"},
	}
	for _, res := range cur.GroupCommit {
		p, ok := prev[res.Writers]
		if !ok || p.Ops != res.Ops {
			continue
		}
		label := fmt.Sprintf("group-commit/%dw", res.Writers)
		was, now := BatchSide{WallNS: p.Grouped.WallNS}, BatchSide{WallNS: res.Grouped.WallNS}
		check(label, "grouped", was, now)
		tab.Add(res.Writers,
			wallDelta(was, now),
			fmt.Sprintf("%.2fx", res.Speedup),
			fmt.Sprintf("%.0f", res.Grouped.CommitsPerSec),
			fmt.Sprintf("%.2f", res.Grouped.MeanGroupSize))
	}
	tab.Fprint(out)
}

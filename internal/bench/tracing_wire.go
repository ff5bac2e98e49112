package bench

import (
	"fmt"
	"net"
	"strings"
	"time"

	"rql"
	"rql/client"
	"rql/internal/obs"
	"rql/internal/retro"
	"rql/internal/server"
)

// wireTraceRows is how many rows each snapshot of the propagated-path
// smoke workload writes: enough archived pages that every retrospective
// iteration pays several sleeping device reads, so wall time is
// dominated by deterministic waits rather than loopback RPC jitter.
const wireTraceRows = 8192

// propagatedOverhead measures the tracing-overhead budget on the wire
// path: a client minting v8 trace context on every request, a real
// server rooting its spans under that caller context. The mechanism
// workload runs over loopback TCP with the recorder off and on; billed
// counters must be identical and the enabled side must stay inside the
// same budget the in-process gate enforces. This is the end-to-end
// cost of propagation itself — frame prefix decode, span rooting, and
// recording — not just the recorder in isolation.
func (r *Runner) propagatedOverhead(pairs, reps int) (*TracingResult, error) {
	set := traceSet
	if r.Cfg.Quick {
		set = 6
	}
	db, err := rql.Open(rql.Options{
		SleepOnRead:          true,
		SimulatedReadLatency: traceReadLatency,
		DeviceQueueDepth:     retro.DefaultQueueDepth,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	srv := server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		srv.Shutdown()
		<-done
	}()

	fmt.Fprintf(r.Out, "[setup] building propagated-path environment: %d snapshots over loopback, sleeping device (%v/read)...\n",
		set, traceReadLatency)
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()

	if err := c.EnsureSnapIds(); err != nil {
		return nil, err
	}
	if err := c.Exec(`CREATE TABLE wire_trace (k INTEGER, v INTEGER)`, nil); err != nil {
		return nil, err
	}
	for s := 0; s < set; s++ {
		var b strings.Builder
		b.WriteString(`INSERT INTO wire_trace VALUES `)
		for i := 0; i < wireTraceRows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", s*wireTraceRows+i, s)
		}
		if err := c.Exec(b.String(), nil); err != nil {
			return nil, err
		}
		if _, err := c.DeclareSnapshot(fmt.Sprintf("wire-%d", s)); err != nil {
			return nil, err
		}
	}

	// Qq scans the whole table: iteration s pays s snapshots' worth of
	// archived pages, so each cold run sleeps for hundreds of device
	// reads and the 5% budget is far above scheduler noise.
	qs := `SELECT snap_id FROM SnapIds`
	qq := `SELECT k FROM wire_trace`

	// One cold mechanism run over the wire. A traced run's spans must be
	// rooted under the client-minted trace: that IS the propagation this
	// gate exists to cover.
	runOnce := func() (*rql.RunStats, time.Duration, error) {
		db.ResetSnapshotCache()
		resultSeq++
		table := fmt.Sprintf("bench_result_%d", resultSeq)
		start := time.Now()
		rs, err := c.CollateData(qs, qq, table)
		wall := time.Since(start)
		if err == nil && obs.Enabled() {
			if id := c.LastTrace(); id == 0 {
				err = fmt.Errorf("run reported no trace ID on the client")
			} else if len(obs.TraceSpans(id)) == 0 {
				err = fmt.Errorf("client trace %#x has no server spans: context did not propagate", id)
			}
		}
		return rs, wall, err
	}

	// Best of reps.
	run := func() (*rql.RunStats, time.Duration, error) {
		var (
			best   time.Duration
			bestRS *rql.RunStats
		)
		for i := 0; i < reps; i++ {
			rs, d, err := runOnce()
			if err != nil {
				return nil, 0, err
			}
			if bestRS == nil || d < best {
				best, bestRS = d, rs
			}
		}
		return bestRS, best, nil
	}

	// One untimed warm-up run absorbs first-touch costs (result-table
	// setup, device-pool spin-up, TCP buffer growth) that would
	// otherwise bias whichever side is measured first.
	if _, _, err := runOnce(); err != nil {
		return nil, fmt.Errorf("propagated warm-up: %w", err)
	}

	res, err := pairedOverhead(pairs, c.SetTracing, run)
	if err != nil {
		return nil, fmt.Errorf("propagated: %w", err)
	}
	res.Snapshots = set
	return res, nil
}

package server

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"rql"
	"rql/client"
	"rql/internal/obs"
	"rql/internal/tpch"
)

// TestStress32Sessions runs 32 concurrent client sessions — current-state
// reads and AS OF reads over a growing snapshot set — while one writer
// drives the paper's RF1/RF2 refresh workload through the single-writer
// commit path. Every read is checked against an analytic shadow model:
//
// The refresh workload advances a deletion front through a dense,
// monotonically increasing order-key space, so after step k the live
// orders are exactly the keys [minKey + k*ops, minKey + k*ops + N - 1]
// for N total orders and ops refreshed per snapshot. COUNT, MIN, MAX
// and SUM of o_orderkey at any snapshot are therefore closed-form, and
// the current-state COUNT must always equal N because each refresh is
// one atomic transaction.
//
// Run with -race; it doubles as the concurrency audit for the
// session/Conn/store stack.
func TestStress32Sessions(t *testing.T) {
	const (
		readers = 32
		steps   = 12 // writer refresh cycles (snapshots declared)
		ops     = 30 // orders refreshed per snapshot (the paper's UW30)
		minIter = 6  // each reader verifies at least this many reads
	)

	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	gen := tpch.NewGenerator(0.001, 42)
	wconn := db.Conn()
	minKey, _, err := tpch.Load(wconn.Conn, gen)
	if err != nil {
		t.Fatal(err)
	}
	orders := int64(gen.Orders())

	srv := New(db, Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	addr := lis.Addr().String()

	// expectAt is the shadow model: the live key range after step k.
	type expect struct{ count, min, max, sum int64 }
	expectAt := func(k int64) expect {
		lo := minKey + k*ops
		hi := lo + orders - 1
		return expect{count: orders, min: lo, max: hi, sum: (lo + hi) * orders / 2}
	}

	// Snapshots are published only after their step's commit returns, so
	// a reader never holds an id the server doesn't serve yet.
	var (
		mu     sync.Mutex
		snaps  []uint64
		shadow = map[uint64]expect{}
	)
	publish := func(id uint64, e expect) {
		mu.Lock()
		snaps = append(snaps, id)
		shadow[id] = e
		mu.Unlock()
	}
	pick := func(rng *rand.Rand) (uint64, expect) {
		mu.Lock()
		defer mu.Unlock()
		id := snaps[rng.Intn(len(snaps))]
		return id, shadow[id]
	}

	snap0, err := wconn.DeclareSnapshot("initial")
	if err != nil {
		t.Fatal(err)
	}
	publish(snap0, expectAt(0))

	writerDone := make(chan struct{})
	var writerErr error
	go func() {
		defer close(writerDone)
		w := tpch.NewWorkload(wconn.Conn, gen, minKey, ops)
		for k := int64(1); k <= steps; k++ {
			id, err := w.Step()
			if err != nil {
				writerErr = fmt.Errorf("refresh step %d: %w", k, err)
				return
			}
			publish(id, expectAt(k))
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			verify := func() error {
				id, want := pick(rng)
				rows, err := c.Query(fmt.Sprintf(
					`SELECT AS OF %d COUNT(*), MIN(o_orderkey), MAX(o_orderkey), SUM(o_orderkey) FROM orders`, id))
				if err != nil {
					return fmt.Errorf("reader %d, snapshot %d: %w", r, id, err)
				}
				got := expect{
					count: rows.Rows[0][0].Int(),
					min:   rows.Rows[0][1].Int(),
					max:   rows.Rows[0][2].Int(),
					sum:   rows.Rows[0][3].Int(),
				}
				if got != want {
					return fmt.Errorf("reader %d, snapshot %d: read %+v, want %+v", r, id, got, want)
				}
				// The current state must never expose a half-applied
				// refresh: each RF1/RF2 cycle commits atomically.
				rows, err = c.Query(`SELECT COUNT(*) FROM orders`)
				if err != nil {
					return fmt.Errorf("reader %d current state: %w", r, err)
				}
				if n := rows.Rows[0][0].Int(); n != orders {
					return fmt.Errorf("reader %d saw torn refresh: %d live orders, want %d", r, n, orders)
				}
				return nil
			}
			done := false
			for i := 0; i < minIter || !done; i++ {
				if err := verify(); err != nil {
					errs <- err
					return
				}
				select {
				case <-writerDone:
					done = true
				default:
				}
			}
		}(r)
	}

	wg.Wait()
	<-writerDone
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Phase 2: a mechanism over the full snapshot set, opened as one
	// snapshot set; every collated row is checked against the same
	// shadow model the interactive readers used. The reset drops the
	// segment tables the interactive readers built, so the set's open
	// hashes.
	db.ResetSnapshotCache()
	run, err := wconn.CollateData(
		`SELECT snap_id FROM SnapIds`,
		`SELECT COUNT(*) AS c, MIN(o_orderkey) AS mn, MAX(o_orderkey) AS mx,
			current_snapshot() AS sid FROM orders`,
		"StressCollate")
	if err != nil {
		t.Fatal(err)
	}
	if run.BatchBuilds != 1 || run.BatchMapScanned == 0 {
		t.Errorf("the run did not open one snapshot set: %+v", run)
	}
	if len(run.Iterations) != steps+1 {
		t.Errorf("the run covered %d snapshots, want %d", len(run.Iterations), steps+1)
	}
	rows, err := wconn.Query(`SELECT sid, c, mn, mx FROM StressCollate`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != steps+1 {
		t.Errorf("StressCollate has %d rows, want %d", len(rows.Rows), steps+1)
	}
	for _, row := range rows.Rows {
		id := uint64(row[0].Int())
		want, ok := shadow[id]
		if !ok {
			t.Errorf("StressCollate row for unknown snapshot %d", id)
			continue
		}
		if row[1].Int() != want.count || row[2].Int() != want.min || row[3].Int() != want.max {
			t.Errorf("snapshot %d collated (%d,%d,%d), want (%d,%d,%d)",
				id, row[1].Int(), row[2].Int(), row[3].Int(), want.count, want.min, want.max)
		}
	}
	if rs := db.RetroStats(); rs.SPTBatchBuilds == 0 || rs.BatchSnapshots < uint64(steps+1) {
		t.Errorf("retro batch counters after the run: %+v", rs)
	}

	srv.Shutdown()
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	st := metricValues(srv.Metrics())
	if st["conns_accepted"] != readers || st["queries_served"] == 0 || st["retro_snapshots"] < steps {
		t.Fatalf("stats after stress: %+v", st)
	}
	if st["retro_spt_batch_builds"] == 0 {
		t.Errorf("STATS reply missing snapshot-set opens: %+v", st)
	}
}

// TestGroupCommitStress is the group-commit correctness harness: the
// reader checks of TestStress32Sessions plus N concurrent writer
// sessions — half hammering one shared table (a conflict-inducing mix
// resolved by the engine's autocommit retry), half creating and filling
// private tables (concurrent DDL plus disjoint writes that should batch
// without conflicts) — while the TPC-H refresh workload advances the
// snapshot timeline through explicit COMMIT WITH SNAPSHOT transactions.
// Every read is checked against the same analytic shadow model, every
// write must land exactly once, and the STATS counters must account
// every commit to a group. Run with -race.
func TestGroupCommitStress(t *testing.T) {
	const (
		sharedWriters  = 4
		privateWriters = 4
		writerOps      = 40
		readers        = 8
		steps          = 8  // refresh cycles (snapshots declared)
		ops            = 30 // orders refreshed per snapshot
	)

	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	gen := tpch.NewGenerator(0.001, 7)
	wconn := db.Conn()
	minKey, _, err := tpch.Load(wconn.Conn, gen)
	if err != nil {
		t.Fatal(err)
	}
	orders := int64(gen.Orders())
	if err := wconn.Exec(`CREATE TABLE shared_log (w INTEGER, i INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}

	srv := New(db, Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	addr := lis.Addr().String()

	type expect struct{ count, min, max, sum int64 }
	expectAt := func(k int64) expect {
		lo := minKey + k*ops
		hi := lo + orders - 1
		return expect{count: orders, min: lo, max: hi, sum: (lo + hi) * orders / 2}
	}
	var (
		mu     sync.Mutex
		snaps  []uint64
		shadow = map[uint64]expect{}
	)
	publish := func(id uint64, e expect) {
		mu.Lock()
		snaps = append(snaps, id)
		shadow[id] = e
		mu.Unlock()
	}
	pick := func(rng *rand.Rand) (uint64, expect) {
		mu.Lock()
		defer mu.Unlock()
		id := snaps[rng.Intn(len(snaps))]
		return id, shadow[id]
	}
	snap0, err := wconn.DeclareSnapshot("initial")
	if err != nil {
		t.Fatal(err)
	}
	publish(snap0, expectAt(0))

	writerDone := make(chan struct{})
	var writerErr error
	go func() {
		defer close(writerDone)
		w := tpch.NewWorkload(wconn.Conn, gen, minKey, ops)
		for k := int64(1); k <= steps; k++ {
			id, err := w.Step()
			if err != nil {
				writerErr = fmt.Errorf("refresh step %d: %w", k, err)
				return
			}
			publish(id, expectAt(k))
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sharedWriters+privateWriters+readers)

	// Conflict-inducing mix: all shared writers insert into ONE table,
	// so concurrently staged statements hit the same leaf page and lose
	// first-committer-wins races; the engine's autocommit retry must
	// land every row exactly once anyway.
	for w := 0; w < sharedWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < writerOps; i++ {
				if err := c.Exec(fmt.Sprintf(`INSERT INTO shared_log VALUES (%d, %d)`, w, i), nil); err != nil {
					errs <- fmt.Errorf("shared writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// Disjoint writers: concurrent CREATE TABLE (catalog-page conflicts,
	// retried) then private inserts that should group without aborts.
	for w := 0; w < privateWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Exec(fmt.Sprintf(`CREATE TABLE priv_%d (i INTEGER)`, w), nil); err != nil {
				errs <- fmt.Errorf("private writer %d create: %w", w, err)
				return
			}
			for i := 0; i < writerOps; i++ {
				if err := c.Exec(fmt.Sprintf(`INSERT INTO priv_%d VALUES (%d)`, w, i), nil); err != nil {
					errs <- fmt.Errorf("private writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			done := false
			for i := 0; i < 6 || !done; i++ {
				id, want := pick(rng)
				rows, err := c.Query(fmt.Sprintf(
					`SELECT AS OF %d COUNT(*), MIN(o_orderkey), MAX(o_orderkey), SUM(o_orderkey) FROM orders`, id))
				if err != nil {
					errs <- fmt.Errorf("reader %d, snapshot %d: %w", r, id, err)
					return
				}
				got := expect{
					count: rows.Rows[0][0].Int(),
					min:   rows.Rows[0][1].Int(),
					max:   rows.Rows[0][2].Int(),
					sum:   rows.Rows[0][3].Int(),
				}
				if got != want {
					errs <- fmt.Errorf("reader %d, snapshot %d: read %+v, want %+v", r, id, got, want)
					return
				}
				// Current state: refreshes are atomic, and the shared
				// table never shows a torn or duplicated insert.
				rows, err = c.Query(`SELECT COUNT(*) FROM orders`)
				if err != nil {
					errs <- fmt.Errorf("reader %d current: %w", r, err)
					return
				}
				if n := rows.Rows[0][0].Int(); n != orders {
					errs <- fmt.Errorf("reader %d saw torn refresh: %d live orders, want %d", r, n, orders)
					return
				}
				rows, err = c.Query(`SELECT COUNT(*) FROM shared_log`)
				if err != nil {
					errs <- fmt.Errorf("reader %d shared_log: %w", r, err)
					return
				}
				if n := rows.Rows[0][0].Int(); n > sharedWriters*writerOps {
					errs <- fmt.Errorf("reader %d saw %d shared_log rows, max possible %d (duplicated retry?)",
						r, n, sharedWriters*writerOps)
					return
				}
				select {
				case <-writerDone:
					done = true
				default:
				}
			}
		}(r)
	}

	wg.Wait()
	<-writerDone
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every write landed exactly once.
	rows, err := wconn.Query(`SELECT COUNT(*), COUNT(DISTINCT w) FROM shared_log`)
	if err != nil {
		t.Fatal(err)
	}
	if n, w := rows.Rows[0][0].Int(), rows.Rows[0][1].Int(); n != sharedWriters*writerOps || w != sharedWriters {
		t.Errorf("shared_log has %d rows from %d writers, want %d from %d",
			n, w, sharedWriters*writerOps, sharedWriters)
	}
	for w := 0; w < privateWriters; w++ {
		rows, err := wconn.Query(fmt.Sprintf(`SELECT COUNT(*) FROM priv_%d`, w))
		if err != nil {
			t.Fatal(err)
		}
		if n := rows.Rows[0][0].Int(); n != writerOps {
			t.Errorf("priv_%d has %d rows, want %d", w, n, writerOps)
		}
	}

	srv.Shutdown()
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// The counters must account every commit to a group and keep the
	// group-size histogram consistent; conflicts depend on scheduling,
	// so they are reported, not asserted.
	st := metricValues(srv.Metrics())
	groups, commits := st["commit_groups"], st["storage_commits"]
	if groups == 0 || commits < groups {
		t.Errorf("implausible group accounting: groups=%d commits=%d", groups, commits)
	}
	sizes, _ := obs.Find(srv.Metrics(), "commit_group_size")
	var bucketed uint64
	for _, c := range sizes.Counts {
		bucketed += c
	}
	if bucketed != groups {
		t.Errorf("group-size histogram accounts %d groups, want %d", bucketed, groups)
	}
	// Each group either flushed the device or was an archived-only group
	// that could skip its fsync; the two must account for every group.
	// The leader checked that, and commits >= groups, at the end of every
	// batch; the end state is checked once more here.
	if st["device_flushes"]+st["group_flushes_skipped"] != groups {
		t.Errorf("device_flushes = %d, group_flushes_skipped = %d, want one decision per group (%d)",
			st["device_flushes"], st["group_flushes_skipped"], groups)
	}
	if v := st["invariant_violations"]; v != 0 {
		t.Errorf("invariant_violations = %d, want 0", v)
	}
	t.Logf("groups=%d commits=%d conflicts=%d mean-size=%.2f queue-wait=%dns",
		groups, commits, st["commit_conflicts"],
		float64(commits)/float64(groups), st["commit_queue_wait_ns"])
}

// metricValues indexes a metric list's counters and gauges by key.
func metricValues(ms []obs.Metric) map[string]uint64 {
	out := make(map[string]uint64, len(ms))
	for _, m := range ms {
		out[m.Key()] = m.Value
	}
	return out
}

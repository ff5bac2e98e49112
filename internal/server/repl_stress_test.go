package server

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rql"
	"rql/client"
	"rql/internal/repl"
	"rql/internal/tpch"
)

// replNode is one replica rqld: its own database tailing the primary,
// served on its own port.
type replNode struct {
	db   *rql.DB
	rep  *repl.Replica
	srv  *Server
	addr string
	done chan error
}

// startReplNode serves db (fresh when nil) as a replica of primaryAddr.
// addr "127.0.0.1:0" picks a port; a concrete addr rebinds it (restart).
func startReplNode(primaryAddr, id, addr string, db *rql.DB) (*replNode, error) {
	if db == nil {
		var err error
		db, err = rql.Open(rql.Options{})
		if err != nil {
			return nil, err
		}
	}
	rep, err := repl.NewReplica(db, repl.ReplicaConfig{
		Primary:      primaryAddr,
		ID:           id,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	rep.Start()
	srv := New(db, Config{})
	srv.SetReplica(rep)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		rep.Close()
		return nil, err
	}
	n := &replNode{db: db, rep: rep, srv: srv, addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(lis) }()
	return n, nil
}

// stop kills the node "process": server and replication loop stop, the
// database stays behind for a restart.
func (n *replNode) stop() {
	n.srv.Shutdown()
	<-n.done
	n.rep.Close()
}

// TestReplicatedStress100Sessions is the acceptance run for snapshot-
// shipping replication: one writer drives the paper's TPC-H RF1/RF2
// refresh workload on the primary while 100 concurrent retrospective
// sessions fan out over 3 replicas through routing cluster clients —
// every AS OF read checked against the analytic shadow model of
// TestStress32Sessions, and a subset of sessions running full
// retrospective mechanisms on the replicas. Mid-run one replica is
// killed and restarted on the same address; it must rejoin by resuming
// the stream (no second bootstrap) and converge. At the end all
// replicas must hold row-identical orders and SnapIds tables.
//
// Run with -race.
func TestReplicatedStress100Sessions(t *testing.T) {
	const (
		readers  = 100
		steps    = 10 // writer refresh cycles
		ops      = 30 // orders refreshed per snapshot (the paper's UW30)
		minIter  = 2  // reads each session must verify at least
		replicas = 3
	)

	// Primary: TPC-H load, replication primary, server.
	pdb, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	primary := repl.NewPrimary(pdb, repl.PrimaryConfig{})
	defer primary.Close()

	gen := tpch.NewGenerator(0.001, 42)
	wconn := pdb.Conn()
	minKey, _, err := tpch.Load(wconn.Conn, gen)
	if err != nil {
		t.Fatal(err)
	}
	orders := int64(gen.Orders())

	psrv := New(pdb, Config{})
	psrv.SetPrimary(primary)
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pdone := make(chan error, 1)
	go func() { pdone <- psrv.Serve(plis) }()
	paddr := plis.Addr().String()
	defer func() {
		psrv.Shutdown()
		<-pdone
	}()

	// Replica fleet.
	nodes := make([]*replNode, replicas)
	for i := range nodes {
		n, err := startReplNode(paddr, fmt.Sprintf("replica-%d", i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
			n.db.Close()
		}
	}()
	raddrs := make([]string, replicas)
	for i, n := range nodes {
		raddrs[i] = n.addr
	}

	// Shadow model: after refresh step k the live orders are exactly
	// [minKey + k*ops, minKey + k*ops + orders - 1].
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
	published := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(snaps)
	}
	pick := func(rng *rand.Rand) (uint64, expect) {
		mu.Lock()
		defer mu.Unlock()
		id := snaps[rng.Intn(len(snaps))]
		return id, shadow[id]
	}
	latest := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return snaps[len(snaps)-1]
	}

	snap0, err := wconn.DeclareSnapshot("initial")
	if err != nil {
		t.Fatal(err)
	}
	publish(snap0, expectAt(0))

	// Let every replica finish its bootstrap before the storm starts:
	// the chaos kill below must interrupt steady-state streaming (so the
	// restart resumes), not the initial bulk transfer.
	for i, n := range nodes {
		if err := n.rep.WaitForHorizon(snap0, 60*time.Second); err != nil {
			t.Fatalf("replica %d bootstrap: %v", i, err)
		}
	}

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
			time.Sleep(2 * time.Millisecond) // let streams interleave
		}
	}()

	// waitPublished blocks until n snapshots exist (or the writer gave
	// up, so the chaos sequence can still run to completion).
	waitPublished := func(n int) {
		for published() < n {
			select {
			case <-writerDone:
				return
			default:
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	// Chaos controller: kill replica 0 after a few refreshes, restart
	// it on the same address a few refreshes later, mid-run. Errors go
	// through errs — t.Fatal must not be called off the test goroutine.
	errs := make(chan error, readers+1)
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		waitPublished(4)
		addr := nodes[0].addr
		db := nodes[0].db
		nodes[0].stop()
		waitPublished(8)
		n, err := startReplNode(paddr, "replica-0", addr, db)
		if err != nil {
			errs <- fmt.Errorf("replica 0 restart: %w", err)
			return
		}
		nodes[0] = n
	}()

	// 100 concurrent retrospective sessions through routing clusters.
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			cl, err := client.OpenCluster(client.ClusterConfig{
				Primary:     paddr,
				Replicas:    raddrs,
				HorizonWait: 10 * time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			verify := func() error {
				id, want := pick(rng)
				var got expect
				err := cl.ExecAsOf(
					`SELECT COUNT(*), MIN(o_orderkey), MAX(o_orderkey), SUM(o_orderkey) FROM orders`,
					id, func(_ []string, row []rql.Value) error {
						got = expect{
							count: row[0].Int(),
							min:   row[1].Int(),
							max:   row[2].Int(),
							sum:   row[3].Int(),
						}
						return nil
					})
				if err != nil {
					return fmt.Errorf("session %d, snapshot %d: %w", r, id, err)
				}
				if got != want {
					return fmt.Errorf("session %d, snapshot %d: read %+v, want %+v", r, id, got, want)
				}
				// The current state must never expose a half-applied
				// refresh: each RF1/RF2 cycle is one snapshot group,
				// applied atomically on replicas too.
				var n int64
				err = cl.Exec(`SELECT COUNT(*) FROM orders`, func(_ []string, row []rql.Value) error {
					n = row[0].Int()
					return nil
				})
				if err != nil {
					return fmt.Errorf("session %d current state: %w", r, err)
				}
				if n != orders {
					return fmt.Errorf("session %d saw torn refresh: %d live orders, want %d", r, n, orders)
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
			// A subset of sessions runs a routed mechanism through the
			// cluster; the result table lives in the serving replica's
			// side store, so correctness is checked via the run stats
			// (one iteration per recorded snapshot on that replica).
			if r%25 == 0 {
				stats, err := cl.CollateData(
					`SELECT snap_id FROM SnapIds`,
					`SELECT COUNT(*) AS cnt, current_snapshot() AS sid FROM orders`,
					fmt.Sprintf("StressR%d", r))
				if err != nil {
					errs <- fmt.Errorf("session %d routed mechanism: %w", r, err)
					return
				}
				if stats == nil || len(stats.Iterations) == 0 {
					errs <- fmt.Errorf("session %d routed mechanism: empty run stats", r)
					return
				}
			}
			// Another subset pins a session to a replica that is never
			// killed, waits for it to cover the full history, runs a
			// mechanism there and checks every collated row against the
			// shadow model.
			if r%12 == 0 {
				mc, err := client.Dial(raddrs[1+r%2])
				if err != nil {
					errs <- fmt.Errorf("session %d replica dial: %w", r, err)
					return
				}
				defer mc.Close()
				last := latest()
				deadline := time.Now().Add(30 * time.Second)
				for {
					h, err := mc.Horizon()
					if err != nil {
						errs <- fmt.Errorf("session %d replica horizon: %w", r, err)
						return
					}
					if h.Horizon >= last {
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("session %d: replica stuck at horizon %d, want %d", r, h.Horizon, last)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				table := fmt.Sprintf("StressT%d", r)
				stats, err := mc.CollateData(
					`SELECT snap_id FROM SnapIds`,
					`SELECT COUNT(*) AS cnt, current_snapshot() AS sid FROM orders`,
					table)
				if err != nil {
					errs <- fmt.Errorf("session %d replica mechanism: %w", r, err)
					return
				}
				if len(stats.Iterations) != steps+1 {
					errs <- fmt.Errorf("session %d replica mechanism covered %d snapshots, want %d",
						r, len(stats.Iterations), steps+1)
					return
				}
				nrows, bad := 0, 0
				err = mc.Exec(fmt.Sprintf(`SELECT cnt FROM %s`, table), func(_ []string, row []rql.Value) error {
					nrows++
					if row[0].Int() != orders {
						bad++
					}
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("session %d replica mechanism readback: %w", r, err)
					return
				}
				if nrows != steps+1 || bad > 0 {
					errs <- fmt.Errorf("session %d replica mechanism: %d rows (%d wrong), want %d rows all %d",
						r, nrows, bad, steps+1, orders)
				}
			}
		}(r)
	}

	wg.Wait()
	<-writerDone
	<-chaosDone
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Convergence: every replica reaches the final snapshot; the
	// restarted one resumed the stream instead of re-bootstrapping.
	lastSnap := latest()
	for i, n := range nodes {
		if err := n.rep.WaitForHorizon(lastSnap, 30*time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
	if st := nodes[0].rep.Stats(); st.Bootstraps != 0 {
		t.Errorf("restarted replica bootstrapped %d times, want 0 (resume)", st.Bootstraps)
	}

	// Row identity: orders and SnapIds identical to the primary on
	// every replica.
	sorted := func(db *rql.DB, q string) string {
		rows, err := db.Conn().Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out := make([]string, 0, len(rows.Rows))
		for _, row := range rows.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			out = append(out, strings.Join(cells, "|"))
		}
		return strings.Join(out, ";")
	}
	for _, q := range []string{
		`SELECT o_orderkey FROM orders ORDER BY o_orderkey`,
		`SELECT snap_id, snap_ts, label FROM SnapIds ORDER BY snap_id`,
	} {
		want := sorted(pdb, q)
		for i, n := range nodes {
			if got := sorted(n.db, q); got != want {
				t.Errorf("replica %d: %s differs from primary", i, q)
			}
		}
	}
}

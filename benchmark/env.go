package main

import (
	"fmt"
	"os"
	"time"
)

// sizes fixes how large a workload's database, history and snapshot
// sets are. The full sizes are what BENCHMARK.json's numbers are taken
// at; the tiny sizes exist only for the smoke test.
type sizes struct {
	sf         float64 // TPC-H scale factor (0.002 = 3000 orders)
	perSnap    int     // orders replaced by one refresh
	refreshes  int     // refresh steps in the set-up history
	quiet      int     // quiet (empty-delta) snapshots declared after each refresh
	cachePages int     // snapshot page cache capacity; 0 = program default (16384)
	compaction bool    // tiered Pagelog: seal old history into compressed segments
	members    int     // snapshots in one mechanism op's Qs set
	stride     int     // Qs takes every stride-th snapshot
	cycle      int     // ops in one session's schedule, which it runs cyclically
	view       bool    // CREATE RETRO VIEW before the history (commit_refresh)
}

// snapInfo is one declared snapshot and the order keys live in it.
type snapInfo struct {
	id     uint64
	lo, hi int64 // live o_orderkey range, inclusive
}

// shadowOrder is what the benchmark remembers of an orders row it wrote.
type shadowOrder struct {
	cust   int64
	status string
	total  float64
	date   string
}

// env is one set-up database served over loopback TCP.
type env struct {
	sz     sizes
	dir    string
	db     *database
	local  *localConn // in-process connection: set-up, oracle, traced replays
	srv    *rqlServer
	served <-chan error
	addr   string
	ctl    *remoteConn // control connection: ServerStats, Views

	gen     *generator
	snaps   []snapInfo            // every snapshot declared so far, in id order
	orders  map[int64]shadowOrder // every orders row ever written, by key
	orders0 int                   // orders in the database at any time

	loadS, historyS float64
}

// buildEnv loads TPC-H, creates the key indexes (and the retro view),
// builds the snapshot history, starts the server and opens the control
// connection. Everything it does is set-up time.
func buildEnv(sz sizes, seed int64, dir string) (e *env, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e = &env{sz: sz, dir: dir, orders: make(map[int64]shadowOrder)}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	if e.db, err = openDB(dir, sz.cachePages, sz.compaction); err != nil {
		return e, err
	}
	e.local = dbConn(e.db)

	t0 := time.Now()
	e.gen = newGenerator(sz.sf, seed)
	minKey, maxKey, err := loadTPCH(e.local, e.gen)
	if err != nil {
		return e, fmt.Errorf("tpch load: %w", err)
	}
	e.loadS = time.Since(t0).Seconds()
	e.orders0 = int(maxKey - minKey + 1)

	// The same seed gives the same rows: a second generator tells the
	// benchmark what was written without asking the program.
	mirror := newGenerator(sz.sf, seed)
	e.remember(mirrorLoad(mirror))

	t0 = time.Now()
	// The refresh functions delete by order-key range; without these two
	// indexes every refresh scans lineitem and set-up alone would use
	// the run's whole time budget. They exist before the first snapshot,
	// so every snapshot contains them.
	for _, ddl := range []string{
		`CREATE INDEX o_ok ON orders (o_orderkey)`,
		`CREATE INDEX l_ok ON lineitem (l_orderkey)`,
	} {
		if err := e.local.Exec(ddl, nil); err != nil {
			return e, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	if err := ensureSnapIds(e.local); err != nil {
		return e, err
	}
	if sz.view {
		if err := e.local.Exec(viewDDL, nil); err != nil {
			return e, fmt.Errorf("create view: %w", err)
		}
	}
	hist := newHistory(e.local, e.gen, minKey, sz.perSnap)
	lo, hi := minKey, maxKey
	for i := 0; i < sz.refreshes; i++ {
		id, err := refreshStep(hist)
		if err != nil {
			return e, fmt.Errorf("refresh step %d: %w", i, err)
		}
		e.remember(nextOrders(mirror, sz.perSnap))
		lo, hi = lo+int64(sz.perSnap), hi+int64(sz.perSnap)
		e.snaps = append(e.snaps, snapInfo{id: id, lo: lo, hi: hi})
		for q := 0; q < sz.quiet; q++ {
			id, err := quietStep(hist)
			if err != nil {
				return e, fmt.Errorf("quiet step %d/%d: %w", i, q, err)
			}
			e.snaps = append(e.snaps, snapInfo{id: id, lo: lo, hi: hi})
		}
	}
	for i, s := range e.snaps {
		if s.id != e.snaps[0].id+uint64(i) {
			return e, fmt.Errorf("snapshot ids are not contiguous: #%d is %d, first is %d", i, s.id, e.snaps[0].id)
		}
	}
	if sz.compaction {
		// Seal now rather than whenever the background compactor next
		// polls, so every run starts from the same tier layout.
		if _, err := dbSealPagelog(e.db); err != nil {
			return e, fmt.Errorf("seal: %w", err)
		}
	}
	e.historyS = time.Since(t0).Seconds()

	if e.srv, e.addr, e.served, err = startServer(e.db); err != nil {
		return e, err
	}
	if e.ctl, err = e.dial(); err != nil {
		return e, err
	}
	return e, nil
}

// remember records orders rows in the shadow map.
func (e *env) remember(orders []tpchOrder) {
	for _, o := range orders {
		e.orders[o.Row[0].Int()] = shadowOrder{
			cust:   o.Row[1].Int(),
			status: o.Row[2].Text(),
			total:  o.Row[3].Float(),
			date:   o.Row[4].Text(),
		}
	}
}

// dial opens a client session and completes a round trip on it.
func (e *env) dial() (*remoteConn, error) {
	c, err := dial(e.addr)
	if err != nil {
		return nil, err
	}
	if err := remotePing(c); err != nil {
		remoteClose(c)
		return nil, err
	}
	return c, nil
}

// close stops the server, closes the database and removes its files.
func (e *env) close() {
	if e.ctl != nil {
		remoteClose(e.ctl)
	}
	if e.srv != nil {
		if err := stopServer(e.srv, e.served); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: server:", err)
		}
	}
	if e.db != nil {
		if err := dbClose(e.db); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: close:", err)
		}
	}
	os.RemoveAll(e.dir)
}

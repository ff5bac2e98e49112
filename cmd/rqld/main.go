// Command rqld serves an RQL database over TCP with the rqld wire
// protocol. Clients (the client package, or rqlshell -connect) get
// per-session connections with the full SQL surface, snapshot
// declaration, AS OF reads, the four RQL mechanisms, and a STATS
// request exposing server and snapshot-system counters.
//
//	rqld -addr localhost:7427 -pagelog /tmp/pagelog.bin
//
// With -debug-addr an HTTP listener exposes /metrics (Prometheus
// text exposition), /vars (the same counters in plain name/value
// form), /timeline (the telemetry sampler's ring as JSON), /traces
// (the span recorder's ring as Chrome trace-event JSON,
// Perfetto-loadable), /slow (the slow-query log) and net/http/pprof;
// -trace starts with the span recorder on, -slow-threshold arms the
// slow-query log, and -timeline-period tunes the telemetry sampler.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting, drains in-flight queries, then closes the database.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/repl"
	"rql/internal/server"
	"rql/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", server.DefaultAddr, "TCP listen address")
		pagelog     = flag.String("pagelog", "", "back the Pagelog with a file (empty = in memory)")
		cachePages  = flag.Int("cache-pages", 0, "snapshot page cache capacity in pages (0 = default 16384, negative disables)")
		readLatency = flag.Duration("read-latency", 0, "simulated per-Pagelog-read latency (0 = none)")
		skipFactor  = flag.Int("skip-factor", 0, "Skippy skip-merge fanout (0 = default 4)")
		compact     = flag.Bool("compact", false, "enable the background Pagelog compactor (tiered archive)")
		segPages    = flag.Int("segment-pages", 0, "pages per sealed segment when compaction is on (0 = default 1024)")
		minTail     = flag.Int("min-tail-pages", 0, "unsealed tail pages the compactor leaves hot (0 = default 1024)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "close sessions idle longer than this")
		drain       = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain bound")
		debugAddr   = flag.String("debug-addr", "", "HTTP debug listener (/metrics, /traces, /slow, pprof); empty disables")
		trace       = flag.Bool("trace", false, "start with the span recorder enabled")
		slowThresh  = flag.Duration("slow-threshold", 0, "log queries slower than this (0 disables the slow-query log)")
		tlPeriod    = flag.Duration("timeline-period", 0, "telemetry timeline sampling period (0 = default 1s, negative disables)")
		replicaOf   = flag.String("replica-of", "", "run as a read replica of the primary rqld at this address")
		replicaID   = flag.String("replica-id", "", "replica identity reported to the primary (default host:pid)")
		replRetain  = flag.Int("repl-retain", 0, "snapshots of replication history the primary keeps for resume (0 = default)")
	)
	flag.Parse()

	rql.SetTracing(*trace)
	rql.SetSlowQueryThreshold(*slowThresh)

	db, err := rql.Open(rql.Options{
		PagelogPath:          *pagelog,
		CachePages:           *cachePages,
		SimulatedReadLatency: *readLatency,
		SkipFactor:           *skipFactor,
		Compaction: rql.CompactionOptions{
			Enabled:      *compact,
			SegmentPages: *segPages,
			MinTailPages: *minTail,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rqld:", err)
		os.Exit(1)
	}

	// SnapIds exists up front so remote SELECT ... FROM SnapIds and the
	// mechanism Qs queries work before the first snapshot declaration.
	conn := db.Conn()
	if err := conn.EnsureSnapIds(); err != nil {
		fmt.Fprintln(os.Stderr, "rqld:", err)
		os.Exit(1)
	}

	srv := server.New(db, server.Config{
		Addr:           *addr,
		RequestTimeout: *reqTimeout,
		IdleTimeout:    *idleTimeout,
		DrainTimeout:   *drain,
		TimelinePeriod: *tlPeriod,
	})

	// Replication role. A replica tails the primary's snapshot stream
	// and rejects writes; any other rqld is a potential primary and
	// accepts subscriber streams (chaining replicas is not supported: a
	// replica's commits carry no SnapIds registrations to forward).
	var replica *repl.Replica
	var primary *repl.Primary
	if *replicaOf != "" {
		id := *replicaID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		replica, err = repl.NewReplica(db, repl.ReplicaConfig{Primary: *replicaOf, ID: id})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rqld:", err)
			os.Exit(1)
		}
		replica.Start()
		srv.SetReplica(replica)
		fmt.Printf("rqld: replica of %s (id %s)\n", *replicaOf, id)
	} else {
		primary = repl.NewPrimary(db, repl.PrimaryConfig{RetainSnapshots: *replRetain})
		srv.SetPrimary(primary)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	if *debugAddr != "" {
		go func() {
			fmt.Printf("rqld: debug endpoint on http://%s (/metrics /traces /slow /debug/pprof)\n", *debugAddr)
			if err := srv.ServeDebug(*debugAddr); err != nil {
				fmt.Fprintln(os.Stderr, "rqld: debug listener:", err)
			}
		}()
	}

	// Give the listener a moment to bind so the banner shows the
	// resolved address (":0" picks a port).
	for i := 0; i < 100 && srv.Addr() == ""; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if a := srv.Addr(); a != "" {
		fmt.Printf("rqld: serving on %s\n", a)
	}

	// A primary of another protocol version can never be followed:
	// stop serving rather than answer reads from a replica that will
	// never catch up.
	mismatch := make(chan error, 1)
	if replica != nil {
		go func() {
			if err := replica.Wait(); errors.Is(err, wire.ErrVersionMismatch) {
				mismatch <- err
			}
		}()
	}

	code := 0
	select {
	case err := <-done:
		if err != nil && err != server.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rqld:", err)
			os.Exit(1)
		}
	case err := <-mismatch:
		fmt.Fprintf(os.Stderr, "rqld: primary %s: %v\n", *replicaOf, err)
		srv.Shutdown()
		<-done
		code = 1
	case s := <-sig:
		fmt.Printf("rqld: %v, draining...\n", s)
		srv.Shutdown()
		<-done
	}

	if replica != nil {
		replica.Close()
	}
	if primary != nil {
		primary.Close()
	}

	ms := srv.Metrics()
	value := func(key string) uint64 { m, _ := obs.Find(ms, key); return m.Value }
	fmt.Printf("rqld: served %d queries (%d rows) over %d connections, %d snapshots declared\n",
		value("queries_served"), value("rows_streamed"), value("conns_accepted"), value("retro_snapshots"))
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rqld:", err)
		code = 1
	}
	os.Exit(code)
}

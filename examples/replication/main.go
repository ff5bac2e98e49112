// Replication: snapshot-shipping from one writer to retrospective query
// replicas, end to end in one process — start a primary rqld and two
// replica rqld nodes on random ports, write a snapshot history through
// the routing cluster client, watch the replicas bootstrap and tail the
// stream, run AS OF reads and a mechanism routed to the replicas, and
// show a replica rejecting a write with a redirect to the primary.
package main

import (
	"fmt"
	"log"
	"net"

	"rql"
	"rql/client"
	"rql/internal/repl"
	"rql/internal/server"
)

// node bundles one rqld "process": database, server, listener.
type node struct {
	db   *rql.DB
	srv  *server.Server
	addr string
}

func serve(db *rql.DB) (*node, error) {
	srv := server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	return &node{db: db, srv: srv, addr: lis.Addr().String()}, nil
}

func main() {
	// The primary: the single writer. Equivalent to
	//   rqld -listen 127.0.0.1:7427
	pdb, err := rql.Open(rql.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pdb.Close()
	primary := repl.NewPrimary(pdb, repl.PrimaryConfig{})
	defer primary.Close()
	pn, err := serve(pdb)
	if err != nil {
		log.Fatal(err)
	}
	pn.srv.SetPrimary(primary)
	fmt.Printf("primary serving on %s\n", pn.addr)

	// Two replicas. Equivalent to
	//   rqld -listen :7428 -replica-of 127.0.0.1:7427
	// Each opens a replication stream on the primary, receives a
	// consistent bootstrap (catalog, pages, Pagelog, Maplog), then tails
	// one delta per COMMIT WITH SNAPSHOT, applied atomically so the
	// replica's horizon only ever moves between complete snapshots.
	var raddrs []string
	for i := 0; i < 2; i++ {
		rdb, err := rql.Open(rql.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer rdb.Close()
		rep, err := repl.NewReplica(rdb, repl.ReplicaConfig{
			Primary: pn.addr,
			ID:      fmt.Sprintf("replica-%d", i+1),
		})
		if err != nil {
			log.Fatal(err)
		}
		rep.Start()
		defer rep.Close()
		rn, err := serve(rdb)
		if err != nil {
			log.Fatal(err)
		}
		rn.srv.SetReplica(rep)
		raddrs = append(raddrs, rn.addr)
		fmt.Printf("replica %d serving on %s\n", i+1, rn.addr)
	}

	// The cluster client routes by statement: writes, transactions and
	// snapshot declarations go to the primary; SELECT/EXPLAIN, AS OF
	// reads and the four mechanisms go to a replica whose applied
	// horizon covers the needed snapshot (waiting briefly for a lagging
	// one, failing over to the primary if none catches up).
	cl, err := client.OpenCluster(client.ClusterConfig{
		Primary:  pn.addr,
		Replicas: raddrs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := cl.EnsureSnapIds(); err != nil {
		log.Fatal(err)
	}

	// A small history: one snapshot per day of logins.
	exec := func(sql string) {
		if err := cl.Exec(sql, nil); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}
	snap := func(label string) uint64 {
		id, err := cl.DeclareSnapshot(label) // declares and records in SnapIds
		if err != nil {
			log.Fatal(err)
		}
		return id
	}
	exec(`CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)`)
	exec(`INSERT INTO LoggedIn VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	s1 := snap("2008-11-09")
	exec(`DELETE FROM LoggedIn WHERE l_userid = 'UserA'`)
	snap("2008-11-10")
	exec(`INSERT INTO LoggedIn VALUES ('UserD', '2008-11-11 09:01:07', 'DE')`)
	s3 := snap("2008-11-11")

	// An AS OF read through the cluster: the client waits until some
	// replica's horizon covers s1, then serves the read there — the
	// primary is not touched.
	var users int64
	err = cl.ExecAsOf(`SELECT COUNT(*) FROM LoggedIn`, s1,
		func(_ []string, row []rql.Value) error {
			users = row[0].Int()
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AS OF snapshot %d (served by a replica): %d users logged in\n", s1, users)

	// A full retrospective mechanism, also served by a replica: collate
	// the per-country login counts across every snapshot.
	if _, err := cl.AggregateDataInTable(
		`SELECT snap_id FROM SnapIds`,
		`SELECT l_country, COUNT(*) AS logins FROM LoggedIn`,
		"CountryLogins", "(logins,MAX)"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AggregateDataInTable over snapshots %d..%d ran on a replica\n", s1, s3)

	// Writes to a replica are rejected with a redirect naming the
	// primary — clients that dial a replica directly can follow it.
	rc, err := client.Dial(raddrs[0])
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	err = rc.Exec(`INSERT INTO LoggedIn VALUES ('UserE', 'now', 'FR')`, nil)
	if addr, ok := repl.IsRedirect(err); ok {
		fmt.Printf("replica rejected the write; redirect to primary at %s\n", addr)
	} else {
		log.Fatalf("expected a redirect, got %v", err)
	}

	// The primary tracks each replica's acknowledged snapshot and lag;
	// rqlshell exposes the same numbers via the .replicas command.
	st, err := cl.Primary().ReplStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary horizon %d; %d replicas attached:\n", st.Horizon, len(st.Replicas))
	for _, r := range st.Replicas {
		fmt.Printf("  %-10s acked snapshot %d, %d bytes shipped\n", r.ID, r.AckedSnap, r.SentBytes)
	}
}

// Remote: the client/server stack end to end in one process — start an
// rqld server on a random port, connect with the client package, build
// the paper's LoggedIn snapshot set remotely, query one snapshot with
// SELECT AS OF, run CollateData server-side, and read back the server's
// STATS counters.
package main

import (
	"fmt"
	"log"
	"net"

	"rql"
	"rql/client"
	"rql/internal/server"
)

func main() {
	// Server side: an in-memory database served on a random local port.
	db, err := rql.Open(rql.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.Conn().EnsureSnapIds(); err != nil {
		log.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	fmt.Printf("rqld serving on %s\n", lis.Addr())

	// Client side: everything below goes over the wire.
	conn, err := client.Dial(lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	exec := func(sql string) {
		if err := conn.Exec(sql, nil); err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)`)
	exec(`INSERT INTO LoggedIn VALUES
		('UserA', '2008-11-09 13:23:44', 'USA'),
		('UserB', '2008-11-09 15:45:21', 'UK'),
		('UserC', '2008-11-09 15:45:21', 'USA')`)
	s1, err := conn.DeclareSnapshot("2008-11-09")
	if err != nil {
		log.Fatal(err)
	}
	exec(`DELETE FROM LoggedIn WHERE l_userid = 'UserA'`)
	if _, err := conn.DeclareSnapshot("2008-11-10"); err != nil {
		log.Fatal(err)
	}
	exec(`INSERT INTO LoggedIn VALUES ('UserD', '2008-11-11 10:08:04', 'UK')`)
	if _, err := conn.DeclareSnapshot("2008-11-11"); err != nil {
		log.Fatal(err)
	}

	show := func(title, sql string) {
		rows, err := conn.Query(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		fmt.Printf("\n%s\n  %s\n", title, sql)
		for _, r := range rows.Rows {
			fmt.Print("  ")
			for i, v := range r {
				if i > 0 {
					fmt.Print(" | ")
				}
				fmt.Print(v)
			}
			fmt.Println()
		}
	}
	show("Who was logged in at snapshot 1 (remote AS OF)?",
		fmt.Sprintf(`SELECT AS OF %d l_userid FROM LoggedIn`, s1))

	// The mechanism runs entirely server-side; only its statistics and
	// (on demand) the result table cross the wire.
	run, err := conn.CollateData(
		`SELECT snap_id FROM SnapIds`,
		`SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn`,
		"Result")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCollateData ran %d iterations server-side\n", len(run.Iterations))
	show("Every user with the snapshots they appear in",
		`SELECT l_userid, sid FROM Result ORDER BY l_userid, sid`)

	ss, err := conn.ServerStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver stats: %d queries, %d rows streamed, %d snapshots, %d commits\n",
		ss.Value("queries_served"), ss.Value("rows_streamed"), ss.Value("retro_snapshots"), ss.Value("storage_commits"))

	srv.Shutdown()
	if err := <-served; err != server.ErrServerClosed {
		log.Fatal(err)
	}
}

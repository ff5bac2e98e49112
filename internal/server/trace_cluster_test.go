package server

import (
	"net"
	"testing"
	"time"

	"rql"
	"rql/client"
	"rql/internal/obs"
	"rql/internal/repl"
)

// TestClusterStitchedTrace is the cross-node observability acceptance
// test: one logical cluster call whose legs land on different nodes
// must produce a single stitched trace — every server-rooted span on
// every member carries the same client-minted trace ID.
//
// The replica here joined but never started applying (horizon 0), so a
// routed read deterministically probes it, gives up at HorizonWait,
// and falls back to the primary: a replica leg (the horizon probe) and
// a primary leg (the statement) inside one logical call.
func TestClusterStitchedTrace(t *testing.T) {
	wasOn := obs.Enabled()
	obs.SetTracing(true)
	t.Cleanup(func() {
		obs.SetTracing(wasOn)
		obs.ResetSpans()
	})

	_, paddr := startServer(t, Config{})

	// Replica node: subscribed identity, replication loop never started.
	rdb, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	rep, err := repl.NewReplica(rdb, repl.ReplicaConfig{Primary: paddr, ID: "stalled"})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := New(rdb, Config{})
	rsrv.SetReplica(rep)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rsrv.Serve(lis) }()
	t.Cleanup(func() {
		rsrv.Shutdown()
		<-done
	})
	raddr := lis.Addr().String()

	cl, err := client.OpenCluster(client.ClusterConfig{
		Primary:     paddr,
		Replicas:    []string{raddr},
		HorizonWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if err := cl.Exec(`CREATE TABLE ct (x INTEGER); INSERT INTO ct VALUES (7)`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeclareSnapshot("ct-1"); err != nil {
		t.Fatal(err)
	}

	// One logical read: the cluster needs its horizon, the stalled
	// replica can't serve it, the primary does.
	obs.ResetSpans()
	rows, err := cl.Query(`SELECT x FROM ct`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != 7 {
		t.Fatalf("routed read returned %+v, want one row of 7", rows)
	}

	id := cl.LastTrace()
	if id == 0 {
		t.Fatal("cluster call reported no trace ID")
	}
	spans := obs.TraceSpans(id)
	if len(spans) == 0 {
		t.Fatalf("trace %#x recorded no spans", id)
	}
	// Both legs joined the one trace: the replica's horizon probe and
	// the primary's statement execution are server-rooted requests from
	// two different sessions, stitched by the propagated context.
	var sawProbe, sawExec bool
	for _, sp := range spans {
		if sp.Trace != id {
			t.Fatalf("span %s carries trace %#x, want %#x", sp.Name, sp.Trace, id)
		}
		switch sp.Name {
		case "server.horizon":
			sawProbe = true
		case "server.exec":
			sawExec = true
		}
	}
	if !sawProbe || !sawExec {
		names := make([]string, 0, len(spans))
		for _, sp := range spans {
			names = append(names, sp.Name)
		}
		t.Fatalf("trace %#x should hold the replica probe and the primary exec, got %v", id, names)
	}

	// The cluster-side fetch groups the same trace per member, labeled
	// by node, ready for stitched export.
	nodes, err := cl.TraceSpans(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 2 {
		t.Fatalf("TraceSpans returned %d nodes, want primary and replica", len(nodes))
	}
	for _, n := range nodes {
		if n.Node == "" {
			t.Fatalf("node label missing in %+v", nodes)
		}
		for _, sp := range n.Spans {
			if sp.Trace != id {
				t.Fatalf("node %s span %s carries trace %#x, want %#x", n.Node, sp.Name, sp.Trace, id)
			}
		}
	}

	// Read your snapshot: a COMMIT WITH SNAPSHOT carried by ExecAsOf
	// advances the client horizon like one carried by Exec, so the next
	// routed read skips the replica that has not applied it.
	if err := cl.Exec(`BEGIN; INSERT INTO ct VALUES (8)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.ExecAsOf(`SELECT x FROM ct; COMMIT WITH SNAPSHOT`, 1, nil); err != nil {
		t.Fatal(err)
	}
	if declared := cl.Primary().LastSnapshot(); cl.Horizon() != declared {
		t.Fatalf("horizon %d after ExecAsOf declared snapshot %d", cl.Horizon(), declared)
	}
	if rows, err = cl.Query(`SELECT x FROM ct`); err != nil || len(rows.Rows) != 2 {
		t.Fatalf("read after the declared snapshot: %+v, %v; want both rows", rows, err)
	}
}

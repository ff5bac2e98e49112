package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/server"
	"rql/internal/wire"
)

// scriptedPeer returns a Conn over a net.Pipe whose far end answers the
// handshake and then runs script, the hand-written server of one test.
func scriptedPeer(t *testing.T, script func(br *bufio.Reader, bw *bufio.Writer)) *Conn {
	t.Helper()
	near, far := net.Pipe()
	go func() {
		defer far.Close()
		br, bw := bufio.NewReader(far), bufio.NewWriter(far)
		if op, _, err := wire.ReadFrame(br); err != nil || op != wire.ReqHello {
			return
		}
		e := &wire.Enc{}
		e.Uvarint(wire.ProtocolVersion)
		e.String("scripted")
		wire.WriteFrame(bw, wire.RespHello, e.B)
		bw.Flush()
		script(br, bw)
	}()
	c, err := NewConn(near)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// answer reads one request frame and replies with (op, body); it
// reports the request's opcode, 0 once the client is gone.
func answer(br *bufio.Reader, bw *bufio.Writer, op byte, body []byte) byte {
	req, _, err := wire.ReadFrame(br)
	if err != nil {
		return 0
	}
	wire.WriteFrame(bw, op, body)
	bw.Flush()
	return req
}

type frame struct {
	op   byte
	body []byte
}

// replies scripts a peer that answers the i-th request with frames[i].
func replies(frames ...frame) func(*bufio.Reader, *bufio.Writer) {
	return func(br *bufio.Reader, bw *bufio.Writer) {
		for _, f := range frames {
			answer(br, bw, f.op, f.body)
		}
	}
}

var (
	testRun = &rql.RunStats{
		Mechanism: "CollateData", ResultRows: 7, PruneReason: "why not",
		Iterations: []rql.IterationCost{{Snapshot: 1, QqRows: 9}, {Snapshot: 2, Pruned: true}},
	}
	testSpans = []Span{{Trace: 1, ID: 2, Parent: 1, Name: "server.exec", Start: time.Unix(100, 500),
		Duration: time.Millisecond, Attrs: []obs.Attr{{Key: "sql", IsStr: true, Str: "SELECT 1"}, {Key: "rows", Int: 4}}}}
	testMetrics = []obs.Metric{
		{Name: "queries_served", Value: 3},
		{Name: "request_latency_seconds", Kind: obs.KindHistogram,
			Bounds: []float64{0.001, 0.01}, Counts: []uint64{10, 20, 30}, Sum: 1.25},
	}
	testPoints = []TimelinePoint{{When: time.Unix(200, 0), Interval: time.Second,
		Rates: map[string]float64{"queries_served": 2.5}, Gauges: map[string]float64{"conns_active": 1}}}
	testSlow    = []SlowEntry{{SQL: "SELECT 1", Duration: time.Second, Trace: 9, When: time.Unix(300, 0), Rows: 1}}
	testObjs    = []rql.ObjectInfo{{Kind: "index", Name: "i", Table: "t", Temp: true}}
	testViews   = []ViewInfo{{Name: "v", Mechanism: "CollateData", Qq: "SELECT 1", LastSnap: 4, Rows: 2}}
	testHorizon = wire.HorizonInfo{Role: wire.RoleReplica, Horizon: 5, LSN: 6, Primary: "p:1"}
	testRepl    = wire.ReplStats{Role: wire.RolePrimary, Horizon: 4, LSN: 9,
		Replicas: []wire.ReplicaStat{{ID: "r1", Addr: "a:1", Connected: true, AckedSnap: 3, AckedLSN: 8, SentBytes: 100}}}
)

// runReply is a RespRun body: the presence flag, then the statistics.
func runReply(e *wire.Enc) {
	e.Bool(true)
	wire.EncodeRunStats(e, testRun)
}

type slowLog struct {
	Threshold time.Duration
	Entries   []SlowEntry
}

type timeline struct {
	Period time.Duration
	Points []TimelinePoint
}

// singleReply has, per single-reply request, a well-formed reply body,
// the Conn method that issues the request, and what that method must
// return for the body. TestRequestContract fails on a wire.Requests row
// without an entry, so a new request cannot skip the contract.
var singleReply = map[byte]struct {
	reply  func(*wire.Enc)
	invoke func(*Conn) (any, error)
	want   any
}{
	wire.ReqSnap: {func(e *wire.Enc) { e.Uvarint(300) },
		func(c *Conn) (any, error) { return c.DeclareSnapshot("l") }, uint64(300)},
	wire.ReqMech: {runReply,
		func(c *Conn) (any, error) { return c.CollateData("qs", "qq", "t") }, testRun},
	wire.ReqStats: {func(e *wire.Enc) { wire.EncodeMetrics(e, testMetrics) },
		func(c *Conn) (any, error) { s, err := c.ServerStats(); return s.Metrics, err }, testMetrics},
	wire.ReqObjs: {func(e *wire.Enc) { wire.EncodeObjects(e, testObjs) },
		func(c *Conn) (any, error) { return c.Objects() }, testObjs},
	wire.ReqRun: {runReply,
		func(c *Conn) (any, error) { return c.LastRun() }, testRun},
	wire.ReqTblSt: {func(e *wire.Enc) { e.Uvarint(3); e.Varint(100); e.Varint(50) },
		func(c *Conn) (any, error) { return c.TableStats("t") }, rql.TableStats{Rows: 3, DataBytes: 100, IndexBytes: 50}},
	wire.ReqPing: {func(*wire.Enc) {},
		func(c *Conn) (any, error) { return nil, c.Ping() }, nil},
	wire.ReqTrace: {func(e *wire.Enc) { wire.EncodeSpans(e, testSpans) },
		func(c *Conn) (any, error) { return c.TraceSpans(1) }, testSpans},
	wire.ReqSlow: {func(e *wire.Enc) { wire.EncodeSlowEntries(e, time.Millisecond, testSlow) },
		func(c *Conn) (any, error) { th, es, err := c.SlowQueries(); return slowLog{th, es}, err }, slowLog{time.Millisecond, testSlow}},
	wire.ReqReset: {func(*wire.Enc) {},
		func(c *Conn) (any, error) { return nil, c.ResetStats() }, nil},
	wire.ReqHorizon: {func(e *wire.Enc) { wire.EncodeHorizonInfo(e, testHorizon) },
		func(c *Conn) (any, error) { return c.Horizon() }, testHorizon},
	wire.ReqReplStats: {func(e *wire.Enc) { wire.EncodeReplStats(e, testRepl) },
		func(c *Conn) (any, error) { return c.ReplStats() }, testRepl},
	wire.ReqViews: {func(e *wire.Enc) { wire.EncodeViews(e, testViews) },
		func(c *Conn) (any, error) { return c.Views() }, testViews},
	wire.ReqTimeline: {func(e *wire.Enc) { wire.EncodeTimeline(e, time.Second, testPoints) },
		func(c *Conn) (any, error) { p, pts, err := c.Timeline(); return timeline{p, pts}, err }, timeline{time.Second, testPoints}},
}

// TestRequestContract walks wire.Requests and holds every single-reply
// request to the one contract Conn.call owns: the declared reply
// decodes; RespError is a *RemoteError and the connection lives on; any
// other opcode, and the reply body cut at any byte, poisons the
// connection with ErrConnBroken.
func TestRequestContract(t *testing.T) {
	pong := frame{wire.RespPong, []byte(nil)}
	for _, req := range wire.Requests {
		if req.Reply == 0 || req.Op == wire.ReqHello { // streams; the handshake is NewConn's
			continue
		}
		tc, ok := singleReply[req.Op]
		if !ok {
			t.Errorf("%s: no entry in singleReply", req.Name)
			continue
		}
		e := &wire.Enc{}
		tc.reply(e)
		body := e.B

		t.Run(req.Name, func(t *testing.T) {
			sent := make(chan byte, 1)
			c := scriptedPeer(t, func(br *bufio.Reader, bw *bufio.Writer) { sent <- answer(br, bw, req.Reply, body) })
			got, err := tc.invoke(c)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("happy reply: %+v, %v; want %+v", got, err, tc.want)
			}
			if op := <-sent; op != req.Op {
				t.Fatalf("the method sent opcode %#x, want %#x", op, req.Op)
			}

			c = scriptedPeer(t, replies(frame{wire.RespError, wire.EncodeError(errors.New("nope"))}, pong))
			var re *RemoteError
			if _, err := tc.invoke(c); !errors.As(err, &re) || re.Msg != "nope" || errors.Is(err, ErrConnBroken) {
				t.Fatalf("RespError: %v, want the RemoteError alone", err)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("request after a RemoteError: %v, want the connection still usable", err)
			}

			c = scriptedPeer(t, replies(frame{wire.RespDone, body}, pong))
			if _, err := tc.invoke(c); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("wrong reply opcode: %v, want ErrConnBroken", err)
			}
			if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("request on a poisoned connection: %v, want ErrConnBroken", err)
			}

			for cut := range body {
				c := scriptedPeer(t, replies(frame{req.Reply, body[:cut]}, pong))
				if _, err := tc.invoke(c); !errors.Is(err, ErrConnBroken) || !errors.Is(err, wire.ErrTruncated) {
					t.Fatalf("body cut at %d of %d: %v, want ErrConnBroken wrapping ErrTruncated", cut, len(body), err)
				}
				if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
					t.Fatalf("request after a cut body: %v, want ErrConnBroken", err)
				}
			}
		})
	}
}

// pipeServer serves a fresh in-memory database through the real session
// loop and returns a Conn to it over a net.Pipe.
func pipeServer(t *testing.T) *Conn {
	t.Helper()
	db, err := rql.Open(rql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{TimelinePeriod: -1})
	t.Cleanup(func() {
		srv.Shutdown()
		db.Close()
	})
	near, far := net.Pipe()
	srv.ServeConn(far)
	c, err := NewConn(near)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.EnsureSnapIds(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeclareSnapshotCommitsOpenTx: DeclareSnapshot inside BEGIN commits
// the transaction WITH SNAPSHOT and records its SnapIds row, and the
// Conn's transaction state follows the reply.
func TestDeclareSnapshotCommitsOpenTx(t *testing.T) {
	c := pipeServer(t)
	if err := c.Exec(`CREATE TABLE t (x INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`BEGIN; INSERT INTO t VALUES (7)`, nil); err != nil {
		t.Fatal(err)
	}
	if !c.InTx() {
		t.Fatal("InTx() false inside BEGIN")
	}
	id, err := c.DeclareSnapshot("x")
	if err != nil {
		t.Fatal(err)
	}
	if c.InTx() || c.LastSnapshot() != id {
		t.Fatalf("after DeclareSnapshot: InTx %v, LastSnapshot %d; want false, %d", c.InTx(), c.LastSnapshot(), id)
	}
	for q, want := range map[string]string{
		fmt.Sprintf(`SELECT AS OF %d x FROM t`, id): "7",
		`SELECT snap_id, label FROM SnapIds`:        fmt.Sprintf("%d|x", id),
	} {
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []string
		for _, r := range rows.Rows {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			got = append(got, strings.Join(cells, "|"))
		}
		if strings.Join(got, ";") != want {
			t.Fatalf("%s: %v, want %s", q, got, want)
		}
	}
}

// TestClusterFailsOverOnBrokenReplica: a replica that handshakes and
// answers the horizon probe but then breaks the protocol on the read —
// an unexpected opcode, or a batch cut short — is a failed connection,
// not a verdict on the statement: the routed read must drop the member
// and succeed on the primary.
func TestClusterFailsOverOnBrokenReplica(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lis.Addr().String() // the dropped member's redial is refused
	lis.Close()

	horizon := &wire.Enc{}
	wire.EncodeHorizonInfo(horizon, wire.HorizonInfo{Role: wire.RoleReplica, Horizon: 100, LSN: 1})
	for name, garbage := range map[string]frame{
		"unexpected opcode": {wire.RespHorizon, horizon.B},
		"truncated batch":   {wire.RespBatch, []byte{2, 9}},
	} {
		t.Run(name, func(t *testing.T) {
			primary := pipeServer(t)
			replica := scriptedPeer(t, replies(frame{wire.RespHorizon, horizon.B}, garbage))
			m := &member{addr: deadAddr, conn: replica}
			cl := &Cluster{
				cfg:     ClusterConfig{HorizonWait: time.Second, DialTimeout: time.Second},
				primary: primary,
				reps:    []*member{m},
			}
			if err := cl.Exec(`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (7)`, nil); err != nil {
				t.Fatal(err)
			}
			rows, err := cl.Query(`SELECT x FROM t`)
			if err != nil {
				t.Fatalf("routed read: %v, want failover to the primary", err)
			}
			if len(rows.Rows) != 1 || rows.Rows[0][0].Int() != 7 {
				t.Fatalf("routed read returned %+v, want one row of 7", rows)
			}
			if m.conn != nil || m.probed {
				t.Fatalf("the broken replica was not dropped: %+v", m)
			}
		})
	}
}

// TestClusterExecAsOfAdvancesHorizon: a write batch ending in COMMIT
// WITH SNAPSHOT moves the client horizon whichever Exec form carried it,
// so the next routed read waits for a member that has applied it.
func TestClusterExecAsOfAdvancesHorizon(t *testing.T) {
	primary := pipeServer(t)
	cl := &Cluster{cfg: ClusterConfig{HorizonWait: time.Second}, primary: primary}
	if err := cl.Exec(`CREATE TABLE t (x INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	first, err := cl.DeclareSnapshot("first")
	if err != nil {
		t.Fatal(err)
	}
	// AS OF binds only the batch's SELECTs; its COMMIT commits the open
	// transaction and declares.
	if err := cl.Exec(`BEGIN; INSERT INTO t VALUES (1)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.ExecAsOf(`SELECT x FROM t; COMMIT WITH SNAPSHOT`, first, nil); err != nil {
		t.Fatal(err)
	}
	declared := primary.LastSnapshot()
	if declared <= first || cl.Horizon() != declared {
		t.Fatalf("after COMMIT WITH SNAPSHOT through ExecAsOf: horizon %d, declared %d (first %d)", cl.Horizon(), declared, first)
	}
}

// TestClusterPrimaryCallsAreRouted: Begin and Commit are routed logical
// calls like every other, so after a replica served a read, LastStats
// and LastTrace describe the primary's transaction, not that read.
func TestClusterPrimaryCallsAreRouted(t *testing.T) {
	primary, replica := pipeServer(t), pipeServer(t)
	for _, c := range []*Conn{primary, replica} {
		if err := c.Exec(`CREATE TABLE t (x INTEGER)`, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := replica.Exec(`INSERT INTO t VALUES (1), (2), (3)`, nil); err != nil {
		t.Fatal(err)
	}
	cl := &Cluster{
		cfg:      ClusterConfig{HorizonWait: time.Second},
		primary:  primary,
		reps:     []*member{{addr: "replica", conn: replica}},
		lastConn: primary,
	}
	rows, err := cl.Query(`SELECT x FROM t`)
	if err != nil || len(rows.Rows) != 3 {
		t.Fatalf("routed read: %+v, %v; want the replica's three rows", rows, err)
	}
	read := cl.LastTrace()
	if got := cl.LastStats().RowsReturned; got != 3 || read == 0 {
		t.Fatalf("after the read: %d rows, trace %x; want 3 rows and a trace", got, read)
	}
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := cl.LastStats().RowsReturned; got != 0 {
		t.Errorf("LastStats after Begin+Commit reports %d rows: still the replica's read", got)
	}
	if got := cl.LastTrace(); got == read || got == 0 {
		t.Errorf("LastTrace after Begin+Commit = %x, want a new trace (the read's was %x)", got, read)
	}
}

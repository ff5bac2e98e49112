package client

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rql"
	"rql/internal/obs"
	"rql/internal/sql"
	"rql/internal/wire"
)

// ClusterConfig names the members of a replicated rqld deployment: one
// writer primary and any number of snapshot-shipping replicas.
type ClusterConfig struct {
	// Primary is the writer's address. Required.
	Primary string
	// Replicas are the read replicas' addresses. May be empty, in which
	// case every request is served by the primary.
	Replicas []string
	// HorizonWait bounds how long a routed read waits for a replica to
	// apply the snapshot it needs before failing over to the primary
	// (default 2s).
	HorizonWait time.Duration
	// DialTimeout bounds each member connection attempt (default 5s).
	DialTimeout time.Duration
}

// Cluster is a routing client over a replicated deployment. Writes,
// transactions, and snapshot declarations go to the primary;
// retrospective work — SELECT/EXPLAIN statements, AS OF reads, and the
// four RQL mechanisms — is spread round-robin over replicas whose
// applied-snapshot horizon covers the snapshot the request needs. A
// replica that is down or lagging past HorizonWait is skipped; with no
// usable replica the read falls back to the primary, so a Cluster with
// zero live replicas degrades to a plain connection.
//
// Like Conn, a Cluster carries one request at a time and is meant for
// use from one goroutine; open one Cluster per goroutine.
type Cluster struct {
	cfg     ClusterConfig
	primary *Conn
	reps    []*member
	rr      int    // round-robin cursor over reps
	horizon uint64 // latest snapshot id this client knows about

	// trace is the id pinned across every leg of the in-flight logical
	// call (0 outside a call); lastTrace remembers the most recent one
	// so .trace-style tooling can fetch the stitched tree afterwards.
	trace     uint64
	lastTrace uint64

	// lastConn is the member that served the most recent statement (the
	// primary before the first), so LastStats reports the statistics of
	// the node that actually ran it.
	lastConn *Conn
}

// member is one replica slot. conn is nil while the replica is down;
// reads lazily redial it. horizon caches the replica's last observed
// applied-snapshot horizon: it only ever advances on a live node, so a
// cached value covering the needed snapshot lets a read skip the
// pre-flight Horizon round-trip. probed records whether the current
// connection has answered at least one Horizon probe (a fresh, never
// bootstrapped replica must not serve even horizon-0 reads).
type member struct {
	addr    string
	conn    *Conn
	horizon uint64
	probed  bool
}

// clusterSeq staggers the initial round-robin position of successive
// Cluster clients so a fleet of single-read sessions does not all land
// on the same replica.
var clusterSeq atomic.Uint32

// OpenCluster connects to the primary (required) and to every replica
// that answers; replicas that are down at open time are retried lazily
// on first use.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Primary == "" {
		return nil, errors.New("client: cluster needs a primary address")
	}
	if cfg.HorizonWait <= 0 {
		cfg.HorizonWait = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	p, err := DialTimeout(cfg.Primary, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: cluster primary %s: %w", cfg.Primary, err)
	}
	cl := &Cluster{cfg: cfg, primary: p, lastConn: p}
	for _, addr := range cfg.Replicas {
		m := &member{addr: addr}
		m.conn, _ = DialTimeout(addr, cfg.DialTimeout) // nil on failure: lazy redial
		cl.reps = append(cl.reps, m)
	}
	if len(cl.reps) > 0 {
		cl.rr = int(clusterSeq.Add(1)) % len(cl.reps)
	}
	return cl, nil
}

// Close closes every member connection.
func (cl *Cluster) Close() error {
	err := cl.primary.Close()
	for _, m := range cl.reps {
		if m.conn != nil {
			m.conn.Close()
			m.conn = nil
		}
	}
	return err
}

// Primary returns the primary connection for direct use.
func (cl *Cluster) Primary() *Conn { return cl.primary }

// LastStats returns the execution statistics of the most recent
// statement, from whichever member served it.
func (cl *Cluster) LastStats() rql.ExecStats { return cl.lastConn.LastStats() }

// Objects lists tables and indexes; schema is identical cluster-wide,
// so the primary answers.
func (cl *Cluster) Objects() ([]rql.ObjectInfo, error) { return cl.primary.Objects() }

// SetTracing toggles the span recorder on every live member, so a
// routed query's legs are recorded wherever they land. Replicas that
// are down are skipped (they come back with their own setting); the
// first error wins but every member is still attempted.
func (cl *Cluster) SetTracing(on bool) error {
	err := cl.primary.SetTracing(on)
	for _, m := range cl.reps {
		if c := cl.replicaConn(m); c != nil {
			if e := c.SetTracing(on); e != nil && err == nil {
				err = e
			}
		}
	}
	return err
}

// Horizon returns the latest snapshot id this client has seen declared
// (via DeclareSnapshot or COMMIT WITH SNAPSHOT through this Cluster).
// Routed reads wait for a replica to cover it.
func (cl *Cluster) Horizon() uint64 { return cl.horizon }

// beginTrace mints one trace id for a logical call so every leg it
// issues — horizon probes, the replica read, a primary fallback — is
// tagged with the same distributed trace and the per-node server spans
// stitch into one tree. The returned func restores per-request minting
// on every member the call may have touched.
func (cl *Cluster) beginTrace() func() {
	cl.trace = NewTraceID()
	cl.lastTrace = cl.trace
	return func() {
		cl.trace = 0
		cl.primary.SetTraceContext(0, false)
		for _, m := range cl.reps {
			if m.conn != nil {
				m.conn.SetTraceContext(0, false)
			}
		}
	}
}

// pin tags c with the in-flight logical call's trace id.
func (cl *Cluster) pin(c *Conn) *Conn {
	if cl.trace != 0 {
		c.SetTraceContext(cl.trace, true)
	}
	return c
}

// LastTrace returns the trace id minted for the most recent routed
// logical call (0 if none ran yet). Pass it to TraceSpans to collect
// the call's spans from every member.
func (cl *Cluster) LastTrace() uint64 { return cl.lastTrace }

// NodeSpans groups one member's recorded spans for cross-node trace
// stitching (rendered as one Perfetto file with a lane per node).
type NodeSpans = obs.NodeSpans

// TraceSpans fetches one trace's spans from every live member (the
// whole ring for id 0). Members that are down are skipped; an error is
// returned only when no member contributed any spans.
func (cl *Cluster) TraceSpans(id uint64) ([]NodeSpans, error) {
	var (
		out      []NodeSpans
		firstErr error
	)
	collect := func(node string, c *Conn) {
		spans, err := c.TraceSpans(id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if len(spans) > 0 {
			out = append(out, NodeSpans{Node: node, Spans: spans})
		}
	}
	collect("primary "+cl.cfg.Primary, cl.primary)
	for _, m := range cl.reps {
		if c := cl.replicaConn(m); c != nil {
			collect("replica "+m.addr, c)
		}
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// readOnlySQL reports whether every statement in src is a SELECT or an
// EXPLAIN — safe to serve from a read-only replica. Parse errors and
// writes route to the primary, which owns the authoritative error.
func readOnlySQL(src string) bool {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return false
	}
	for _, s := range stmts {
		switch s.(type) {
		case *sql.SelectStmt, *sql.ExplainStmt:
		default:
			return false
		}
	}
	return true
}

// Exec routes one or more statements: read-only batches go to a
// replica when one covers the current horizon, everything else to the
// primary. Inside an explicit transaction all statements stay on the
// primary so reads observe the transaction's own writes.
func (cl *Cluster) Exec(sqlText string, cb rql.RowCallback, params ...rql.Value) error {
	return cl.exec(sqlText, 0, cb, params)
}

// ExecAsOf routes an AS OF batch to a replica whose horizon covers
// snap, falling back to the primary.
func (cl *Cluster) ExecAsOf(sqlText string, snap uint64, cb rql.RowCallback, params ...rql.Value) error {
	return cl.exec(sqlText, snap, cb, params)
}

func (cl *Cluster) exec(sqlText string, asOf uint64, cb rql.RowCallback, params []rql.Value) error {
	if cl.primary.InTx() || !readOnlySQL(sqlText) {
		return cl.route(0, true, func(c *Conn) error { return c.exec(sqlText, asOf, cb, params) })
	}
	need := asOf
	if need == 0 {
		need = cl.horizon
	}
	// Rows are buffered per attempt so a mid-stream replica failure
	// (retried on another member) never delivers duplicate rows to cb.
	var buf rql.Rows
	err := cl.route(need, false, func(c *Conn) error {
		buf = rql.Rows{}
		return c.exec(sqlText, asOf, collect(&buf), params)
	})
	if err != nil || cb == nil {
		return err
	}
	for _, row := range buf.Rows {
		if err := cb(buf.Cols, row); err != nil {
			return err
		}
	}
	return nil
}

// route is the one routing body: it runs fn as one logical call under
// one trace id — on the primary when primaryOnly, otherwise through the
// failover read loop on a member covering snap — and then advances the
// client horizon past any snapshot a primary leg declared.
func (cl *Cluster) route(snap uint64, primaryOnly bool, fn func(*Conn) error) error {
	defer cl.beginTrace()()
	if !primaryOnly {
		return cl.read(snap, fn)
	}
	cl.lastConn = cl.primary
	err := fn(cl.pin(cl.primary))
	cl.noteSnapshot(cl.primary.LastSnapshot())
	return err
}

// Query executes a single SELECT through the routing Exec.
func (cl *Cluster) Query(sqlText string, params ...rql.Value) (*rql.Rows, error) {
	rows := &rql.Rows{}
	if err := cl.Exec(sqlText, collect(rows), params...); err != nil {
		return nil, err
	}
	return rows, nil
}

// Begin, Commit, Rollback, CommitWithSnapshot, DeclareSnapshot,
// EnsureSnapIds and RecordSnapshot run on the primary, through route
// like every primary-only call: replicas reject writes with a redirect.
// A declared snapshot advances the cluster's read horizon. The SnapIds
// row DeclareSnapshot writes rides the declaring commit, so a replica
// covering the snapshot holds it; a replica creates its own SnapIds with
// the first row it is shipped. A RecordSnapshot row is inserted after
// its snapshot's commit and reaches replicas only by bootstrap.

func (cl *Cluster) Begin() error    { return cl.route(0, true, (*Conn).Begin) }
func (cl *Cluster) Commit() error   { return cl.route(0, true, (*Conn).Commit) }
func (cl *Cluster) Rollback() error { return cl.route(0, true, (*Conn).Rollback) }

func (cl *Cluster) CommitWithSnapshot() (id uint64, err error) {
	err = cl.route(0, true, func(c *Conn) error { id, err = c.CommitWithSnapshot(); return err })
	return id, err
}

func (cl *Cluster) DeclareSnapshot(label string) (id uint64, err error) {
	err = cl.route(0, true, func(c *Conn) error { id, err = c.DeclareSnapshot(label); return err })
	return id, err
}

func (cl *Cluster) EnsureSnapIds() error { return cl.route(0, true, (*Conn).EnsureSnapIds) }

func (cl *Cluster) RecordSnapshot(snapID uint64, ts time.Time, label string) error {
	return cl.route(0, true, func(c *Conn) error { return c.RecordSnapshot(snapID, ts, label) })
}

// The four RQL mechanisms route to a replica covering the cluster's
// horizon: the snapshot set Qs names only snapshots the client has seen
// declared, and the result table is TEMP (session side store), which
// replicas accept.

func (cl *Cluster) CollateData(qs, qq, table string) (*rql.RunStats, error) {
	return cl.mech(wire.MechCollate, qs, qq, table, "")
}

func (cl *Cluster) AggregateDataInVariable(qs, qq, table, aggFunc string) (*rql.RunStats, error) {
	return cl.mech(wire.MechAggVar, qs, qq, table, aggFunc)
}

func (cl *Cluster) AggregateDataInTable(qs, qq, table, pairs string) (*rql.RunStats, error) {
	return cl.mech(wire.MechAggTable, qs, qq, table, pairs)
}

func (cl *Cluster) CollateDataIntoIntervals(qs, qq, table string) (*rql.RunStats, error) {
	return cl.mech(wire.MechIntervals, qs, qq, table, "")
}

func (cl *Cluster) mech(kind byte, qs, qq, table, extra string) (run *rql.RunStats, err error) {
	err = cl.route(cl.horizon, false, func(c *Conn) error {
		run, err = c.mech(kind, qs, qq, table, extra)
		return err
	})
	return run, err
}

// noteSnapshot advances the client-side horizon.
func (cl *Cluster) noteSnapshot(id uint64) {
	if id > cl.horizon {
		cl.horizon = id
	}
}

// read runs fn on a replica whose applied horizon covers snap, trying
// each live replica round-robin, waiting up to HorizonWait for a
// lagging one, and finally failing over to the primary. Statement
// errors (the server ran the request and said no) are returned as-is;
// connection errors drop the replica and move on.
func (cl *Cluster) read(snap uint64, fn func(*Conn) error) error {
	deadline := time.Now().Add(cl.cfg.HorizonWait)
	for {
		tried := 0
		for range cl.reps {
			m := cl.reps[cl.rr%len(cl.reps)]
			cl.rr++
			c := cl.replicaConn(m)
			if c == nil {
				continue
			}
			cl.pin(c)
			tried++
			if !m.probed || m.horizon < snap {
				h, err := c.Horizon()
				if err != nil {
					// A member that refused the probe stays connected but is
					// never usable here; a failed connection is dropped.
					if !isStatementError(err) {
						cl.dropReplica(m)
					}
					continue
				}
				if h.Role == wire.RoleReplica && h.LSN == 0 {
					continue // joined but not yet bootstrapped: nothing to serve
				}
				m.probed = true
				if h.Horizon > m.horizon {
					m.horizon = h.Horizon
				}
			}
			if m.horizon < snap {
				continue // lagging; maybe another replica covers it
			}
			cl.lastConn = c
			if err := fn(c); err == nil || isStatementError(err) {
				return err
			}
			cl.dropReplica(m)
		}
		// No replica connected after a full pass (none configured, or all
		// down), or the lagging ones ran out of time: the primary serves.
		if tried == 0 || time.Now().After(deadline) {
			cl.lastConn = cl.primary
			return fn(cl.pin(cl.primary))
		}
		time.Sleep(10 * time.Millisecond) // lagging replicas: poll horizons
	}
}

// replicaConn returns m's live connection, redialing if it was dropped.
func (cl *Cluster) replicaConn(m *member) *Conn {
	if m.conn != nil {
		return m.conn
	}
	c, err := DialTimeout(m.addr, cl.cfg.DialTimeout)
	if err != nil {
		return nil
	}
	m.conn = c
	return c
}

func (cl *Cluster) dropReplica(m *member) {
	if m.conn != nil {
		m.conn.Close()
		m.conn = nil
	}
	// The address may come back as a different process with an empty
	// database; re-probe before trusting it again.
	m.horizon, m.probed = 0, false
}

// isStatementError reports whether err is a verdict on the request — the
// server ran it and said no, or the caller's row callback did — rather
// than a failed connection: those must not trigger failover, because
// the statement already executed, or deterministically cannot.
func isStatementError(err error) bool {
	return !errors.Is(err, ErrConnBroken) && !errors.Is(err, ErrConnClosed)
}

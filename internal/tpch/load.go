package tpch

import (
	"fmt"
	"time"

	"rql/internal/core"
	"rql/internal/record"
	"rql/internal/sql"
)

// DDL is the TPC-H schema, without additional indices, mirroring the
// paper's dbgen-produced database ("without additional indices", §5).
var DDL = []string{
	`CREATE TABLE region (
		r_regionkey INTEGER, r_name TEXT, r_comment TEXT)`,
	`CREATE TABLE nation (
		n_nationkey INTEGER, n_name TEXT, n_regionkey INTEGER, n_comment TEXT)`,
	`CREATE TABLE supplier (
		s_suppkey INTEGER, s_name TEXT, s_address TEXT, s_nationkey INTEGER,
		s_phone TEXT, s_acctbal REAL, s_comment TEXT)`,
	`CREATE TABLE customer (
		c_custkey INTEGER, c_name TEXT, c_address TEXT, c_nationkey INTEGER,
		c_phone TEXT, c_acctbal REAL, c_mktsegment TEXT, c_comment TEXT)`,
	`CREATE TABLE part (
		p_partkey INTEGER, p_name TEXT, p_mfgr TEXT, p_brand TEXT, p_type TEXT,
		p_size INTEGER, p_container TEXT, p_retailprice REAL, p_comment TEXT)`,
	`CREATE TABLE partsupp (
		ps_partkey INTEGER, ps_suppkey INTEGER, ps_availqty INTEGER,
		ps_supplycost REAL, ps_comment TEXT)`,
	`CREATE TABLE orders (
		o_orderkey INTEGER, o_custkey INTEGER, o_orderstatus TEXT,
		o_totalprice REAL, o_orderdate TEXT, o_orderpriority TEXT,
		o_clerk TEXT, o_shippriority INTEGER, o_comment TEXT)`,
	`CREATE TABLE lineitem (
		l_orderkey INTEGER, l_partkey INTEGER, l_suppkey INTEGER,
		l_linenumber INTEGER, l_quantity REAL, l_extendedprice REAL,
		l_discount REAL, l_tax REAL, l_returnflag TEXT, l_linestatus TEXT,
		l_shipdate TEXT, l_commitdate TEXT, l_receiptdate TEXT,
		l_shipinstruct TEXT, l_shipmode TEXT, l_comment TEXT)`,
}

// Load creates the schema and populates all eight tables at the
// generator's scale factor. It returns the key range of the loaded
// orders.
func Load(conn *sql.Conn, g *Generator) (minKey, maxKey int64, err error) {
	for _, ddl := range DDL {
		if err := conn.Exec(ddl, nil); err != nil {
			return 0, 0, err
		}
	}
	if err := conn.BulkInsert("region", g.Region()); err != nil {
		return 0, 0, err
	}
	if err := conn.BulkInsert("nation", g.Nation()); err != nil {
		return 0, 0, err
	}
	if err := conn.BulkInsert("supplier", g.Supplier()); err != nil {
		return 0, 0, err
	}
	if err := conn.BulkInsert("customer", g.Customer()); err != nil {
		return 0, 0, err
	}
	if err := conn.BulkInsert("part", g.Part()); err != nil {
		return 0, 0, err
	}
	if err := conn.BulkInsert("partsupp", g.PartSupp()); err != nil {
		return 0, 0, err
	}
	orders := g.NextOrders(g.Orders())
	if err := insertOrders(conn, orders); err != nil {
		return 0, 0, err
	}
	return orders[0].Row[0].Int(), orders[len(orders)-1].Row[0].Int(), nil
}

func insertOrders(conn *sql.Conn, orders []Order) error {
	oRows := make([][]record.Value, 0, len(orders))
	var lRows [][]record.Value
	for _, o := range orders {
		oRows = append(oRows, o.Row)
		lRows = append(lRows, o.Lineitems...)
	}
	if err := conn.BulkInsert("orders", oRows); err != nil {
		return err
	}
	return conn.BulkInsert("lineitem", lRows)
}

// Workload drives the paper's update workloads: between consecutive
// snapshot declarations it deletes the oldest OrdersPerSnapshot orders
// (with their lineitems, the RF2 refresh) and inserts as many new ones
// (RF1), then declares a snapshot and records it in SnapIds. The
// deletion front advances through the key space, so the database is
// fully overwritten every Orders/OrdersPerSnapshot snapshots — the
// paper's "overwrite cycle" (UW30 overwrites every 50 snapshots, UW15
// every 100).
type Workload struct {
	Conn              *sql.Conn
	Gen               *Generator
	OrdersPerSnapshot int

	minKey int64 // oldest live order key
	clock  time.Time
}

// NewWorkload wraps a loaded database.
func NewWorkload(conn *sql.Conn, g *Generator, minKey int64, ordersPerSnapshot int) *Workload {
	return &Workload{
		Conn:              conn,
		Gen:               g,
		OrdersPerSnapshot: ordersPerSnapshot,
		minKey:            minKey,
		clock:             time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Step performs one refresh cycle and declares one snapshot, returning
// its id.
func (w *Workload) Step() (uint64, error) {
	cut := w.minKey + int64(w.OrdersPerSnapshot)
	if err := w.Conn.Exec(`BEGIN`, nil); err != nil {
		return 0, err
	}
	abort := func(err error) (uint64, error) {
		w.Conn.Rollback()
		return 0, err
	}
	if err := w.Conn.Exec(`DELETE FROM lineitem WHERE l_orderkey < ?`, nil, record.Int(cut)); err != nil {
		return abort(err)
	}
	if err := w.Conn.Exec(`DELETE FROM orders WHERE o_orderkey < ?`, nil, record.Int(cut)); err != nil {
		return abort(err)
	}
	if err := insertOrders(w.Conn, w.Gen.NextOrders(w.OrdersPerSnapshot)); err != nil {
		return abort(err)
	}
	id, err := w.declare("refresh")
	if err != nil {
		return 0, err
	}
	w.minKey = cut
	return id, nil
}

// declare commits the open refresh transaction (an empty one when none
// is open) WITH SNAPSHOT, registered in SnapIds one simulated day after
// the previous snapshot.
func (w *Workload) declare(label string) (uint64, error) {
	ts := w.clock.Add(24 * time.Hour)
	id, err := core.DeclareSnapshot(w.Conn, ts, label)
	if err != nil {
		return 0, err
	}
	w.clock = ts
	return id, nil
}

// Run performs n refresh/snapshot steps.
func (w *Workload) Run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := w.Step(); err != nil {
			return fmt.Errorf("tpch: refresh step %d: %w", i, err)
		}
	}
	return nil
}

// QuietStep declares one snapshot without applying a refresh — the
// periodic-snapshot idiom where the schedule fires whether or not the
// data changed. Quiet snapshots have empty page deltas.
func (w *Workload) QuietStep() (uint64, error) {
	return w.declare("quiet")
}

package main

// layers.go is the only file of the benchmark that imports the program.
// Every program function the benchmark calls is named here, grouped by
// the layer (module) it belongs to, and restricted to surface that is
// expected to survive the ROADMAP's refactors: no Set* comparison
// toggles, no version-parameterised codecs, no internal/bench.
//
// The one recording hook used is sql.Conn.SetRecordReadSet/ReadSet, on
// the benchmark's own in-process probe connection and only in the
// traced run: it is how an op's page read-set is obtained so that the
// retro layer can be replayed on it from outside.
//
// Outside this file the benchmark calls the program only through the
// session interface below and the accessors of Value (Int, Float, Text,
// AsFloat).

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"time"

	"rql"
	"rql/client"
	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/server"
	"rql/internal/sql"
	"rql/internal/storage"
	"rql/internal/tpch"
	"rql/internal/wire"
)

// Program types the benchmark holds but never looks inside, and the
// result/statistics types it reads.
type (
	Value        = rql.Value
	RowCallback  = rql.RowCallback
	RunStats     = rql.RunStats
	RetroStats   = rql.RetroStats
	StorageStats = rql.StorageStats
	ServerStats  = client.ServerStats
	ViewInfo     = client.ViewInfo

	database   = rql.DB
	localConn  = rql.Conn
	remoteConn = client.Conn
	rqlServer  = server.Server
	generator  = tpch.Generator
	tpchOrder  = tpch.Order
	history    = tpch.Workload
	readerSet  = sql.ReaderSet
	pageID     = storage.PageID
	scratchDB  = storage.Store
	scratchTx  = storage.Tx
	tree       = btree.Tree
)

const pageSize = storage.PageSize

// session is the statement-level surface shared by the network client
// (client.Conn) and the in-process connection (rql.Conn). Workload ops
// are written against it once, so the traced run can replay the same op
// at both entry points.
type session interface {
	Exec(sqlText string, cb RowCallback, params ...Value) error
	CommitWithSnapshot() (uint64, error)
	RecordSnapshot(id uint64, ts time.Time, label string) error
	CollateData(qs, qq, table string) (*RunStats, error)
	AggregateDataInVariable(qs, qq, table, aggFunc string) (*RunStats, error)
	AggregateDataInTable(qs, qq, table, pairs string) (*RunStats, error)
	CollateDataIntoIntervals(qs, qq, table string) (*RunStats, error)
}

var (
	_ session = (*client.Conn)(nil)
	_ session = (*rql.Conn)(nil)
)

// ---- record --------------------------------------------------------------

func intVal(v int64) Value     { return record.Int(v) }
func textVal(s string) Value   { return record.Text(s) }
func floatVal(f float64) Value { return record.Float(f) }

func isInt(v Value) bool   { return v.Type() == record.TypeInt }
func isFloat(v Value) bool { return v.Type() == record.TypeFloat }
func isText(v Value) bool  { return v.Type() == record.TypeText }

func encodeRow(dst []byte, row []Value) []byte  { return record.EncodeRow(dst, row) }
func decodeRow(data []byte) ([]Value, error)    { return record.DecodeRow(data) }
func encodeKey(dst []byte, vals []Value) []byte { return record.EncodeKey(dst, vals) }

// ---- wire ----------------------------------------------------------------

// rowBatchPayload encodes rows the way a result-batch frame carries
// them (row count, then each row).
func rowBatchPayload(rows [][]Value) []byte {
	e := &wire.Enc{}
	e.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		e.Row(r)
	}
	return e.B
}

// frameRoundTrip writes payload as one frame into buf, reads it back and
// decodes its rows, as the server's writer and the client's reader do.
func frameRoundTrip(buf *bytes.Buffer, payload []byte) (rows int, err error) {
	buf.Reset()
	if err := wire.WriteFrame(buf, wire.RespBatch, payload); err != nil {
		return 0, err
	}
	_, got, err := wire.ReadFrame(buf)
	if err != nil {
		return 0, err
	}
	d := &wire.Dec{B: got}
	n := d.Uvarint()
	for i := uint64(0); i < n; i++ {
		d.Row()
	}
	return int(n), d.Err()
}

// ---- tpch ----------------------------------------------------------------

func newGenerator(sf float64, seed int64) *generator { return tpch.NewGenerator(sf, seed) }

// loadTPCH creates the TPC-H schema and populates it, returning the
// loaded order-key range.
func loadTPCH(c *localConn, g *generator) (minKey, maxKey int64, err error) {
	return tpch.Load(c.Conn, g)
}

// mirrorLoad advances a second generator exactly as loadTPCH advances
// the first and returns the initial orders, so the benchmark knows the
// rows it wrote without reading them back from the program.
func mirrorLoad(g *generator) []tpchOrder {
	g.Region()
	g.Nation()
	g.Supplier()
	g.Customer()
	g.Part()
	g.PartSupp()
	return g.NextOrders(g.Orders())
}

func newHistory(c *localConn, g *generator, minKey int64, ordersPerSnapshot int) *history {
	return tpch.NewWorkload(c.Conn, g, minKey, ordersPerSnapshot)
}

// refreshStep applies one RF2+RF1 refresh and declares a snapshot;
// quietStep declares a snapshot without changing anything.
func refreshStep(h *history) (uint64, error) { return h.Step() }
func quietStep(h *history) (uint64, error)   { return h.QuietStep() }

// nextOrders draws the next n orders (with their lineitems) of the
// RF1 stream.
func nextOrders(g *generator, n int) []tpchOrder { return g.NextOrders(n) }

// ordersAtScale is the orders table's size at the generator's scale.
func ordersAtScale(g *generator) int { return g.Orders() }

// ---- rql (in-process database) ---------------------------------------------

// openDB opens a database with a file-backed Pagelog under dir. Every
// option not named by the workload stays at its default: no simulated
// read latency, no sleeping device.
func openDB(dir string, cachePages int, compaction bool) (*database, error) {
	opts := rql.Options{
		PagelogPath: filepath.Join(dir, "pagelog"),
		CachePages:  cachePages,
	}
	if compaction {
		opts.Compaction = rql.CompactionOptions{Enabled: true, SegmentPages: 256, MinTailPages: 256}
	}
	return rql.Open(opts)
}

func dbClose(db *database) error              { return db.Close() }
func dbConn(db *database) *localConn          { return db.Conn() }
func dbRetroStats(db *database) RetroStats    { return db.RetroStats() }
func dbStoreStats(db *database) StorageStats  { return db.StorageStats() }
func dbResetSnapshotCache(db *database)       { db.ResetSnapshotCache() }
func dbSealPagelog(db *database) (int, error) { return db.SealPagelog() }
func dbViewRefreshes(db *database) uint64     { return db.ViewStats().Refreshes }

// dbCurrentPages is the number of live pages of the current-state store.
func dbCurrentPages(db *database) int {
	st := db.Engine().MainStore()
	return st.NumPages() - st.NumFree()
}

// dbPagelogDiskBytes is the archive's physical size.
func dbPagelogDiskBytes(db *database) int64 {
	_, disk := db.PagelogFootprint()
	return disk
}

func ensureSnapIds(c *localConn) error { return c.EnsureSnapIds() }

// tableDataBytes is the live row bytes of one table.
func tableDataBytes(c *localConn, table string) (rows int, bytes int64, err error) {
	ts, err := c.TableStats(table)
	return ts.Rows, ts.DataBytes, err
}

// ---- server / client --------------------------------------------------------

// startServer serves db on a loopback TCP port chosen by the kernel.
// The returned channel yields Serve's result after stopServer.
func startServer(db *database) (*rqlServer, string, <-chan error, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := server.New(db, server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	return srv, lis.Addr().String(), done, nil
}

// stopServer drains the server and waits for its accept loop to exit.
func stopServer(srv *rqlServer, done <-chan error) error {
	srv.Shutdown()
	if err := <-done; err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}

func dial(addr string) (*remoteConn, error)          { return client.Dial(addr) }
func remoteClose(c *remoteConn) error                { return c.Close() }
func remotePing(c *remoteConn) error                 { return c.Ping() }
func remoteStats(c *remoteConn) (ServerStats, error) { return c.ServerStats() }
func remoteViews(c *remoteConn) ([]ViewInfo, error)  { return c.Views() }

// ---- sql ---------------------------------------------------------------------

func parseSQL(text string) error { _, err := sql.Parse(text); return err }

func execAsOf(c *localConn, text string, snap uint64, cb RowCallback, params ...Value) error {
	return c.ExecAsOf(text, snap, cb, params...)
}

func openReaderSet(c *localConn, ids []uint64) (*readerSet, error) { return c.OpenSnapshotSet(ids) }
func closeReaderSet(set *readerSet)                                { set.Close() }

func execAsOfSet(c *localConn, text string, set *readerSet, snap uint64, cb RowCallback) error {
	return c.ExecAsOfSet(text, set, snap, cb)
}

// recordReadSets switches page read-set recording on the probe
// connection; lastReadSet copies out the pages the most recent
// snapshot-bound statement touched.
func recordReadSets(c *localConn, on bool) { c.SetRecordReadSet(on) }

func lastReadSet(c *localConn) []pageID {
	set := c.ReadSet()
	out := make([]pageID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// ---- retro -------------------------------------------------------------------

// openSnapshotGet opens one snapshot (building its SPT), reads pages
// through it and closes it, returning how long the open alone took.
func openSnapshotGet(db *database, snap uint64, pages []pageID) (open time.Duration, err error) {
	t0 := time.Now()
	r, err := db.Engine().Retro().OpenSnapshot(retro.SnapshotID(snap))
	if err != nil {
		return 0, err
	}
	open = time.Since(t0)
	defer r.Close()
	for _, id := range pages {
		if _, err := r.Get(id); err != nil {
			return open, err
		}
	}
	return open, nil
}

// openSetGet batch-builds the SPTs of ids with one Maplog sweep, then
// for every snapshot named in pages reads that snapshot's pages through
// its member reader. It returns the sweep's duration.
func openSetGet(db *database, ids []uint64, pages map[uint64][]pageID) (open time.Duration, err error) {
	rids := make([]retro.SnapshotID, len(ids))
	for i, id := range ids {
		rids[i] = retro.SnapshotID(id)
	}
	t0 := time.Now()
	set, err := db.Engine().Retro().OpenSnapshotSet(rids)
	if err != nil {
		return 0, err
	}
	open = time.Since(t0)
	defer set.Close()
	for _, id := range ids {
		ps, ok := pages[id]
		if !ok {
			continue
		}
		r, err := set.Open(retro.SnapshotID(id))
		if err != nil {
			return open, err
		}
		for _, p := range ps {
			if _, err := r.Get(p); err != nil {
				r.Close()
				return open, err
			}
		}
		r.Close()
	}
	return open, nil
}

// timeGets times each SnapshotReader.Get of pages at snap.
func timeGets(db *database, snap uint64, pages []pageID, each func(time.Duration)) error {
	r, err := db.Engine().Retro().OpenSnapshot(retro.SnapshotID(snap))
	if err != nil {
		return err
	}
	defer r.Close()
	for _, id := range pages {
		t0 := time.Now()
		if _, err := r.Get(id); err != nil {
			return err
		}
		each(time.Since(t0))
	}
	return nil
}

// ---- storage / btree (scratch store, no snapshot system attached) -------------

func newScratch() *scratchDB                        { return storage.NewStore() }
func scratchClose(s *scratchDB)                     { s.Close() }
func scratchBegin(s *scratchDB) (*scratchTx, error) { return s.Begin() }
func txCommit(tx *scratchTx) error                  { return tx.Commit() }
func txAllocate(tx *scratchTx) (pageID, error)      { return tx.Allocate() }

// txTouch obtains a writable copy of the page and changes one byte, the
// least a commit can install.
func txTouch(tx *scratchTx, id pageID, b byte) error {
	p, err := tx.GetMut(id)
	if err != nil {
		return err
	}
	p[0] = b
	return nil
}

func treeCreate(tx *scratchTx) (pageID, error)          { return btree.Create(tx) }
func treeOpen(tx *scratchTx, root pageID) *tree         { return btree.Open(tx, root) }
func treeInsert(t *tree, key, val []byte) error         { return t.Insert(key, val) }
func treeDelete(t *tree, key []byte) (bool, error)      { return t.Delete(key) }
func treeGet(t *tree, key []byte) ([]byte, bool, error) { return t.Get(key) }

// treeScan walks every entry in key order and returns how many it saw.
func treeScan(t *tree) (int, error) {
	cur := t.Cursor()
	n := 0
	ok, err := cur.First()
	for ; ok && err == nil; ok, err = cur.Next() {
		_ = cur.Value()
		n++
	}
	return n, err
}

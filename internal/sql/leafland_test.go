package sql

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rql/internal/btree"
	"rql/internal/record"
	"rql/internal/retro"
	"rql/internal/storage"
)

// pathPager records the page ids a tree asks it for, in order.
type pathPager struct {
	storage.Pager
	ids []storage.PageID
}

func (p *pathPager) Get(id storage.PageID) (*storage.PageData, error) {
	p.ids = append(p.ids, id)
	return p.Pager.Get(id)
}

// treePath returns the depth of the tree rooted at root, counted as the
// distinct pages a lookup of key visits, and the leaf it ends in.
func treePath(t *testing.T, p storage.Pager, root storage.PageID, key []byte) (depth int, leaf storage.PageID) {
	t.Helper()
	pp := &pathPager{Pager: p}
	if _, _, err := btree.Open(pp, root).Get(key); err != nil {
		t.Fatal(err)
	}
	seen := map[storage.PageID]bool{}
	for _, id := range pp.ids {
		seen[id] = true
	}
	return len(seen), pp.ids[len(pp.ids)-1]
}

// billed runs text AS OF snap and returns the pages its snapshot reader
// billed: Pagelog reads, cache hits and pages shared with the current
// database, as pages_per_op counts them.
func billed(t *testing.T, c *Conn, text string, snap uint64, params ...record.Value) (pages, rows int) {
	t.Helper()
	err := c.ExecAsOf(text, snap, func([]string, []record.Value) error { rows++; return nil }, params...)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	st := c.LastStats()
	return st.PagelogReads + st.CacheHits + st.DBReads, rows
}

// TestIndexRangeReadsEachLeafOnce pins, as a count, what an AS OF read
// through an index bills beyond the catalog walk every statement makes:
// a point read exactly the index's depth plus the table's (each page of
// both descents once); a range over contiguous rowids one index descent,
// one more page per further index leaf, and one table descent per table
// leaf the fetched rows span, since each fetch lands in the leaf the
// previous one held. A fetch that descends from the root per row, or a
// lookup that reads its leaf twice, bills more.
func TestIndexRangeReadsEachLeafOnce(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (k INTEGER, pad TEXT)`)
	mustExec(t, c, `CREATE INDEX t_k ON t (k)`)
	const n = 1500
	pad := strings.Repeat("x", 150)
	rows := make([][]record.Value, n)
	for k := range rows {
		rows[k] = []record.Value{record.Int(int64(k)), record.Text(pad)}
	}
	if err := c.BulkInsert("t", rows); err != nil { // rowid k+1 holds k
		t.Fatal(err)
	}
	snap, err := c.DeclareSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	var st ExecStats
	ec, err := c.newReadCtx(nil, retro.SnapshotID(snap), nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.close()
	tbl := ec.mainSchema.table("t")
	ix := ec.mainSchema.index("t_k")
	idxKey := func(k int64) []byte {
		key, err := appendIndexKey(nil, ix, tbl, []record.Value{record.Int(k), record.Null()}, k+1)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	idxDepth, _ := treePath(t, ec.mainPager, ix.Root, idxKey(n/2))
	tblDepth, _ := treePath(t, ec.mainPager, tbl.Root, rowidKey(n/2+1))
	if idxDepth < 2 || tblDepth < 2 {
		t.Fatalf("fixture too small: index depth %d, table depth %d", idxDepth, tblDepth)
	}

	catalog, _ := billed(t, c, `SELECT AS OF ? 1`, 0, record.Int(int64(snap)))
	for _, k := range []int64{0, n / 3, n - 1} {
		got, rows := billed(t, c, `SELECT AS OF ? k, pad FROM t WHERE k = ?`, 0, record.Int(int64(snap)), record.Int(k))
		if rows != 1 {
			t.Fatalf("point read of %d returned %d rows", k, rows)
		}
		if want := catalog + idxDepth + tblDepth; got != want {
			t.Errorf("point read of %d billed %d pages, want %d: catalog %d + index depth %d + table depth %d",
				k, got, want, catalog, idxDepth, tblDepth)
		}
	}

	const span = 200
	for _, lo := range []int64{0, 517, n - span} {
		hi := lo + span // k < hi: the scan reads keys lo..hi and fetches their rows
		idxLeaves, tblLeaves := map[storage.PageID]bool{}, map[storage.PageID]bool{}
		for k := lo; k <= hi && k < n; k++ {
			_, leaf := treePath(t, ec.mainPager, ix.Root, idxKey(k))
			idxLeaves[leaf] = true
			_, leaf = treePath(t, ec.mainPager, tbl.Root, rowidKey(k+1))
			tblLeaves[leaf] = true
		}
		got, rows := billed(t, c, `SELECT k, pad FROM t WHERE k >= ? AND k < ?`, snap, record.Int(lo), record.Int(hi))
		if rows != span {
			t.Fatalf("range [%d, %d) returned %d rows", lo, hi, rows)
		}
		want := catalog + idxDepth + len(idxLeaves) - 1 + tblDepth*len(tblLeaves)
		if got != want {
			t.Errorf("range [%d, %d) billed %d pages, want %d: catalog %d + index depth %d + %d further index leaves + table depth %d × %d table leaves",
				lo, hi, got, want, catalog, idxDepth, len(idxLeaves)-1, tblDepth, len(tblLeaves))
		}
	}
}

// TestKeptRangeReadsUnderSplitsAndFrees: one Conn repeats two kept-plan
// index range reads, AS OF ? a snapshot and over the current state, in
// turn, so its index scan's table cursor goes from a snapshot's pages to
// the current ones and back while a writer deletes and re-inserts blocks
// of the table, with rows of a new size each round, splitting and
// freeing the leaves the reads land in. Every read must return what a
// fresh Conn returns for the same state. Run under -race (make
// groupcommit-smoke).
func TestKeptRangeReadsUnderSplitsAndFrees(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w := db.Conn()
	mustExec(t, w, `CREATE TABLE t (k INTEGER, v INTEGER, pad TEXT)`)
	mustExec(t, w, `CREATE INDEX t_k ON t (k)`)
	const keys, block, span = 600, 60, 48
	rows := make([][]record.Value, keys)
	for k := range rows {
		rows[k] = []record.Value{record.Int(int64(k)), record.Int(0), record.Text(strings.Repeat("p", 150))}
	}
	if err := w.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	first, err := w.DeclareSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	// The writer holds state for each commit; a reader holds it shared
	// across a current-state read and the fresh Conn's read of the same.
	var state sync.RWMutex
	var snaps []uint64 // guarded by state
	snaps = append(snaps, first)
	done := make(chan struct{})
	var rounds atomic.Int64
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 1; ; round++ {
			select {
			case <-done:
				return
			default:
			}
			lo := (round * 131) % (keys - block)
			pad := strings.Repeat("q", 40+round*53%400)
			state.Lock()
			err := w.Exec(`BEGIN; DELETE FROM t WHERE k >= ? AND k < ?`, nil, record.Int(int64(lo)), record.Int(int64(lo+block)))
			for k := lo; k < lo+block && err == nil; k++ {
				if k%7 != round%7 { // one key in seven stays deleted this round
					err = w.Exec(`INSERT INTO t VALUES (?, ?, ?)`, nil, record.Int(int64(k)), record.Int(int64(round)), record.Text(pad))
				}
			}
			var id uint64
			if err == nil {
				id, err = w.DeclareSnapshot(nil) // commits the transaction
			}
			if err == nil {
				snaps = append(snaps, id)
			}
			state.Unlock()
			if err != nil {
				errs <- fmt.Errorf("write round %d: %w", round, err)
				return
			}
			rounds.Add(1)
		}
	}()

	const asOf, current = `SELECT AS OF ? k, v, pad FROM t WHERE k >= ? AND k < ?`, `SELECT k, v, pad FROM t WHERE k >= ? AND k < ?`
	read := func(c *Conn, text string, params []record.Value) ([]string, error) {
		var got []string
		err := c.Exec(text, func(_ []string, row []record.Value) error {
			got = append(got, rowString(row))
			return nil
		}, params...)
		return got, err
	}
	kept := db.Conn()
	for i := 0; i < 200 || rounds.Load() < 20; i++ {
		lo := int64(i * 37 % (keys - span))
		text, params := current, []record.Value{record.Int(lo), record.Int(lo + span)}
		state.RLock()
		if i%2 == 0 {
			text = asOf
			params = append([]record.Value{record.Int(int64(snaps[i/2%len(snaps)]))}, params...)
			state.RUnlock() // a snapshot does not change
		}
		got, err := read(kept, text, params)
		var want []string
		if err == nil {
			want, err = read(db.Conn(), text, params)
		}
		if i%2 != 0 {
			state.RUnlock()
		}
		if err != nil {
			t.Fatalf("read %d, %q %v: %v", i, text, params, err)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("read %d, %q %v on the kept plan:\n%v\nfresh Conn:\n%v", i, text, params, got, want)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIndexScanCallbackWritesItsTable: inside a transaction, an index
// range scan whose row callback inserts into the table it scans, out of
// the range, still returns each row of the range with its own values.
// The table is one leaf the transaction has dirtied, and the first
// callback's inserts split it, rewriting that page in place as the new
// root: the scan's table cursor holds it, and the write, made through
// another tree handle on the same transaction, must retire it.
func TestIndexScanCallbackWritesItsTable(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (k INTEGER, pad TEXT)`)
	mustExec(t, c, `CREATE INDEX t_k ON t (k)`)
	const n, text = 8, `SELECT k, pad FROM t WHERE k >= 0 AND k < ?`
	if plan := strings.Join(q(t, c, `EXPLAIN `+text, record.Int(n)), "\n"); !strings.Contains(plan, "USING INDEX") {
		t.Fatalf("the range does not read through t_k:\n%s", plan)
	}
	mustExec(t, c, `BEGIN`)
	var want []string
	for k := 0; k < n; k++ {
		row := []record.Value{record.Int(int64(k)), record.Text(fmt.Sprint("row ", k))}
		mustExec(t, c, `INSERT INTO t VALUES (?, ?)`, row...)
		want = append(want, rowString(row))
	}
	var got []string
	extra := int64(1000)
	err := c.Exec(text, func(_ []string, row []record.Value) error {
		got = append(got, rowString(row))
		for i := 0; i < 6; i++ { // 6 KB: more than a page
			extra++
			if err := c.Exec(`INSERT INTO t VALUES (?, ?)`, nil, record.Int(extra), record.Text(strings.Repeat("z", 1000))); err != nil {
				return err
			}
		}
		return nil
	}, record.Int(n))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("range read while its callback grew the table:\n%v\nwant:\n%v", got, want)
	}
	mustExec(t, c, `ROLLBACK`)
}

// TestInsertValuesReadsOneDescentPerTree pins, as a count, the
// main-store pages an RF1-shaped statement reads: an 8-row INSERT INTO …
// VALUES of ascending keys into a table with an index on the key. Beyond
// the catalog walk every statement makes (what a 1-row insert into an
// empty table reads, less that table's one page, read to find the rowid
// and again to write it), it reads one descent of the table, for the
// first rowid, and one of the index, and each tree's last leaf once
// more, when the first write copies it: every later row's rowid is read
// off the last leaf the table's cursor holds, and its cells land in the
// leaves the two cursors hold. Finding each rowid or placing each cell
// by a descent of its own reads the trees' clean interior pages again
// for every row.
func TestInsertValuesReadsOneDescentPerTree(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE o (k INTEGER, status TEXT, price REAL, pad TEXT)`)
	mustExec(t, c, `CREATE INDEX o_k ON o (k)`)
	mustExec(t, c, `CREATE TABLE u (k INTEGER)`)
	const n, rows = 3000, 8
	pad := strings.Repeat("x", 60)
	load := make([][]record.Value, n)
	for k := range load {
		load[k] = []record.Value{record.Int(int64(k)), record.Text("O"), record.Float(1.5), record.Text(pad)}
	}
	if err := c.BulkInsert("o", load); err != nil { // rowid k+1 holds k
		t.Fatal(err)
	}
	main := c.db.main
	reads := func(text string, params ...record.Value) int {
		t.Helper()
		before := main.Stats().DBReads
		mustExec(t, c, text, params...)
		return int(main.Stats().DBReads - before)
	}
	catalog := reads(`INSERT INTO u VALUES (1)`) - 2

	var st ExecStats
	ec, err := c.newReadCtx(nil, 0, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	tbl, ix := ec.mainSchema.table("o"), ec.mainSchema.index("o_k")
	idxKey := func(k int64) []byte {
		key, err := appendIndexKey(nil, ix, tbl, []record.Value{record.Int(k)}, k+1)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	tblDepth, tblLeaf := treePath(t, ec.mainPager, tbl.Root, rowidKey(n))
	idxDepth, idxLeaf := treePath(t, ec.mainPager, ix.Root, idxKey(n-1))
	ec.close()
	if tblDepth < 2 || idxDepth < 2 {
		t.Fatalf("fixture too small: table depth %d, index depth %d", tblDepth, idxDepth)
	}

	params := make([]record.Value, 0, 4*rows)
	for k := int64(n); k < n+rows; k++ {
		params = append(params, record.Int(k), record.Text("O"), record.Float(2.5), record.Text(pad))
	}
	got := reads(`INSERT INTO o VALUES (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?),
		(?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?), (?, ?, ?, ?)`, params...)

	if ec, err = c.newReadCtx(nil, 0, nil, &st); err != nil {
		t.Fatal(err)
	}
	defer ec.close()
	_, tblLast := treePath(t, ec.mainPager, tbl.Root, rowidKey(n+rows))
	_, idxLast := treePath(t, ec.mainPager, ix.Root, idxKey(n+rows-1))
	if tblLast != tblLeaf || idxLast != idxLeaf {
		t.Fatalf("fixture: the insert split the last leaf of the table (%v) or the index (%v)", tblLast != tblLeaf, idxLast != idxLeaf)
	}
	if want := catalog + tblDepth + idxDepth + 2; got != want {
		t.Errorf("an %d-row INSERT … VALUES read %d main-store pages, want %d: catalog %d + table depth %d + index depth %d + 2 leaf copies",
			rows, got, want, catalog, tblDepth, idxDepth)
	}
}

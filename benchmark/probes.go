package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Scratch probes: each times one layer's public functions alone, on
// inputs shaped like the workload's, outside the served database.

// probeResults holds the probes' numbers; the btree ones also feed the
// replays' storage+btree estimate for read ops.
type probeResults struct {
	frameNS, bytesPerRow, allocsPerRow     float64
	encodeNS, decodeNS, allocsPerDecode    float64
	parseUS                                float64
	commitUS                               float64
	btreeGetNS, btreeInsertNS, btreeScanNS float64
}

func (p *probeResults) into(m map[string]float64) {
	m["wire.frame_ns"] = p.frameNS
	m["wire.bytes_per_row"] = p.bytesPerRow
	m["wire.allocs_per_row"] = p.allocsPerRow
	m["record.encode_row_ns"] = p.encodeNS
	m["record.decode_row_ns"] = p.decodeNS
	m["record.allocs_per_decode"] = p.allocsPerDecode
	m["sql.parse_us_p50"] = p.parseUS
	m["storage.commit_us_p50"] = p.commitUS
	m["btree.get_ns_p50"] = p.btreeGetNS
	m["btree.insert_ns_p50"] = p.btreeInsertNS
	m["btree.scan_ns_per_entry"] = p.btreeScanNS
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// scratchTables imitates the physical shape of the orders and lineitem
// tables and their order-key indexes as four B+-trees on a scratch
// store with no snapshot system attached: what a refresh costs in
// storage+btree alone.
type scratchTables struct {
	st     *scratchDB
	roots  [4]pageID // orders, orders index, lineitem, lineitem index
	gen    *generator
	oldest int64
	items  map[int64]int // lineitems per live order
	sample []tpchOrder   // the first orders inserted: row shapes for the codec probes
	keys   []int64       // live order keys

	insertNS []float64
}

func orderKey(k int64) []byte { return encodeKey(nil, []Value{intVal(k)}) }
func lineKey(k int64, line int) []byte {
	return encodeKey(nil, []Value{intVal(k), intVal(int64(line))})
}
func indexKey(k int64, rowid int64) []byte { return encodeKey(nil, []Value{intVal(k), intVal(rowid)}) }

func newScratchTables(sf float64, seed int64) (*scratchTables, error) {
	s := &scratchTables{st: newScratch(), gen: newGenerator(sf, seed), oldest: 1, items: make(map[int64]int)}
	tx, err := scratchBegin(s.st)
	if err != nil {
		return nil, err
	}
	for i := range s.roots {
		if s.roots[i], err = treeCreate(tx); err != nil {
			return nil, err
		}
	}
	orders := nextOrders(s.gen, ordersAtScale(s.gen))
	s.sample = orders[:min(256, len(orders))]
	if err := s.insert(tx, orders, true); err != nil {
		return nil, err
	}
	return s, txCommit(tx)
}

func (s *scratchTables) close() { scratchClose(s.st) }

func (s *scratchTables) insert(tx *scratchTx, orders []tpchOrder, timeIt bool) error {
	to, io, tl, il := treeOpen(tx, s.roots[0]), treeOpen(tx, s.roots[1]), treeOpen(tx, s.roots[2]), treeOpen(tx, s.roots[3])
	for _, o := range orders {
		k := o.Row[0].Int()
		key, val := orderKey(k), encodeRow(nil, o.Row)
		t0 := time.Now()
		if err := treeInsert(to, key, val); err != nil {
			return err
		}
		if timeIt {
			s.insertNS = append(s.insertNS, float64(time.Since(t0)))
		}
		if err := treeInsert(io, indexKey(k, k), nil); err != nil {
			return err
		}
		for l, li := range o.Lineitems {
			if err := treeInsert(tl, lineKey(k, l+1), encodeRow(nil, li)); err != nil {
				return err
			}
			if err := treeInsert(il, indexKey(k, int64(l+1)), nil); err != nil {
				return err
			}
		}
		s.items[k] = len(o.Lineitems)
		s.keys = append(s.keys, k)
	}
	return nil
}

// refresh applies one refresh's physical work: the n oldest orders and
// their lineitems leave all four trees, n new ones enter, one commit.
func (s *scratchTables) refresh(n int) error {
	tx, err := scratchBegin(s.st)
	if err != nil {
		return err
	}
	to, io, tl, il := treeOpen(tx, s.roots[0]), treeOpen(tx, s.roots[1]), treeOpen(tx, s.roots[2]), treeOpen(tx, s.roots[3])
	for k := s.oldest; k < s.oldest+int64(n); k++ {
		for l := 1; l <= s.items[k]; l++ {
			if _, err := treeDelete(tl, lineKey(k, l)); err != nil {
				return err
			}
			if _, err := treeDelete(il, indexKey(k, int64(l))); err != nil {
				return err
			}
		}
		if _, err := treeDelete(to, orderKey(k)); err != nil {
			return err
		}
		if _, err := treeDelete(io, indexKey(k, k)); err != nil {
			return err
		}
		delete(s.items, k)
	}
	s.oldest += int64(n)
	s.keys = s.keys[n:]
	if err := s.insert(tx, nextOrders(s.gen, n), false); err != nil {
		return err
	}
	return txCommit(tx)
}

// runProbes times the wire and record codecs on rows, sql.Parse on the
// workload's statement texts, and the storage and btree layers on the
// scratch tables.
func runProbes(s *scratchTables, texts []string, rows [][]Value) (*probeResults, error) {
	p := &probeResults{btreeInsertNS: median(s.insertNS)}

	// wire: one result batch through WriteFrame/ReadFrame and the row decoder.
	payload := rowBatchPayload(rows)
	var buf bytes.Buffer
	const frames = 200
	var ferr error
	t0 := time.Now()
	allocs := mallocs(func() {
		for i := 0; i < frames && ferr == nil; i++ {
			_, ferr = frameRoundTrip(&buf, payload)
		}
	})
	if ferr != nil {
		return nil, fmt.Errorf("wire probe: %w", ferr)
	}
	p.frameNS = float64(time.Since(t0)) / frames
	p.bytesPerRow = float64(len(payload)) / float64(len(rows))
	p.allocsPerRow = allocs / frames / float64(len(rows))

	// record: EncodeRow/DecodeRow of orders rows.
	const rounds = 50
	enc := make([][]byte, len(rows))
	var scratch []byte
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, row := range rows {
			scratch = encodeRow(scratch[:0], row)
		}
	}
	p.encodeNS = float64(time.Since(t0)) / float64(rounds*len(rows))
	for i, row := range rows {
		enc[i] = encodeRow(nil, row)
	}
	var derr error
	t0 = time.Now()
	allocs = mallocs(func() {
		for r := 0; r < rounds; r++ {
			for _, e := range enc {
				if _, err := decodeRow(e); err != nil {
					derr = err
				}
			}
		}
	})
	if derr != nil {
		return nil, fmt.Errorf("record probe: %w", derr)
	}
	p.decodeNS = float64(time.Since(t0)) / float64(rounds*len(rows))
	p.allocsPerDecode = allocs / float64(rounds*len(rows))

	// sql: Parse over the workload's statement texts.
	var parse []float64
	for r := 0; r < 20; r++ {
		for _, text := range texts {
			t0 := time.Now()
			if err := parseSQL(text); err != nil {
				return nil, fmt.Errorf("parse probe: %q: %w", text, err)
			}
			parse = append(parse, float64(time.Since(t0))/1e3)
		}
	}
	p.parseUS = median(parse)

	// storage: the smallest write transaction, eight touched pages.
	st := newScratch()
	defer scratchClose(st)
	tx, err := scratchBegin(st)
	if err != nil {
		return nil, err
	}
	var pages [8]pageID
	for i := range pages {
		if pages[i], err = txAllocate(tx); err != nil {
			return nil, err
		}
	}
	if err := txCommit(tx); err != nil {
		return nil, err
	}
	var commits []float64
	for r := 0; r < 300; r++ {
		t0 := time.Now()
		tx, err := scratchBegin(st)
		if err != nil {
			return nil, err
		}
		for _, id := range pages {
			if err := txTouch(tx, id, byte(r)); err != nil {
				return nil, err
			}
		}
		if err := txCommit(tx); err != nil {
			return nil, err
		}
		commits = append(commits, float64(time.Since(t0))/1e3)
	}
	p.commitUS = median(commits)

	// btree: point gets and a full scan of the scratch orders tree.
	tx, err = scratchBegin(s.st)
	if err != nil {
		return nil, err
	}
	to := treeOpen(tx, s.roots[0])
	rng := rand.New(rand.NewSource(1))
	var gets []float64
	for i := 0; i < 2000; i++ {
		key := orderKey(s.keys[rng.Intn(len(s.keys))])
		t0 := time.Now()
		_, ok, err := treeGet(to, key)
		gets = append(gets, float64(time.Since(t0)))
		if err != nil || !ok {
			return nil, fmt.Errorf("btree probe: get: found=%v err=%v", ok, err)
		}
	}
	p.btreeGetNS = median(gets)
	t0 = time.Now()
	n, err := treeScan(to)
	if err != nil || n != len(s.keys) {
		return nil, fmt.Errorf("btree probe: scan saw %d of %d entries: %v", n, len(s.keys), err)
	}
	p.btreeScanNS = float64(time.Since(t0)) / float64(n)
	return p, txCommit(tx)
}

// probeGets times SnapshotReader.Get over the read-set of a full scan
// of orders at an old snapshot: warm, then after the snapshot cache was
// emptied.
func probeGets(e *env, m map[string]float64) error {
	snap := e.snaps[len(e.snaps)/4].id
	recordReadSets(e.local, true)
	err := execAsOf(e.local, `SELECT COUNT(*) FROM orders`, snap, nil)
	pages := lastReadSet(e.local)
	recordReadSets(e.local, false)
	if err != nil {
		return err
	}
	var hit, miss []float64
	if err := timeGets(e.db, snap, pages, func(time.Duration) {}); err != nil {
		return err
	}
	if err := timeGets(e.db, snap, pages, func(d time.Duration) { hit = append(hit, float64(d)) }); err != nil {
		return err
	}
	dbResetSnapshotCache(e.db)
	if err := timeGets(e.db, snap, pages, func(d time.Duration) { miss = append(miss, float64(d)/1e3) }); err != nil {
		return err
	}
	m["retro.get_hit_ns_p50"] = median(hit)
	m["retro.get_miss_us_p50"] = median(miss)
	return nil
}

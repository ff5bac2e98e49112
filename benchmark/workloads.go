package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// The paper's Table 1 retrospective queries. Qq_collate's date and
// Qq_int's key range are filled in per op.
const (
	qqIO     = `SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'`
	qqAgg    = `SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders GROUP BY o_custkey`
	aggPairs = `(cn,MAX):(av,MAX)`

	// viewDDL is commit_refresh's materialized retro view: one row per
	// snapshot, so every COMMIT WITH SNAPSHOT triggers one incremental
	// refresh step.
	viewName = `open_orders`
	viewDDL  = `CREATE RETRO VIEW ` + viewName + ` AS CollateData('SELECT COUNT(*) AS n, current_snapshot() AS sid FROM orders WHERE o_orderstatus = ''O''')`
)

// Op classes. A workload's class list indexes its per-class timers.
const (
	clCollate = iota
	clAggVar
	clAggTable
	clIntervals
	clPoint
	clRange
	clRefresh
)

var className = [...]string{"collate", "aggvar", "aggtable", "intervals", "point", "range", "refresh"}

// op is one request of a workload, fully determined by the seed.
type op struct {
	class int
	// Mechanism ops: the Qs set is every stride-th snapshot of
	// snaps[first .. first+(members-1)*stride], and the Qq text.
	first, members, stride int
	qq                     string
	// AS OF ops: snapshot index and the order-key range [keyLo, keyHi).
	snap         int
	keyLo, keyHi int64
}

// opResult is what one op delivered to its caller.
type opResult struct {
	rows   int       // rows delivered to (reads) or accepted from (writes) the client
	bytes  int       // encoded size of the rows a write op sent
	digest uint64    // order-independent digest of the delivered rows
	fval   float64   // the single value of an aggvar result
	run    *RunStats // mechanism statistics as returned to the client
}

// expectation is what the oracle derived for an op.
type expectation struct {
	rows   int
	digest uint64
	fval   float64
	isF    bool // compare fval (within rounding) instead of digest
}

func (x expectation) matches(r opResult) bool {
	if x.rows != r.rows {
		return false
	}
	if x.isF {
		return math.Abs(x.fval-r.fval) <= 1e-9*math.Max(1, math.Abs(x.fval))
	}
	return x.digest == r.digest
}

// workload is one traffic mix.
type workload interface {
	name() string
	classes() []int
	// cold workloads have their snapshot cache reset before each traced
	// level replay; warm ones are left as the window left them.
	cold() bool
	sizes(tiny bool) sizes
	// plan draws the op schedule of each closed-loop session; a session
	// runs its schedule cyclically.
	plan(e *env, rng *rand.Rand) [][]op
	// do runs one op through s (a network or an in-process session).
	do(e *env, s session, sess int, o op) (opResult, error)
	// expect derives what o must deliver without the program's
	// mechanisms: per-snapshot AS OF queries folded here, or the shadow
	// map of rows the benchmark wrote.
	expect(e *env, o op) (expectation, error)
}

var workloads = []workload{mechScan{}, mechSparse{}, asofPoint{}, &commitRefresh{}}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// ---- digests -------------------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// hashRow digests one row; digests of a result's rows are summed, so a
// result compares equal whatever order its rows arrive in.
func hashRow(row []Value) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		switch {
		case isInt(v):
			h = mix(mix(h, 1), uint64(v.Int()))
		case isFloat(v):
			h = mix(mix(h, 2), math.Float64bits(v.Float()))
		case isText(v):
			h = mix(h, 3)
			for _, b := range []byte(v.Text()) {
				h = (h ^ uint64(b)) * fnvPrime
			}
		default:
			h = mix(h, 0)
		}
	}
	return h
}

// ---- mechanism ops (mech_scan, mech_sparse) --------------------------------------

// memberIDs lists the snapshot ids of a mechanism op's Qs set.
func (o op) memberIDs(e *env) []uint64 {
	ids := make([]uint64, o.members)
	for i := range ids {
		ids[i] = e.snaps[o.first+i*o.stride].id
	}
	return ids
}

// qs is the op's snapshot-set query over SnapIds (the paper's Qs_N).
func (o op) qs(e *env) string {
	lo := e.snaps[o.first].id
	hi := e.snaps[o.first+(o.members-1)*o.stride].id
	if o.stride == 1 {
		return fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d ORDER BY snap_id`, lo, hi)
	}
	return fmt.Sprintf(`SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d AND (snap_id - %d) %% %d = 0 ORDER BY snap_id`,
		lo, hi, lo, o.stride)
}

// doMech runs the mechanism, fetches the result table back and drops it.
func doMech(s session, sess int, o op, qs string) (res opResult, err error) {
	table := fmt.Sprintf("r_%d", sess)
	switch o.class {
	case clCollate:
		res.run, err = s.CollateData(qs, o.qq, table)
	case clAggVar:
		res.run, err = s.AggregateDataInVariable(qs, o.qq, table, "avg")
	case clAggTable:
		res.run, err = s.AggregateDataInTable(qs, o.qq, table, aggPairs)
	case clIntervals:
		res.run, err = s.CollateDataIntoIntervals(qs, o.qq, table)
	}
	if err != nil {
		_ = s.Exec(`DROP TABLE IF EXISTS `+table, nil) // best effort: leave the name free for the next op
		return res, err
	}
	err = s.Exec(`SELECT * FROM `+table, func(_ []string, row []Value) error {
		res.rows++
		res.digest += hashRow(row)
		if o.class == clAggVar {
			res.fval = row[0].AsFloat()
		}
		return nil
	})
	if derr := s.Exec(`DROP TABLE `+table, nil); err == nil {
		err = derr
	}
	if err == nil && res.run != nil && res.rows != res.run.ResultRows {
		err = fmt.Errorf("%s: fetched %d rows, mechanism reported %d", className[o.class], res.rows, res.run.ResultRows)
	}
	return res, err
}

// expectMech folds per-snapshot AS OF results the way the op's mechanism
// is specified to (paper §2), without calling the mechanism.
func expectMech(e *env, o op) (expectation, error) {
	var x expectation
	ids := o.memberIDs(e)
	switch o.class {
	case clCollate:
		for _, id := range ids {
			err := execAsOf(e.local, o.qq, id, func(_ []string, row []Value) error {
				x.rows++
				x.digest += hashRow(row)
				return nil
			})
			if err != nil {
				return x, err
			}
		}
	case clAggVar:
		sum := 0.0
		for _, id := range ids {
			err := execAsOf(e.local, o.qq, id, func(_ []string, row []Value) error {
				sum += row[0].AsFloat()
				return nil
			})
			if err != nil {
				return x, err
			}
		}
		x.rows, x.fval, x.isF = 1, sum/float64(len(ids)), true
	case clAggTable:
		type agg struct {
			cn int64
			av float64
		}
		groups := make(map[int64]*agg)
		for _, id := range ids {
			err := execAsOf(e.local, o.qq, id, func(_ []string, row []Value) error {
				g := groups[row[0].Int()]
				if g == nil {
					groups[row[0].Int()] = &agg{cn: row[1].Int(), av: row[2].Float()}
					return nil
				}
				g.cn = max(g.cn, row[1].Int())
				g.av = max(g.av, row[2].Float())
				return nil
			})
			if err != nil {
				return x, err
			}
		}
		for cust, g := range groups {
			x.rows++
			x.digest += hashRow([]Value{intVal(cust), intVal(g.cn), floatVal(g.av)})
		}
	case clIntervals:
		type rec struct{ key, cust int64 }
		open := make(map[rec]uint64) // record -> start of its current lifetime
		var prev uint64
		closeOut := func(r rec, start, end uint64) {
			x.rows++
			x.digest += hashRow([]Value{intVal(r.key), intVal(r.cust), intVal(int64(start)), intVal(int64(end))})
		}
		for _, id := range ids {
			seen := make(map[rec]bool)
			err := execAsOf(e.local, o.qq, id, func(_ []string, row []Value) error {
				seen[rec{row[0].Int(), row[1].Int()}] = true
				return nil
			})
			if err != nil {
				return x, err
			}
			for r, start := range open {
				if !seen[r] {
					closeOut(r, start, prev)
					delete(open, r)
				}
			}
			for r := range seen {
				if _, ok := open[r]; !ok {
					open[r] = id
				}
			}
			prev = id
		}
		for r, start := range open {
			closeOut(r, start, prev)
		}
	}
	return x, nil
}

// strata returns n values that cover [0, 1) evenly — one per n-th, at a
// seeded phase — in a seeded order. Window and key positions drawn this
// way differ from seed to seed, but every seed spreads its few ops over
// the whole history, so an op's mean cost does not depend on the draw.
func strata(rng *rand.Rand, n int) []float64 {
	phase := rng.Float64()
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + phase) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mechScan is the paper's canonical run: the four mechanisms over Qs_50
// windows of a dense history.
type mechScan struct{}

func (mechScan) name() string   { return "mech_scan" }
func (mechScan) classes() []int { return []int{clCollate, clAggVar, clAggTable, clIntervals} }
func (mechScan) cold() bool     { return false }

func (mechScan) sizes(tiny bool) sizes {
	if tiny {
		return sizes{sf: 0.001, perSnap: 30, refreshes: 16, members: 6, stride: 1, cycle: 4}
	}
	// UW30: the database is overwritten every 50 snapshots.
	return sizes{sf: 0.001, perSnap: 30, refreshes: 110, members: 50, stride: 1, cycle: 8}
}

func (w mechScan) plan(e *env, rng *rand.Rand) [][]op {
	sz := e.sz
	starts := strata(rng, 2*sz.cycle)
	plans := make([][]op, 2)
	for s := range plans {
		// Two windows per class and session; the classes alternate so
		// both sessions are rarely in the same mechanism at once.
		for i := 0; i < sz.cycle; i++ {
			o := op{class: w.classes()[(i+2*s)%4], members: sz.members, stride: 1}
			o.first = int(starts[s*sz.cycle+i] * float64(len(e.snaps)-sz.members+1))
			at := e.snaps[o.first]
			switch o.class {
			case clCollate:
				// Qq_collate's date: a fifth of the orders live when the
				// window opens are older, whatever dates the seed drew,
				// so the result size does not depend on the seed.
				dates := make([]string, 0, e.orders0)
				for k := at.lo; k <= at.hi; k++ {
					dates = append(dates, e.orders[k].date)
				}
				sort.Strings(dates)
				o.qq = fmt.Sprintf(`SELECT o_orderkey FROM orders WHERE o_orderdate < '%s'`, dates[len(dates)/5])
			case clAggVar:
				o.qq = qqIO
			case clAggTable:
				o.qq = qqAgg
			case clIntervals:
				// A key range that straddles the window's deletion
				// front: some lifetimes end inside the window, some
				// outlast it.
				lo := at.lo + int64(sz.perSnap*sz.members/2)
				o.qq = fmt.Sprintf(`SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d`,
					lo, lo+int64(e.orders0/5))
			}
			plans[s] = append(plans[s], o)
		}
	}
	return plans
}

func (mechScan) do(e *env, s session, sess int, o op) (opResult, error) {
	return doMech(s, sess, o, o.qs(e))
}
func (mechScan) expect(e *env, o op) (expectation, error) { return expectMech(e, o) }

// mechSparse runs cheap indexed Qqs over long strided sets of a sparse
// history with a snapshot cache far smaller than the sets' footprint.
type mechSparse struct{}

func (mechSparse) name() string   { return "mech_sparse" }
func (mechSparse) classes() []int { return []int{clAggVar, clCollate} }
func (mechSparse) cold() bool     { return true }

func (mechSparse) sizes(tiny bool) sizes {
	if tiny {
		return sizes{sf: 0.001, perSnap: 15, refreshes: 16, quiet: 3, cachePages: 32, compaction: true, members: 12, stride: 2, cycle: 8}
	}
	return sizes{sf: 0.002, perSnap: 30, refreshes: 100, quiet: 3, cachePages: 192, compaction: true, members: 80, stride: 2, cycle: 64}
}

func (w mechSparse) plan(e *env, rng *rand.Rand) [][]op {
	sz := e.sz
	span := (sz.members-1)*sz.stride + 1
	starts, keys := strata(rng, 2*sz.cycle), strata(rng, 2*sz.cycle)
	plans := make([][]op, 2)
	for s := range plans {
		for i := 0; i < sz.cycle; i++ {
			o := op{class: w.classes()[(i+s)%2], members: sz.members, stride: sz.stride}
			o.first = int(starts[s*sz.cycle+i] * float64(len(e.snaps)-span+1))
			// 32 consecutive order keys somewhere in what is live when
			// the window opens: rows drop out as the deletion front
			// passes them.
			at := e.snaps[o.first]
			lo := at.lo + int64(keys[s*sz.cycle+i]*float64(at.hi-at.lo-32))
			where := fmt.Sprintf(`o_orderkey >= %d AND o_orderkey < %d`, lo, lo+32)
			if o.class == clAggVar {
				o.qq = `SELECT COUNT(*) FROM orders WHERE ` + where
			} else {
				o.qq = `SELECT o_orderkey, o_totalprice FROM orders WHERE ` + where
			}
			plans[s] = append(plans[s], o)
		}
	}
	return plans
}

func (mechSparse) do(e *env, s session, sess int, o op) (opResult, error) {
	return doMech(s, sess, o, o.qs(e))
}
func (mechSparse) expect(e *env, o op) (expectation, error) { return expectMech(e, o) }

// ---- asof_point -------------------------------------------------------------------

const (
	pointSQL = `SELECT AS OF ? o_orderkey, o_custkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = ?`
	rangeSQL = `SELECT AS OF ? o_orderkey, o_custkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey >= ? AND o_orderkey < ?`
)

// asofPoint issues single-statement indexed AS OF reads with bound
// parameters, skewed toward recent snapshots.
type asofPoint struct{}

func (asofPoint) name() string   { return "asof_point" }
func (asofPoint) classes() []int { return []int{clPoint, clRange} }
func (asofPoint) cold() bool     { return false }

func (asofPoint) sizes(tiny bool) sizes {
	if tiny {
		return sizes{sf: 0.001, perSnap: 30, refreshes: 24, cycle: 256}
	}
	return sizes{sf: 0.004, perSnap: 60, refreshes: 120, cycle: 2048}
}

func (asofPoint) plan(e *env, rng *rand.Rand) [][]op {
	n := len(e.snaps)
	zipf := rand.NewZipf(rng, 1.2, 4, uint64(n-1))
	plans := make([][]op, 2)
	for s := range plans {
		for i := 0; i < e.sz.cycle; i++ {
			o := op{class: clPoint, snap: n - 1 - int(zipf.Uint64())}
			at := e.snaps[o.snap]
			o.keyLo = at.lo + rng.Int63n(at.hi-at.lo+1)
			switch {
			case i%16 == 15:
				// A key the refreshes deleted before this snapshot: the
				// read must come back empty.
				o.keyLo = at.lo - 1 - rng.Int63n(int64(e.sz.perSnap))
				o.keyHi = o.keyLo + 1
			case i%4 == 3:
				o.class, o.keyHi = clRange, o.keyLo+16
			default:
				o.keyHi = o.keyLo + 1
			}
			plans[s] = append(plans[s], o)
		}
	}
	return plans
}

func (asofPoint) do(e *env, s session, _ int, o op) (opResult, error) {
	return doAsOf(s, e.snaps[o.snap].id, o)
}

// doAsOf issues the op's AS OF read with bound parameters.
func doAsOf(s session, snapID uint64, o op) (res opResult, err error) {
	cb := func(_ []string, row []Value) error {
		res.rows++
		res.digest += hashRow(row)
		return nil
	}
	if o.class == clRange {
		err = s.Exec(rangeSQL, cb, intVal(int64(snapID)), intVal(o.keyLo), intVal(o.keyHi))
	} else {
		err = s.Exec(pointSQL, cb, intVal(int64(snapID)), intVal(o.keyLo))
	}
	return res, err
}

func (asofPoint) expect(e *env, o op) (expectation, error) {
	return expectAsOf(e, e.snaps[o.snap], o), nil
}

// expectAsOf answers an AS OF read from the shadow map.
func expectAsOf(e *env, at snapInfo, o op) expectation {
	var x expectation
	for k := max(o.keyLo, at.lo); k < o.keyHi && k <= at.hi; k++ {
		so, ok := e.orders[k]
		if !ok {
			continue
		}
		x.rows++
		x.digest += hashRow([]Value{intVal(k), intVal(so.cust), textVal(so.status), floatVal(so.total)})
	}
	return x
}

// ---- commit_refresh ------------------------------------------------------------------

// commitRefresh writes beside reads: the closed-loop session runs
// refresh transactions ending in COMMIT WITH SNAPSHOT; a second session
// reads at a fixed pace (see reader in run.go).
type commitRefresh struct {
	mu    sync.Mutex // guards env.snaps/env.orders appends against the paced reader
	clock time.Time
	stmts map[int]string // INSERT INTO lineitem text by row count
}

func (*commitRefresh) name() string   { return "commit_refresh" }
func (*commitRefresh) classes() []int { return []int{clRefresh} }
func (*commitRefresh) cold() bool     { return false }

func (*commitRefresh) sizes(tiny bool) sizes {
	if tiny {
		return sizes{sf: 0.001, perSnap: 4, refreshes: 12, view: true, cycle: 8}
	}
	return sizes{sf: 0.002, perSnap: 8, refreshes: 40, view: true, cycle: 128}
}

func (*commitRefresh) plan(*env, *rand.Rand) [][]op { return [][]op{{{class: clRefresh}}} }

func insertSQL(table string, cols, rows int) string {
	row := "(" + strings.TrimSuffix(strings.Repeat("?,", cols), ",") + ")"
	return "INSERT INTO " + table + " VALUES " + strings.TrimSuffix(strings.Repeat(row+",", rows), ",")
}

// do runs the next refresh transaction: RF2 deletes the oldest orders
// and their lineitems, RF1 inserts as many new ones, and the commit
// declares a snapshot that is then registered in SnapIds.
func (w *commitRefresh) do(e *env, s session, _ int, _ op) (res opResult, err error) {
	n := e.sz.perSnap
	w.mu.Lock()
	at := e.snaps[len(e.snaps)-1]
	w.mu.Unlock()
	cut := at.lo + int64(n)
	orders := nextOrders(e.gen, n)

	if err = s.Exec(`BEGIN`, nil); err != nil {
		return res, err
	}
	abort := func(err error) (opResult, error) {
		_ = s.Exec(`ROLLBACK`, nil) // the session may already be broken; the op failed either way
		return res, err
	}
	if err = s.Exec(`DELETE FROM lineitem WHERE l_orderkey < ?`, nil, intVal(cut)); err != nil {
		return abort(err)
	}
	if err = s.Exec(`DELETE FROM orders WHERE o_orderkey < ?`, nil, intVal(cut)); err != nil {
		return abort(err)
	}
	params := make([]Value, 0, 9*n)
	var enc []byte
	for _, o := range orders {
		params = append(params, o.Row...)
		enc = encodeRow(enc[:0], o.Row)
		res.bytes += len(enc)
	}
	if err = s.Exec(insertSQL("orders", 9, n), nil, params...); err != nil {
		return abort(err)
	}
	res.rows = n
	if w.stmts == nil {
		w.stmts = make(map[int]string)
	}
	for _, o := range orders {
		k := len(o.Lineitems)
		text, ok := w.stmts[k]
		if !ok {
			text = insertSQL("lineitem", 16, k)
			w.stmts[k] = text
		}
		params = params[:0]
		for _, li := range o.Lineitems {
			params = append(params, li...)
			enc = encodeRow(enc[:0], li)
			res.bytes += len(enc)
		}
		if err = s.Exec(text, nil, params...); err != nil {
			return abort(err)
		}
		res.rows += k
	}
	id, err := s.CommitWithSnapshot()
	if err != nil {
		return res, err
	}
	if w.clock.IsZero() {
		w.clock = time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	w.clock = w.clock.Add(time.Hour)
	if err = s.RecordSnapshot(id, w.clock, fmt.Sprintf("bench-%d", id)); err != nil {
		return res, err
	}
	w.mu.Lock()
	e.remember(orders)
	e.snaps = append(e.snaps, snapInfo{id: id, lo: cut, hi: at.hi + int64(n)})
	w.mu.Unlock()
	return res, nil
}

func (*commitRefresh) expect(*env, op) (expectation, error) {
	return expectation{}, fmt.Errorf("commit_refresh ops are checked by finalCheck")
}

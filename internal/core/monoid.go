package core

import (
	"strings"

	"rql/internal/record"
)

// Monoid is the algebraic structure the paper requires of RQL aggregate
// functions (§2.3): an associative, commutative binary operation with
// an identity element over SQL values. MIN, MAX, SUM and COUNT satisfy
// it directly; AVG does not, and is supported as the paper's special
// case by the avgAccumulator below. NULL acts as the identity for every
// monoid (combining with a missing value is a no-op), which matches SQL
// aggregates ignoring NULLs.
type Monoid struct {
	Name string
	// Identity is the identity element (NULL for min/max — any value
	// beats "nothing" — and 0 for sum/count).
	Identity record.Value
	// Op combines two values. It must be associative and commutative.
	Op func(a, b record.Value) record.Value
}

// Combine applies the operation with NULL-as-identity semantics.
func (m *Monoid) Combine(a, b record.Value) record.Value {
	if a.IsNull() {
		return b
	}
	if b.IsNull() {
		return a
	}
	return m.Op(a, b)
}

var (
	// MonoidMin keeps the smaller value.
	MonoidMin = &Monoid{
		Name:     "min",
		Identity: record.Null(),
		Op: func(a, b record.Value) record.Value {
			if record.Compare(b, a) < 0 {
				return b
			}
			return a
		},
	}
	// MonoidMax keeps the larger value.
	MonoidMax = &Monoid{
		Name:     "max",
		Identity: record.Null(),
		Op: func(a, b record.Value) record.Value {
			if record.Compare(b, a) > 0 {
				return b
			}
			return a
		},
	}
	// MonoidSum adds values (integer arithmetic while both sides are
	// integers and the sum fits in 64 bits, float otherwise).
	MonoidSum = &Monoid{
		Name:     "sum",
		Identity: record.Int(0),
		Op:       addValues,
	}
	// MonoidCount adds partial counts: combining per-snapshot counts
	// across snapshots sums them.
	MonoidCount = &Monoid{
		Name:     "count",
		Identity: record.Int(0),
		Op:       addValues,
	}
)

// addValues is the sum and count monoids' operation. An integer sum
// that overflows 64 bits is promoted to REAL rather than wrapped, as
// SQL's + does (sql.arith).
func addValues(a, b record.Value) record.Value {
	if a.Type() == record.TypeInt && b.Type() == record.TypeInt {
		x, y := a.Int(), b.Int()
		if s := x + y; (s > x) == (y > 0) {
			return record.Int(s)
		}
	}
	return record.Float(a.AsFloat() + b.AsFloat())
}

// avgName marks the AVG special case (paper §2.3: average is not a
// monoid, so the mechanisms carry an auxiliary count).
const avgName = "avg"

// monoidByName resolves an aggregate-function name. AVG returns a
// sentinel monoid whose Op must never be called directly; the
// fold detects it by name and uses avgAccumulator / avgMerge instead.
func monoidByName(name string) *Monoid {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "min":
		return MonoidMin
	case "max":
		return MonoidMax
	case "sum":
		return MonoidSum
	case "count":
		return MonoidCount
	case avgName:
		return monoidAvgSentinel
	}
	return nil
}

var monoidAvgSentinel = &Monoid{
	Name:     avgName,
	Identity: record.Null(),
	Op: func(a, b record.Value) record.Value {
		panic("rql: AVG is not a monoid; use avgAccumulator")
	},
}

// avgAccumulator implements the paper's AVG special case: a running
// (sum, count) pair that yields the average on demand.
type avgAccumulator struct {
	sum float64
	n   int64
}

// add folds in v, the sum of n observations (a Qq value is its own sum
// of one).
func (a *avgAccumulator) add(v record.Value, n int64) {
	if v.IsNull() {
		return
	}
	a.sum += v.AsFloat()
	a.n += n
}

func (a *avgAccumulator) value() record.Value {
	if a.n == 0 {
		return record.Null()
	}
	return record.Float(a.sum / float64(a.n))
}

// avgMerge folds x, the average of xn observations (a Qq value is its
// own average of one), into a stored average with its auxiliary count,
// returning the new average and count (used by Aggregate Data In Table,
// where T stores the running average and the count lives in the fold's
// auxiliary map).
func avgMerge(curAvg record.Value, curN int64, x record.Value, xn int64) (record.Value, int64) {
	if x.IsNull() || xn == 0 {
		return curAvg, curN
	}
	if curAvg.IsNull() || curN == 0 {
		return record.Float(x.AsFloat()), xn
	}
	n := curN + xn
	return record.Float((curAvg.AsFloat()*float64(curN) + x.AsFloat()*float64(xn)) / float64(n)), n
}

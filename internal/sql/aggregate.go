package sql

import (
	"errors"
	"fmt"

	"rql/internal/record"
)

// isAggregateName reports whether name is a SQL aggregate function.
func isAggregateName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// aggState accumulates one aggregate over one group.
type aggState interface {
	// step consumes one input value. For count(*) the value is ignored.
	// It reports whether this value became the aggregate's current
	// extreme (used for SQLite's bare-column-from-the-min/max-row rule).
	step(v record.Value) bool
	final() (record.Value, error)
	// reset empties the state for another group: an aggregate operator
	// recycles its groups from one run of its plan to the next.
	reset()
}

// errIntegerOverflow fails a statement whose SUM() of integers does not
// fit in 64 bits, as SQLite's does.
var errIntegerOverflow = errors.New("sql: integer overflow")

func newAggState(name string) (aggState, error) {
	switch name {
	case "count":
		return &countState{}, nil
	case "sum":
		return &sumState{}, nil
	case "avg":
		return &avgState{}, nil
	case "min":
		return &minMaxState{min: true}, nil
	case "max":
		return &minMaxState{}, nil
	}
	return nil, fmt.Errorf("sql: unknown aggregate %s", name)
}

type countState struct{ n int64 }

func (s *countState) step(v record.Value) bool {
	if !v.IsNull() {
		s.n++
	}
	return false
}
func (s *countState) final() (record.Value, error) { return record.Int(s.n), nil }
func (s *countState) reset()                       { *s = countState{} }

// sumState implements SUM: NULL over empty input, integer arithmetic
// while all inputs are integers. An integer sum that overflows makes the
// statement fail (SQLite: "integer overflow"), even if a REAL input
// follows.
type sumState struct {
	seen     bool
	isFloat  bool
	overflow bool
	i        int64
	f        float64
}

func (s *sumState) step(v record.Value) bool {
	if v.IsNull() {
		return false
	}
	s.seen = true
	if !s.isFloat && v.Type() == record.TypeInt {
		if sum, ok := addInt64(s.i, v.Int()); ok {
			s.i = sum
			return false
		}
		s.overflow = true
	}
	if !s.isFloat {
		s.isFloat = true
		s.f = float64(s.i)
	}
	s.f += v.AsFloat()
	return false
}

func (s *sumState) final() (record.Value, error) {
	switch {
	case s.overflow:
		return record.Value{}, errIntegerOverflow
	case !s.seen:
		return record.Null(), nil
	case s.isFloat:
		return record.Float(s.f), nil
	}
	return record.Int(s.i), nil
}

func (s *sumState) reset() { *s = sumState{} }

type avgState struct {
	n   int64
	sum float64
}

func (s *avgState) step(v record.Value) bool {
	if v.IsNull() {
		return false
	}
	s.n++
	s.sum += v.AsFloat()
	return false
}

func (s *avgState) final() (record.Value, error) {
	if s.n == 0 {
		return record.Null(), nil
	}
	return record.Float(s.sum / float64(s.n)), nil
}

func (s *avgState) reset() { *s = avgState{} }

type minMaxState struct {
	min  bool
	seen bool
	best record.Value
}

func (s *minMaxState) step(v record.Value) bool {
	if v.IsNull() {
		return false
	}
	if !s.seen {
		s.seen = true
		s.best = v
		return true
	}
	c := record.Compare(v, s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
		return true
	}
	return false
}

func (s *minMaxState) final() (record.Value, error) {
	if !s.seen {
		return record.Null(), nil
	}
	return s.best, nil
}

func (s *minMaxState) reset() { *s = minMaxState{min: s.min} }

// distinctAgg wraps an aggregate to apply it over distinct inputs
// (COUNT(DISTINCT x) and friends).
type distinctAgg struct {
	inner aggState
	seen  map[string]bool
}

func newDistinctAgg(inner aggState) *distinctAgg {
	return &distinctAgg{inner: inner, seen: make(map[string]bool)}
}

func (d *distinctAgg) step(v record.Value) bool {
	if v.IsNull() {
		return false
	}
	key := string(record.EncodeKey(nil, []record.Value{v}))
	if d.seen[key] {
		return false
	}
	d.seen[key] = true
	return d.inner.step(v)
}

func (d *distinctAgg) final() (record.Value, error) { return d.inner.final() }

func (d *distinctAgg) reset() {
	d.inner.reset()
	clear(d.seen)
}

// collectAggregates walks an expression tree collecting aggregate
// function calls (they cannot nest; nesting is reported as an error).
func collectAggregates(e Expr, into *[]*FuncCall) error {
	switch x := e.(type) {
	case nil, *Literal, *ColumnRef, *ParamRef:
		return nil
	case *UnaryExpr:
		return collectAggregates(x.X, into)
	case *BinaryExpr:
		if err := collectAggregates(x.L, into); err != nil {
			return err
		}
		return collectAggregates(x.R, into)
	case *IsNullExpr:
		return collectAggregates(x.X, into)
	case *BetweenExpr:
		for _, sub := range []Expr{x.X, x.Lo, x.Hi} {
			if err := collectAggregates(sub, into); err != nil {
				return err
			}
		}
		return nil
	case *InExpr:
		if err := collectAggregates(x.X, into); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := collectAggregates(it, into); err != nil {
				return err
			}
		}
		return nil
	case *FuncCall:
		if isAggregateName(x.Name) {
			var nested []*FuncCall
			for _, a := range x.Args {
				if err := collectAggregates(a, &nested); err != nil {
					return err
				}
			}
			if len(nested) > 0 {
				return fmt.Errorf("sql: aggregate functions cannot nest")
			}
			*into = append(*into, x)
			return nil
		}
		for _, a := range x.Args {
			if err := collectAggregates(a, into); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sql: collectAggregates: unknown expression %T", e)
}

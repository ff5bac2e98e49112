package sql

import (
	"math"
	"strings"

	"rql/internal/record"
)

// FuncDef describes a scalar SQL function: a builtin or a registered
// UDF. The RQL mechanisms are UDFs registered through this interface,
// mirroring the paper's SQLite-UDF implementation.
type FuncDef struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 = variadic
	// Fn is invoked once per row the function appears in.
	Fn func(fc *FuncContext, args []record.Value) (record.Value, error)
}

// FuncContext is passed to every scalar function invocation. UDFs use
// it to reach the connection (to execute nested SQL, as sqlite3 UDFs do
// through the API), the current snapshot, and per-call-site auxiliary
// state that lives for the duration of one statement execution (the
// equivalent of sqlite3_get_auxdata, which the RQL "loop body" UDFs use
// to carry state across Qs iterations).
type FuncContext struct {
	ec       *execCtx
	callSite *FuncCall
}

// Conn returns the connection executing the statement.
func (fc *FuncContext) Conn() *Conn { return fc.ec.conn }

// AsOf returns the snapshot id the enclosing statement runs over
// (0 when it runs over the current state).
func (fc *FuncContext) AsOf() uint64 { return uint64(fc.ec.asOf) }

// Aux returns the per-call-site auxiliary state, creating it with mk on
// first use. State persists across invocations within one statement
// execution and is discarded afterwards.
func (fc *FuncContext) Aux(mk func() any) any {
	if fc.ec.aux == nil {
		fc.ec.aux = make(map[*FuncCall]any)
	}
	if v, ok := fc.ec.aux[fc.callSite]; ok {
		return v
	}
	v := mk()
	fc.ec.aux[fc.callSite] = v
	return v
}

// RegisterFunc registers a scalar function or UDF on the database,
// replacing any previous definition with the same name.
func (db *DB) RegisterFunc(def FuncDef) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.funcs[strings.ToLower(def.Name)] = &def
	db.funcGen.Add(1)
}

func (db *DB) function(name string) *FuncDef {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.funcs[strings.ToLower(name)]
}

// builtinFuncs returns the scalar builtins: round(), which the tests use
// to compare AVG across execution paths, and current_snapshot(), the
// construct the paper's Qq rewriting substitutes (§3). Our executor
// carries the AS OF binding in the execution context, which is
// operationally identical to the textual rewrite.
func builtinFuncs() map[string]*FuncDef {
	return map[string]*FuncDef{
		"round": {Name: "round", MinArgs: 1, MaxArgs: 2, Fn: func(_ *FuncContext, a []record.Value) (record.Value, error) {
			if a[0].IsNull() {
				return record.Null(), nil
			}
			digits := 0
			if len(a) == 2 {
				digits = int(a[1].AsInt())
			}
			scale := math.Pow(10, float64(digits))
			return record.Float(math.Round(a[0].AsFloat()*scale) / scale), nil
		}},
		"current_snapshot": {Name: "current_snapshot", MinArgs: 0, MaxArgs: 0, Fn: func(fc *FuncContext, _ []record.Value) (record.Value, error) {
			if fc.AsOf() == 0 {
				return record.Null(), nil
			}
			return record.Int(int64(fc.AsOf())), nil
		}},
	}
}

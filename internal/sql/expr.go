package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rql/internal/record"
)

// colInfo describes one column of an iterator's output row.
type colInfo struct {
	table string // lower-cased table alias ("" for computed columns)
	name  string // lower-cased column name; "#rowid" marks hidden rowids
	// need, for a column that comes straight from a base table, points
	// at that column's slot in the table's scan mask: compiling a read of
	// the column sets it, and the access path decodes only set slots.
	// The pointer travels with the colInfo through join scopes.
	need *bool
}

// use records that some compiled expression reads the column.
func (c colInfo) use() {
	if c.need != nil {
		*c.need = true
	}
}

// baseTableCols describes the rows a base-table access path emits — the
// table's columns, then the hidden rowid — wired to need, the scan mask
// the planner fills in (nil: the access path decodes every column).
func baseTableCols(t *Table, alias string, need []bool) []colInfo {
	cols := make([]colInfo, len(t.Cols)+1)
	for i, c := range t.Cols {
		cols[i] = colInfo{table: alias, name: strings.ToLower(c.Name)}
	}
	cols[len(t.Cols)] = colInfo{table: alias, name: "#rowid"}
	for i := range need {
		cols[i].need = &need[i]
	}
	return cols
}

// compileEnv is the name-resolution environment for compiling
// expressions: the input row's columns, optional select-list aliases
// (for GROUP BY / ORDER BY / HAVING), and optional pre-computed
// aggregate slots.
type compileEnv struct {
	cols    []colInfo
	aliases map[string]Expr   // select-list aliases (lower-cased)
	aggIdx  map[*FuncCall]int // aggregate call -> row position
	ec      *execCtx
	// probe marks a compilation whose result is thrown away (the planner
	// asking "does this resolve here?"): it marks no column as read.
	probe bool
}

// rowCtx carries the current row during evaluation.
type rowCtx struct {
	row []record.Value
	ec  *execCtx
}

// compiledExpr evaluates an expression against the current row.
type compiledExpr func(rc *rowCtx) (record.Value, error)

// resolveColumn finds the row position of a column reference.
func (env *compileEnv) resolveColumn(ref *ColumnRef) (int, error) {
	name := strings.ToLower(ref.Name)
	table := strings.ToLower(ref.Table)
	if name == "rowid" || name == "oid" || name == "_rowid_" {
		name = "#rowid"
	}
	found := -1
	for i, c := range env.cols {
		if c.name != name {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", ref.Name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoColumn, ref.Table, ref.Name)
		}
		return 0, fmt.Errorf("%w: %s", ErrNoColumn, ref.Name)
	}
	if !env.probe {
		env.cols[found].use()
	}
	return found, nil
}

// compileExpr compiles an expression for evaluation against rows shaped
// like env.cols.
func compileExpr(e Expr, env *compileEnv) (compiledExpr, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*rowCtx) (record.Value, error) { return v, nil }, nil

	case *ParamRef:
		idx := x.Index
		return func(rc *rowCtx) (record.Value, error) {
			if idx >= len(rc.ec.params) {
				return record.Value{}, fmt.Errorf("sql: missing value for parameter %d", idx+1)
			}
			return rc.ec.params[idx], nil
		}, nil

	case *ColumnRef:
		if pos, err := env.resolveColumn(x); err == nil {
			return func(rc *rowCtx) (record.Value, error) { return rc.row[pos], nil }, nil
		} else if x.Table == "" && env.aliases != nil {
			if ae, ok := env.aliases[strings.ToLower(x.Name)]; ok {
				// Select-list alias: compile the aliased expression.
				return compileExpr(ae, env)
			}
			return nil, err
		} else {
			return nil, err
		}

	case *UnaryExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(rc *rowCtx) (record.Value, error) {
				v, err := sub(rc)
				if err != nil || v.IsNull() {
					return record.Null(), err
				}
				if v.Type() == record.TypeInt && v.Int() != math.MinInt64 {
					return record.Int(-v.Int()), nil
				}
				return record.Float(-v.AsFloat()), nil
			}, nil
		case "NOT":
			return func(rc *rowCtx) (record.Value, error) {
				v, err := sub(rc)
				if err != nil || v.IsNull() {
					return record.Null(), err
				}
				return record.Bool(!v.Truthy()), nil
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)

	case *BinaryExpr:
		return compileBinary(x, env)

	case *IsNullExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(rc *rowCtx) (record.Value, error) {
			v, err := sub(rc)
			if err != nil {
				return record.Value{}, err
			}
			return record.Bool(v.IsNull() != not), nil
		}, nil

	case *BetweenExpr:
		// x BETWEEN lo AND hi  ==  x >= lo AND x <= hi
		rewritten := &BinaryExpr{
			Op: "AND",
			L:  &BinaryExpr{Op: ">=", L: x.X, R: x.Lo},
			R:  &BinaryExpr{Op: "<=", L: x.X, R: x.Hi},
		}
		c, err := compileExpr(rewritten, env)
		if err != nil {
			return nil, err
		}
		if !x.Not {
			return c, nil
		}
		return func(rc *rowCtx) (record.Value, error) {
			v, err := c(rc)
			if err != nil || v.IsNull() {
				return record.Null(), err
			}
			return record.Bool(!v.Truthy()), nil
		}, nil

	case *InExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(x.List))
		for i, it := range x.List {
			c, err := compileExpr(it, env)
			if err != nil {
				return nil, err
			}
			items[i] = c
		}
		not := x.Not
		return func(rc *rowCtx) (record.Value, error) {
			v, err := sub(rc)
			if err != nil {
				return record.Value{}, err
			}
			if v.IsNull() {
				return record.Null(), nil
			}
			sawNull := false
			for _, it := range items {
				iv, err := it(rc)
				if err != nil {
					return record.Value{}, err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if record.Compare(v, iv) == 0 {
					return record.Bool(!not), nil
				}
			}
			if sawNull {
				return record.Null(), nil
			}
			return record.Bool(not), nil
		}, nil

	case *FuncCall:
		return compileFuncCall(x, env)
	}
	return nil, fmt.Errorf("sql: cannot compile expression %T", e)
}

func compileBinary(x *BinaryExpr, env *compileEnv) (compiledExpr, error) {
	l, err := compileExpr(x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return func(rc *rowCtx) (record.Value, error) {
			lv, err := l(rc)
			if err != nil {
				return record.Value{}, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return record.Bool(false), nil
			}
			rv, err := r(rc)
			if err != nil {
				return record.Value{}, err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return record.Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return record.Null(), nil
			}
			return record.Bool(true), nil
		}, nil
	case "OR":
		return func(rc *rowCtx) (record.Value, error) {
			lv, err := l(rc)
			if err != nil {
				return record.Value{}, err
			}
			if !lv.IsNull() && lv.Truthy() {
				return record.Bool(true), nil
			}
			rv, err := r(rc)
			if err != nil {
				return record.Value{}, err
			}
			if !rv.IsNull() && rv.Truthy() {
				return record.Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return record.Null(), nil
			}
			return record.Bool(false), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		op := x.Op
		return func(rc *rowCtx) (record.Value, error) {
			lv, err := l(rc)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(rc)
			if err != nil {
				return record.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return record.Null(), nil
			}
			c := record.Compare(lv, rv)
			var res bool
			switch op {
			case "=":
				res = c == 0
			case "!=":
				res = c != 0
			case "<":
				res = c < 0
			case "<=":
				res = c <= 0
			case ">":
				res = c > 0
			case ">=":
				res = c >= 0
			}
			return record.Bool(res), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(rc *rowCtx) (record.Value, error) {
			lv, err := l(rc)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(rc)
			if err != nil {
				return record.Value{}, err
			}
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown binary operator %q", x.Op)
}

// arith implements SQL arithmetic with SQLite semantics: NULL
// propagates, integer op integer stays integer (except /0 -> NULL, and
// a +, - or * that overflows 64 bits, which computes in float), anything
// else computes in float — except %, which SQLite computes on the
// operands cast to integers (NULL when the divisor casts to 0).
func arith(op string, a, b record.Value) (record.Value, error) {
	if a.IsNull() || b.IsNull() {
		return record.Null(), nil
	}
	if a.Type() == record.TypeInt && b.Type() == record.TypeInt {
		x, y := a.Int(), b.Int()
		switch op {
		case "+":
			if r, ok := addInt64(x, y); ok {
				return record.Int(r), nil
			}
		case "-":
			if r, ok := subInt64(x, y); ok {
				return record.Int(r), nil
			}
		case "*":
			if r, ok := mulInt64(x, y); ok {
				return record.Int(r), nil
			}
		case "/":
			if y == 0 {
				return record.Null(), nil
			}
			if x == math.MinInt64 && y == -1 {
				break // the quotient overflows
			}
			return record.Int(x / y), nil
		case "%":
			if y == 0 {
				return record.Null(), nil
			}
			return record.Int(x % y), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return record.Float(x + y), nil
	case "-":
		return record.Float(x - y), nil
	case "*":
		return record.Float(x * y), nil
	case "/":
		if y == 0 {
			return record.Null(), nil
		}
		return record.Float(x / y), nil
	case "%":
		if int64(y) == 0 {
			return record.Null(), nil
		}
		return record.Float(float64(int64(x) % int64(y))), nil
	}
	return record.Value{}, fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

func compileFuncCall(x *FuncCall, env *compileEnv) (compiledExpr, error) {
	// Pre-computed aggregate slot (inside an aggregating SELECT).
	if env.aggIdx != nil {
		if pos, ok := env.aggIdx[x]; ok {
			return func(rc *rowCtx) (record.Value, error) { return rc.row[pos], nil }, nil
		}
	}
	if isAggregateName(x.Name) {
		return nil, fmt.Errorf("sql: misuse of aggregate function %s()", x.Name)
	}
	def := env.ec.conn.db.function(x.Name)
	if def == nil {
		return nil, fmt.Errorf("sql: no such function: %s", x.Name)
	}
	if x.Star {
		return nil, fmt.Errorf("sql: %s(*) is only valid for count", x.Name)
	}
	if len(x.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(x.Args) > def.MaxArgs) {
		return nil, fmt.Errorf("sql: wrong number of arguments to function %s()", x.Name)
	}
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		c, err := compileExpr(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	callSite := x
	return func(rc *rowCtx) (record.Value, error) {
		vals := make([]record.Value, len(args))
		for i, a := range args {
			v, err := a(rc)
			if err != nil {
				return record.Value{}, err
			}
			vals[i] = v
		}
		fc := &FuncContext{ec: rc.ec, callSite: callSite}
		return def.Fn(fc, vals)
	}, nil
}

// addInt64, subInt64 and mulInt64 are 64-bit integer arithmetic that
// reports overflow instead of wrapping.
func addInt64(x, y int64) (int64, bool) {
	r := x + y
	return r, (r > x) == (y > 0)
}

func subInt64(x, y int64) (int64, bool) {
	r := x - y
	return r, (r < x) == (y > 0)
}

func mulInt64(x, y int64) (int64, bool) {
	if x == 0 || y == 0 {
		return 0, true
	}
	r := x * y
	if r/y != x || (x == -1 && y == math.MinInt64) || (y == -1 && x == math.MinInt64) {
		return 0, false
	}
	return r, true
}

func parseInt(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// exprColumnName derives the display name of a result column, following
// SQLite: an explicit alias wins, a plain column reference uses the
// column name, anything else uses the expression's source-ish text.
func exprColumnName(col ResultCol) string {
	if col.Alias != "" {
		return col.Alias
	}
	if ref, ok := col.Expr.(*ColumnRef); ok {
		return ref.Name
	}
	return exprText(col.Expr)
}

// exprText renders an expression roughly back to SQL for display names
// and error messages.
func exprText(e Expr) string {
	switch x := e.(type) {
	case *Literal:
		return x.Val.SQL()
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *ParamRef:
		return "?"
	case *UnaryExpr:
		return x.Op + " " + exprText(x.X)
	case *BinaryExpr:
		return exprText(x.L) + " " + x.Op + " " + exprText(x.R)
	case *FuncCall:
		var args []string
		if x.Star {
			args = []string{"*"}
		}
		for _, a := range x.Args {
			args = append(args, exprText(a))
		}
		inner := strings.Join(args, ", ")
		if x.Distinct {
			inner = "DISTINCT " + inner
		}
		return x.Name + "(" + inner + ")"
	case *IsNullExpr:
		if x.Not {
			return exprText(x.X) + " IS NOT NULL"
		}
		return exprText(x.X) + " IS NULL"
	default:
		return fmt.Sprintf("<expr %T>", e)
	}
}

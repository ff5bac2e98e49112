package sql

import "rql/internal/record"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed expression.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// SelectStmt is a SELECT statement, including the Retro "AS OF" clause
// that runs the query over a declared snapshot.
type SelectStmt struct {
	AsOf     Expr // nil = current state; evaluates to a snapshot id
	Distinct bool
	Cols     []ResultCol
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderTerm
	Limit    Expr
	Offset   Expr
}

// ResultCol is one SELECT-list entry. Star entries select all columns,
// optionally restricted to one table.
type ResultCol struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// TableRef is a FROM-list entry: a named table with an optional alias.
// The entries of a FROM list are joined on the equality conjuncts of
// WHERE.
type TableRef struct {
	Name  string
	Alias string
}

// OrderTerm is one ORDER BY entry.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO ... VALUES/SELECT.
type InsertStmt struct {
	Table  string
	Cols   []string
	Rows   [][]Expr
	Select *SelectStmt
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name       string
	Type       string // declared type (affinity derived from it)
	PrimaryKey bool
	NotNull    bool
}

// CreateTableStmt is CREATE [TEMP] TABLE.
type CreateTableStmt struct {
	Name        string
	Temp        bool
	IfNotExists bool
	Cols        []ColDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Cols        []string
	Unique      bool
	IfNotExists bool
}

// DropStmt is DROP TABLE / DROP INDEX.
type DropStmt struct {
	Index    bool // false = table
	Name     string
	IfExists bool
}

// BeginStmt is BEGIN [TRANSACTION].
type BeginStmt struct{}

// CommitStmt is COMMIT, optionally WITH SNAPSHOT (the Retro snapshot
// declaration command).
type CommitStmt struct{ WithSnapshot bool }

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

// CreateRetroViewStmt is CREATE RETRO VIEW v AS Mechanism('qq'[,'extra']):
// a materialized, incrementally-maintained retrospective view whose
// definition (mechanism + query arguments) persists in the side store's
// catalog.
type CreateRetroViewStmt struct {
	Name      string
	Mechanism string // CollateData / AggregateDataInVariable / ...
	Qq        string // the retrospective query argument
	Extra     string // second string argument (pairs / column), if any
	HasExtra  bool
}

// DropRetroViewStmt is DROP RETRO VIEW [IF EXISTS] v.
type DropRetroViewStmt struct {
	Name     string
	IfExists bool
}

// RefreshRetroViewStmt is REFRESH RETRO VIEW v: synchronously catch the
// view up to the latest declared snapshot.
type RefreshRetroViewStmt struct{ Name string }

func (*SelectStmt) stmt()           {}
func (*InsertStmt) stmt()           {}
func (*UpdateStmt) stmt()           {}
func (*DeleteStmt) stmt()           {}
func (*CreateTableStmt) stmt()      {}
func (*CreateIndexStmt) stmt()      {}
func (*DropStmt) stmt()             {}
func (*BeginStmt) stmt()            {}
func (*CommitStmt) stmt()           {}
func (*RollbackStmt) stmt()         {}
func (*CreateRetroViewStmt) stmt()  {}
func (*DropRetroViewStmt) stmt()    {}
func (*RefreshRetroViewStmt) stmt() {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Literal is a constant value.
type Literal struct{ Val record.Value }

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// ParamRef is a positional '?' parameter (0-based Index).
type ParamRef struct{ Index int }

// UnaryExpr is -x, +x or NOT x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// BinaryExpr is a binary operation (arithmetic, comparison, AND/OR).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// InExpr is "x [NOT] IN (list)".
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// FuncCall is a function invocation: a scalar builtin, a registered
// UDF (including the RQL mechanism UDFs), or an aggregate in a SELECT.
type FuncCall struct {
	Name     string // lower-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x) etc.
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*ParamRef) expr()    {}
func (*UnaryExpr) expr()   {}
func (*BinaryExpr) expr()  {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*InExpr) expr()      {}
func (*FuncCall) expr()    {}

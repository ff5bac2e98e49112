package sql

import (
	"strings"
	"testing"

	"rql/internal/record"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`SELECT a, 'it''s', 3.14, 1e3, x2 FROM "weird ""name""" -- comment
		/* block
		comment */ WHERE ?`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "3.14", ",", "1e3", ",", "x2",
		"FROM", `weird "name"`, "WHERE", "?", ""}
	if len(texts) != len(want) {
		t.Fatalf("token texts: %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d: %q want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != tkString || kinds[5] != tkNumber || kinds[11] != tkIdent {
		t.Errorf("kinds: %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'open", `"open`, "[open", "SELECT @"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) should fail", src)
		}
	}
	// An unterminated block comment is swallowed to EOF (SQLite-ish).
	if toks, err := lex("SELECT 1 /* open"); err != nil || len(toks) != 3 {
		t.Errorf("unterminated block comment: %v %v", toks, err)
	}
}

func TestParseSelectShapes(t *testing.T) {
	s := parseOne(t, `SELECT AS OF 3 DISTINCT a, t.b AS bee, COUNT(*)
		FROM t1 AS x, t2, t3 y
		WHERE a > 1 AND b IN (1,2) GROUP BY a HAVING COUNT(*) > 1
		ORDER BY bee DESC, 1 LIMIT 10 OFFSET 2`).(*SelectStmt)
	if s.AsOf == nil || !s.Distinct || len(s.Cols) != 3 || len(s.From) != 3 {
		t.Fatalf("parsed shape: %+v", s)
	}
	if s.From[0].Alias != "x" || s.From[1].Alias != "" || s.From[2].Alias != "y" {
		t.Errorf("from refs: %+v", s.From)
	}
	if s.Where == nil || len(s.GroupBy) != 1 || s.Having == nil {
		t.Errorf("clauses: %+v", s)
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order by: %+v", s.OrderBy)
	}
	if s.Limit == nil || s.Offset == nil {
		t.Errorf("limit/offset: %+v", s)
	}
}

func TestParseExpressionsPrecedence(t *testing.T) {
	// 1 + 2 * 3 parses as 1 + (2 * 3).
	s := parseOne(t, `SELECT 1 + 2 * 3`).(*SelectStmt)
	add := s.Cols[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op %s", add.Op)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != "*" {
		t.Fatalf("right op %s", mul.Op)
	}
	// a = 1 OR b = 2 AND c = 3 parses as a=1 OR ((b=2) AND (c=3)).
	s = parseOne(t, `SELECT a = 1 OR b = 2 AND c = 3`).(*SelectStmt)
	or := s.Cols[0].Expr.(*BinaryExpr)
	if or.Op != "OR" || or.R.(*BinaryExpr).Op != "AND" {
		t.Fatalf("logical precedence wrong: %s / %T", or.Op, or.R)
	}
	// % binds tighter than comparison, unary minus tighter than %.
	s = parseOne(t, `SELECT -a % 2 = c`).(*SelectStmt)
	eq := s.Cols[0].Expr.(*BinaryExpr)
	if eq.Op != "=" || eq.L.(*BinaryExpr).Op != "%" || eq.L.(*BinaryExpr).L.(*UnaryExpr).Op != "-" {
		t.Fatalf("modulo precedence wrong")
	}
}

func TestParseNegativeNumberFolding(t *testing.T) {
	s := parseOne(t, `SELECT -5, -2.5, -x`).(*SelectStmt)
	if lit := s.Cols[0].Expr.(*Literal); lit.Val.Int() != -5 {
		t.Errorf("folded int: %v", lit.Val)
	}
	if lit := s.Cols[1].Expr.(*Literal); lit.Val.Float() != -2.5 {
		t.Errorf("folded float: %v", lit.Val)
	}
	if _, ok := s.Cols[2].Expr.(*UnaryExpr); !ok {
		t.Errorf("column negation should stay unary")
	}
}

func TestParseIntegerOverflowBecomesFloat(t *testing.T) {
	s := parseOne(t, `SELECT 99999999999999999999`).(*SelectStmt)
	lit := s.Cols[0].Expr.(*Literal)
	if lit.Val.Type() != record.TypeFloat {
		t.Errorf("overflowing literal type: %v", lit.Val.Type())
	}
}

func TestParseNotVariants(t *testing.T) {
	s := parseOne(t, `SELECT a NOT IN (1), c NOT BETWEEN 1 AND 2, NOT d, e IS NOT NULL`).(*SelectStmt)
	if !s.Cols[0].Expr.(*InExpr).Not {
		t.Error("NOT IN")
	}
	if !s.Cols[1].Expr.(*BetweenExpr).Not {
		t.Error("NOT BETWEEN")
	}
	if s.Cols[2].Expr.(*UnaryExpr).Op != "NOT" {
		t.Error("NOT prefix")
	}
	if !s.Cols[3].Expr.(*IsNullExpr).Not {
		t.Error("IS NOT NULL")
	}
}

func TestParseDDLAndDML(t *testing.T) {
	ct := parseOne(t, `CREATE TEMP TABLE IF NOT EXISTS t (
		id INTEGER PRIMARY KEY, name VARCHAR(10) NOT NULL, price DECIMAL(8,2) DEFAULT 0)`).(*CreateTableStmt)
	if !ct.Temp || !ct.IfNotExists || len(ct.Cols) != 3 {
		t.Fatalf("create table: %+v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[1].Type != "VARCHAR" || !ct.Cols[1].NotNull {
		t.Errorf("cols: %+v", ct.Cols)
	}
	ci := parseOne(t, `CREATE UNIQUE INDEX IF NOT EXISTS i ON t (a, b)`).(*CreateIndexStmt)
	if !ci.Unique || !ci.IfNotExists || len(ci.Cols) != 2 {
		t.Errorf("create index: %+v", ci)
	}
	ins := parseOne(t, `INSERT INTO t (a, b) VALUES (1, 2), (3, 4)`).(*InsertStmt)
	if len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	ins2 := parseOne(t, `INSERT INTO t SELECT * FROM u`).(*InsertStmt)
	if ins2.Select == nil {
		t.Error("insert-select")
	}
	up := parseOne(t, `UPDATE t SET a = 1, b = b + 1 WHERE c`).(*UpdateStmt)
	if len(up.Cols) != 2 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
	del := parseOne(t, `DELETE FROM t`).(*DeleteStmt)
	if del.Where != nil {
		t.Errorf("delete: %+v", del)
	}
	dr := parseOne(t, `DROP INDEX IF EXISTS i`).(*DropStmt)
	if !dr.Index || !dr.IfExists {
		t.Errorf("drop: %+v", dr)
	}
}

func TestParseTransactionStatements(t *testing.T) {
	if _, ok := parseOne(t, `BEGIN TRANSACTION`).(*BeginStmt); !ok {
		t.Error("begin")
	}
	c := parseOne(t, `COMMIT WITH SNAPSHOT`).(*CommitStmt)
	if !c.WithSnapshot {
		t.Error("commit with snapshot")
	}
	if parseOne(t, `COMMIT`).(*CommitStmt).WithSnapshot {
		t.Error("plain commit")
	}
	if _, ok := parseOne(t, `ROLLBACK`).(*RollbackStmt); !ok {
		t.Error("rollback")
	}
}

func TestParseAllMultiStatement(t *testing.T) {
	stmts, err := ParseAll(`;;SELECT 1; SELECT 2;;`)
	if err != nil || len(stmts) != 2 {
		t.Fatalf("ParseAll: %d stmts, %v", len(stmts), err)
	}
	if _, err := ParseAll(`SELECT 1 SELECT 2`); err == nil {
		t.Error("missing semicolon should fail")
	}
}

// TestParseCaseAndCast pins that CASE and CAST are outside the dialect:
// both forms are parse errors, and neither word is reserved, so each
// still works as a plain column name.
func TestParseCaseAndCast(t *testing.T) {
	for _, src := range []string{
		`SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END FROM t`,
		`SELECT CASE WHEN a > 1 THEN 1 END FROM t`,
		`SELECT CAST(a AS TEXT) FROM t`,
		`SELECT a FROM t WHERE CAST(a AS INTEGER) = 1`,
	} {
		if _, err := ParseAll(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
	s := parseOne(t, `SELECT "case", cast FROM t`).(*SelectStmt)
	for i, want := range []string{"case", "cast"} {
		if ref, ok := s.Cols[i].Expr.(*ColumnRef); !ok || !strings.EqualFold(ref.Name, want) {
			t.Errorf("col %d: %#v, want column %q", i, s.Cols[i].Expr, want)
		}
	}
}

// TestParseSubqueryInFrom pins that a FROM entry is a table name: a
// parenthesized subquery there is a parse error and runs nothing.
func TestParseSubqueryInFrom(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE t (a)`)
	for _, src := range []string{
		`SELECT x FROM (SELECT a AS x FROM t) sub`,
		`SELECT * FROM (SELECT a FROM t)`,
		`SELECT t.a FROM t, (SELECT a FROM t) AS s`,
	} {
		if _, err := ParseAll(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
		if err := c.Exec(src, nil); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	s := parseOne(t, `SELECT a FROM t sub`).(*SelectStmt)
	if len(s.From) != 1 || s.From[0].Alias != "sub" {
		t.Errorf("plain table with alias: %+v", s.From)
	}
}

func TestExprText(t *testing.T) {
	s := parseOne(t, `SELECT a + b, COUNT(DISTINCT x), f(1, 'two'), c IS NOT NULL`).(*SelectStmt)
	for i, want := range []string{"a + b", "count(DISTINCT x)", "f(1, 'two')", "c IS NOT NULL"} {
		if got := exprText(s.Cols[i].Expr); got != want {
			t.Errorf("exprText[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestTypeAffinityMapping(t *testing.T) {
	cases := map[string]affinity{
		"INTEGER": affInteger, "INT": affInteger, "BIGINT": affInteger,
		"TEXT": affText, "VARCHAR": affText, "CLOB": affText,
		"REAL": affReal, "DOUBLE": affReal, "FLOAT": affReal, "DECIMAL": affReal,
		"": affNone, "BLOB": affNone,
	}
	for typ, want := range cases {
		if got := typeAffinity(typ); got != want {
			t.Errorf("typeAffinity(%q) = %v, want %v", typ, got, want)
		}
	}
}

func TestQuotedIdentifiersEndToEnd(t *testing.T) {
	c := testConn(t)
	mustExec(t, c, `CREATE TABLE "weird name" ("a col" INTEGER)`)
	mustExec(t, c, `INSERT INTO "weird name" VALUES (7)`)
	rows := q(t, c, `SELECT "a col" FROM "weird name"`)
	if len(rows) != 1 || rows[0] != "7" {
		t.Errorf("quoted idents: %v", rows)
	}
	if !strings.Contains(quoteIdent(`x"y`), `""`) {
		t.Error("quoteIdent must double embedded quotes")
	}
}

package sql

import (
	"fmt"
	"strconv"
	"strings"

	"rql/internal/record"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated sequence of statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var stmts []Statement
	for {
		for p.acceptSym(";") {
		}
		if p.peek().kind == tkEOF {
			break
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptSym(";") && p.peek().kind != tkEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty statement")
	}
	return stmts, nil
}

type parser struct {
	toks   []token
	pos    int
	src    string
	params int
}

// peek returns the current token. The token slice ends with one EOF
// token, and the position never moves past it (next does not consume
// it), so peek — and errf, which reports the current token — cannot
// index past the slice whatever a caller consumed before.
func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes and returns the current token; at EOF it returns EOF and
// stays there.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	near := t.text
	if t.kind == tkEOF {
		near = "end of input"
	}
	return fmt.Errorf("sql: %s (near %q, offset %d)", fmt.Sprintf(format, args...), near, t.pos)
}

// acceptKw consumes the next token if it is the given keyword.
func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tkKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	if t := p.peek(); t.kind == tkSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

// ident consumes an identifier (allowing non-reserved use of keywords
// is deliberately not supported: quote the name instead).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tkIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, p.errf("expected statement")
	}
	switch t.text {
	case "EXPLAIN":
		p.next()
		// ANALYZE is deliberately not a reserved word — it lexes as an
		// identifier, so tables and columns named "analyze" keep working.
		analyze := false
		if t := p.peek(); t.kind == tkIdent && strings.EqualFold(t.text, "ANALYZE") {
			p.next()
			analyze = true
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: sel, Analyze: analyze}, nil
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "BEGIN":
		p.next()
		p.acceptKw("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		ws := false
		if p.acceptKw("WITH") {
			if err := p.expectKw("SNAPSHOT"); err != nil {
				return nil, err
			}
			ws = true
		}
		return &CommitStmt{WithSnapshot: ws}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	case "REFRESH":
		p.next()
		if err := p.expectKw("RETRO"); err != nil {
			return nil, err
		}
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &RefreshRetroViewStmt{Name: name}, nil
	}
	return nil, p.errf("unsupported statement %s", t.text)
}

// selectStmt parses SELECT [AS OF expr] [DISTINCT|ALL] cols [FROM ...]
// [WHERE ...] [GROUP BY ... [HAVING ...]] [ORDER BY ...] [LIMIT ...].
func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	// Retro extension: SELECT AS OF <expr> ...
	if p.acceptKw("AS") {
		if err := p.expectKw("OF"); err != nil {
			return nil, err
		}
		e, err := p.exprPrimaryOnly()
		if err != nil {
			return nil, err
		}
		s.AsOf = e
	}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		col, err := p.resultCol()
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, col)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		refs, err := p.tableRefs()
		if err != nil {
			return nil, err
		}
		s.From = refs
	}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if p.acceptKw("HAVING") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Having = e
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			term := OrderTerm{Expr: e}
			if p.acceptKw("DESC") {
				term.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, term)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
		if p.acceptKw("OFFSET") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Offset = e
		}
	}
	return s, nil
}

// exprPrimaryOnly parses a restricted expression for AS OF: a literal,
// parameter, or parenthesized expression (a full expression would
// swallow the select list's leading tokens).
func (p *parser) exprPrimaryOnly() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkNumber:
		p.next()
		return numberLiteral(t.text)
	case t.kind == tkString:
		p.next()
		return &Literal{Val: record.Text(t.text)}, nil
	case t.kind == tkParam:
		p.next()
		idx := p.params
		p.params++
		return &ParamRef{Index: idx}, nil
	case t.kind == tkSymbol && t.text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected snapshot id after AS OF")
}

func (p *parser) resultCol() (ResultCol, error) {
	if p.acceptSym("*") {
		return ResultCol{Star: true}, nil
	}
	// table.* form
	if t := p.peek(); t.kind == tkIdent {
		save := p.pos
		name := p.next().text
		if p.acceptSym(".") && p.acceptSym("*") {
			return ResultCol{Star: true, StarTable: name}, nil
		}
		p.pos = save
	}
	e, err := p.expr()
	if err != nil {
		return ResultCol{}, err
	}
	col := ResultCol{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return ResultCol{}, err
		}
		col.Alias = a
	} else if t := p.peek(); t.kind == tkIdent {
		p.next()
		col.Alias = t.text
	}
	return col, nil
}

func (p *parser) tableRefs() ([]TableRef, error) {
	var refs []TableRef
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	refs = append(refs, ref)
	for {
		switch {
		case p.acceptSym(","):
			r, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.peekJoin():
			r, err := p.joinClause()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) peekJoin() bool {
	t := p.peek()
	return t.kind == tkKeyword && (t.text == "JOIN" || t.text == "INNER" || t.text == "LEFT" || t.text == "CROSS")
}

func (p *parser) joinClause() (TableRef, error) {
	left := false
	switch {
	case p.acceptKw("INNER"):
	case p.acceptKw("CROSS"):
	case p.acceptKw("LEFT"):
		p.acceptKw("OUTER")
		left = true
	}
	if err := p.expectKw("JOIN"); err != nil {
		return TableRef{}, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return TableRef{}, err
	}
	ref.LeftJoin = left
	if p.acceptKw("ON") {
		e, err := p.expr()
		if err != nil {
			return TableRef{}, err
		}
		ref.JoinCond = e
	} else if left {
		return TableRef{}, p.errf("LEFT JOIN requires ON")
	}
	return ref, nil
}

func (p *parser) tableRef() (TableRef, error) {
	if p.acceptSym("(") {
		sub, err := p.selectStmt()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectSym(")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Subquery: sub}
		if p.acceptKw("AS") {
			a, err := p.ident()
			if err != nil {
				return TableRef{}, err
			}
			ref.Alias = a
		} else if t := p.peek(); t.kind == tkIdent {
			p.next()
			ref.Alias = t.text
		}
		return ref, nil
	}
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if t := p.peek(); t.kind == tkIdent {
		p.next()
		ref.Alias = t.text
	}
	return ref, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: name}
	if p.acceptSym("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, c)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("VALUES") {
		for {
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptSym(",") {
					break
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			s.Rows = append(s.Rows, row)
			if !p.acceptSym(",") {
				break
			}
		}
		return s, nil
	}
	sub, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	s.Select = sub
	return s, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.next() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: name}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, c)
		s.Exprs = append(s.Exprs, e)
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: name}
	if p.acceptKw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	temp := p.acceptKw("TEMP") || p.acceptKw("TEMPORARY")
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE applies to indexes")
		}
		return p.createTable(temp)
	case p.acceptKw("INDEX"):
		if temp {
			return nil, p.errf("TEMP indexes are not supported")
		}
		return p.createIndex(unique)
	case p.acceptKw("RETRO"):
		if temp || unique {
			return nil, p.errf("TEMP/UNIQUE do not apply to retro views")
		}
		return p.createRetroView()
	}
	return nil, p.errf("expected TABLE, INDEX or RETRO VIEW")
}

// createRetroView parses the tail of
// CREATE RETRO VIEW name AS Mechanism('qq'[, 'extra']).
func (p *parser) createRetroView() (Statement, error) {
	if err := p.expectKw("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	mech, err := p.ident()
	if err != nil {
		return nil, p.errf("expected mechanism name")
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	s := &CreateRetroViewStmt{Name: name, Mechanism: mech}
	if p.peek().kind != tkString {
		return nil, p.errf("expected string literal (the retrospective query)")
	}
	s.Qq = p.next().text
	if p.acceptSym(",") {
		if p.peek().kind != tkString {
			return nil, p.errf("expected string literal")
		}
		s.Extra = p.next().text
		s.HasExtra = true
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) ifNotExists() (bool, error) {
	if !p.acceptKw("IF") {
		return false, nil
	}
	if !p.acceptKw("NOT") {
		return false, p.errf("expected NOT EXISTS")
	}
	if err := p.expectKw("EXISTS"); err != nil {
		return false, err
	}
	return true, nil
}

func (p *parser) createTable(temp bool) (Statement, error) {
	ine, err := p.ifNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Name: name, Temp: temp, IfNotExists: ine}
	if p.acceptKw("AS") {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.AsSelect = sub
		return s, nil
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.colDef()
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, col)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) colDef() (ColDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColDef{}, err
	}
	col := ColDef{Name: name}
	// Optional type: one or more identifiers, optionally (n) or (n,m).
	var typeParts []string
	for p.peek().kind == tkIdent {
		typeParts = append(typeParts, p.next().text)
	}
	if len(typeParts) > 0 && p.acceptSym("(") {
		depth := 1
		for depth > 0 {
			if p.peek().kind == tkEOF {
				return ColDef{}, p.errf("unterminated type parameters")
			}
			t := p.next()
			if t.kind == tkSymbol && t.text == "(" {
				depth++
			}
			if t.kind == tkSymbol && t.text == ")" {
				depth--
			}
		}
	}
	col.Type = strings.ToUpper(strings.Join(typeParts, " "))
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return ColDef{}, err
			}
			col.PrimaryKey = true
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return ColDef{}, err
			}
			col.NotNull = true
		case p.acceptKw("DEFAULT"):
			if _, err := p.expr(); err != nil { // parsed and ignored
				return ColDef{}, err
			}
		default:
			return col, nil
		}
	}
}

func (p *parser) createIndex(unique bool) (Statement, error) {
	ine, err := p.ifNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	s := &CreateIndexStmt{Name: name, Table: table, Unique: unique, IfNotExists: ine}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, c)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	var index, view bool
	switch {
	case p.acceptKw("TABLE"):
	case p.acceptKw("INDEX"):
		index = true
	case p.acceptKw("RETRO"):
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		view = true
	default:
		return nil, p.errf("expected TABLE, INDEX or RETRO VIEW")
	}
	ife := false
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ife = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if view {
		return &DropRetroViewStmt{Name: name, IfExists: ife}, nil
	}
	return &DropStmt{Index: index, Name: name, IfExists: ife}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tkSymbol && (t.text == "=" || t.text == "==" || t.text == "!=" || t.text == "<>" ||
			t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">="):
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "==" {
				op = "="
			}
			if op == "<>" {
				op = "!="
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case t.kind == tkKeyword && t.text == "IS":
			p.next()
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		case t.kind == tkKeyword && (t.text == "IN" || t.text == "BETWEEN" || t.text == "LIKE" || t.text == "NOT"):
			not := false
			if t.text == "NOT" {
				// lookahead: NOT IN / NOT BETWEEN / NOT LIKE
				nt := p.toks[p.pos+1]
				if nt.kind != tkKeyword || (nt.text != "IN" && nt.text != "BETWEEN" && nt.text != "LIKE") {
					return l, nil
				}
				p.next()
				not = true
				t = p.peek()
			}
			switch t.text {
			case "IN":
				p.next()
				if err := p.expectSym("("); err != nil {
					return nil, err
				}
				var list []Expr
				for {
					e, err := p.expr()
					if err != nil {
						return nil, err
					}
					list = append(list, e)
					if !p.acceptSym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				l = &InExpr{X: l, List: list, Not: not}
			case "BETWEEN":
				p.next()
				lo, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
			case "LIKE":
				p.next()
				pat, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				l = &LikeExpr{X: l, Pattern: pat, Not: not}
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkSymbol || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: t.text, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.concatExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.concatExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: t.text, L: l, R: r}
	}
}

func (p *parser) concatExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptSym("||") {
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.peek()
	if t.kind == tkSymbol && (t.text == "-" || t.text == "+") {
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			return x, nil
		}
		// Fold negation of numeric literals.
		if lit, ok := x.(*Literal); ok {
			switch lit.Val.Type() {
			case record.TypeInt:
				return &Literal{Val: record.Int(-lit.Val.Int())}, nil
			case record.TypeFloat:
				return &Literal{Val: record.Float(-lit.Val.Float())}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.next()
		return numberLiteral(t.text)
	case tkString:
		p.next()
		return &Literal{Val: record.Text(t.text)}, nil
	case tkParam:
		p.next()
		idx := p.params
		p.params++
		return &ParamRef{Index: idx}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: record.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: record.Int(1)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: record.Int(0)}, nil
		case "CASE":
			return p.caseExpr()
		case "CAST":
			return p.castExpr()
		}
		return nil, p.errf("unexpected keyword in expression")
	case tkSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected symbol in expression")
	case tkIdent:
		p.next()
		name := t.text
		// Function call?
		if p.acceptSym("(") {
			return p.funcCall(name)
		}
		// Qualified column?
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	}
	return nil, p.errf("unexpected token in expression")
}

func (p *parser) funcCall(name string) (Expr, error) {
	f := &FuncCall{Name: strings.ToLower(name)}
	if p.acceptSym(")") {
		return f, nil
	}
	if p.acceptSym("*") {
		f.Star = true
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) caseExpr() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if t := p.peek(); !(t.kind == tkKeyword && t.text == "WHEN") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Operand = e
	}
	for p.acceptKw("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// castExpr parses CAST(expr AS type); it compiles to the cast()
// builtin function.
func (p *parser) castExpr() (Expr, error) {
	p.next() // CAST
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	var typeParts []string
	for p.peek().kind == tkIdent {
		typeParts = append(typeParts, p.next().text)
	}
	if len(typeParts) == 0 {
		return nil, p.errf("expected type name in CAST")
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &FuncCall{
		Name: "cast",
		Args: []Expr{e, &Literal{Val: record.Text(strings.ToUpper(strings.Join(typeParts, " ")))}},
	}, nil
}

func numberLiteral(text string) (Expr, error) {
	if !strings.ContainsAny(text, ".eE") {
		n, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			return &Literal{Val: record.Int(n)}, nil
		}
		// Integer overflow: fall through to float like SQLite.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad numeric literal %q", text)
	}
	return &Literal{Val: record.Float(f)}, nil
}

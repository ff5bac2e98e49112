// Package sql implements the SQL engine that plays SQLite's role in
// the paper's stack: a parser, planner and volcano-style executor over
// B+tree tables and indexes, with the Retro surface syntax the paper
// relies on (SELECT AS OF, COMMIT WITH SNAPSHOT), a scalar-UDF
// framework with sqlite3_exec-style per-row callbacks, automatic
// transient indexes for un-indexed equi-joins, and a two-store model
// (snapshotable main database + non-snapshotable side database for
// SnapIds and result tables).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkString // 'quoted'
	tkNumber // integer or float literal
	tkParam  // ?
	tkSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

// keywords recognized by the parser. Identifiers matching these (case
// insensitively) lex as tkKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"OF": true, "DISTINCT": true, "ALL": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "IS": true, "IN": true, "BETWEEN": true,
	"ASC": true, "DESC": true, "ON": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true,
	"UNIQUE": true, "DROP": true, "IF": true, "EXISTS": true, "TEMP": true,
	"TEMPORARY": true, "PRIMARY": true, "KEY": true, "BEGIN": true,
	"COMMIT": true, "ROLLBACK": true, "TRANSACTION": true, "WITH": true,
	"SNAPSHOT": true, "TRUE": true, "FALSE": true, "DEFAULT": true,
	"EXPLAIN": true, "RETRO": true, "VIEW": true, "REFRESH": true,
}

// lexer splits SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns an error on unterminated strings or
// unexpected characters.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tkEOF, "", l.pos)
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexWord(start)
		case c >= '0' && c <= '9':
			l.lexNumber(start)
		case c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber(start)
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case c == '"' || c == '`' || c == '[':
			if err := l.lexQuotedIdent(start); err != nil {
				return nil, err
			}
		case c == '?':
			l.pos++
			l.emit(tkParam, "?", start)
		default:
			if err := l.lexSymbol(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || isDigit(c) ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if keywords[strings.ToUpper(word)] {
		l.emit(tkKeyword, strings.ToUpper(word), start)
	} else {
		l.emit(tkIdent, word, start)
	}
}

func (l *lexer) lexNumber(start int) {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			if l.pos+1 < len(l.src) && (l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
				l.pos++
			}
		default:
			l.emit(tkNumber, l.src[start:l.pos], start)
			return
		}
		l.pos++
	}
	l.emit(tkNumber, l.src[start:l.pos], start)
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(tkString, sb.String(), start)
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

func (l *lexer) lexQuotedIdent(start int) error {
	open := l.src[l.pos]
	close := open
	if open == '[' {
		close = ']'
	}
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == close {
			if close != ']' && l.pos+1 < len(l.src) && l.src[l.pos+1] == close {
				sb.WriteByte(close)
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(tkIdent, sb.String(), start)
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
}

// multi-character operators, longest first.
var symbols = []string{"<>", "<=", ">=", "==", "!=", "(", ")", ",", ";", "+", "-", "*", "/", "%", "<", ">", "=", "."}

func (l *lexer) lexSymbol(start int) error {
	rest := l.src[l.pos:]
	for _, s := range symbols {
		if strings.HasPrefix(rest, s) {
			l.pos += len(s)
			l.emit(tkSymbol, s, start)
			return nil
		}
	}
	return fmt.Errorf("sql: unexpected character %q at offset %d", l.src[l.pos], start)
}

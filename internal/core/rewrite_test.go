package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Rewrite performs the paper's §3 textual Qq rewriting: it binds a
// snapshot query to one loop iteration by inserting "AS OF <sid>" after
// the leading SELECT and replacing every occurrence of the
// current_snapshot() construct with the literal snapshot id. For
// example, for iteration sid = 7,
//
//	SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserB'
//
// becomes
//
//	SELECT AS OF 7 DISTINCT 7 FROM LoggedIn WHERE l_userid = 'UserB'
//
// The mechanisms themselves execute Qq through Conn.ExecAsOf, which
// binds the whole statement (including FROM-subqueries) to the snapshot
// and resolves current_snapshot() from the execution context — an
// operationally equivalent but more robust form of the same rewrite.
// Rewrite is the paper's literal string form, kept beside its
// cross-check against ExecAsOf (TestRewriteEquivalentToExecAsOf).
func Rewrite(qq string, sid uint64) (string, error) {
	s := strconv.FormatUint(sid, 10)
	out, replaced := rewriteOutsideStrings(qq, "current_snapshot()", s)
	_ = replaced

	// Insert "AS OF <sid>" right after the first SELECT keyword that
	// is outside string literals.
	idx := findKeywordOutsideStrings(out, "select")
	if idx < 0 {
		return "", fmt.Errorf("rql: Rewrite: %q is not a SELECT", qq)
	}
	insert := idx + len("select")
	return out[:insert] + " AS OF " + s + out[insert:], nil
}

// rewriteOutsideStrings replaces needle (case-insensitively, ignoring
// spaces inside the parentheses of the needle's "()" suffix) outside
// single-quoted SQL strings.
func rewriteOutsideStrings(src, needle, repl string) (string, int) {
	var sb strings.Builder
	count := 0
	base := strings.TrimSuffix(strings.ToLower(needle), "()")
	i := 0
	for i < len(src) {
		c := src[i]
		if c == '\'' {
			// Copy the string literal verbatim (doubled quotes included).
			j := i + 1
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			sb.WriteString(src[i:j])
			i = j
			continue
		}
		if matchFuncAt(src, i, base) {
			end := strings.IndexByte(src[i:], ')')
			sb.WriteString(repl)
			i += end + 1
			count++
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return sb.String(), count
}

// matchFuncAt reports whether src[i:] starts with base followed by
// optional spaces, '(', optional spaces, ')' — i.e. a no-argument call
// of the named function — at a word boundary.
func matchFuncAt(src string, i int, base string) bool {
	if i > 0 && isWordByte(src[i-1]) {
		return false
	}
	if len(src)-i < len(base) || !strings.EqualFold(src[i:i+len(base)], base) {
		return false
	}
	j := i + len(base)
	for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
		j++
	}
	if j >= len(src) || src[j] != '(' {
		return false
	}
	j++
	for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
		j++
	}
	return j < len(src) && src[j] == ')'
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// findKeywordOutsideStrings locates the first occurrence of the keyword
// (word-bounded, case-insensitive) outside single-quoted strings.
func findKeywordOutsideStrings(src, kw string) int {
	i := 0
	for i < len(src) {
		c := src[i]
		if c == '\'' {
			j := i + 1
			for j < len(src) {
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			i = j
			continue
		}
		if len(src)-i >= len(kw) && strings.EqualFold(src[i:i+len(kw)], kw) {
			before := i == 0 || !isWordByte(src[i-1])
			afterIdx := i + len(kw)
			after := afterIdx >= len(src) || !isWordByte(src[afterIdx])
			if before && after {
				return i
			}
		}
		i++
	}
	return -1
}

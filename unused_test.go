package rql_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalDeclarationHasANonTestCaller holds every func,
// method, type, const and var under internal/ to a caller outside the
// tests: a declaration that only tests reach belongs in a _test.go file
// of its package, or in reachAllowlist when tests of another package
// need it. See unreachable for the roots. The unexported fields of a
// reached struct type are held to a non-test read: a field that is
// only ever written is dead state. Exported fields are not checked:
// obs.Fill and the cost codecs read them by reflection, so a field no
// identifier names can still be read.
func TestEveryInternalDeclarationHasANonTestCaller(t *testing.T) {
	got, err := unreachable(".", []string{"", "client"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowlistProblems(got, reachAllowlist) {
		t.Error(p)
	}
}

// TestReachabilityFixture runs the analysis on testdata/reach, a
// module whose lib package holds one declaration of each kind the
// rules decide.
func TestReachabilityFixture(t *testing.T) {
	got, err := unreachable(filepath.Join("testdata", "reach"), []string{""})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Dead (internal/lib/lib.go:8, 2 lines)",
		"internal/lib.TestOnly (internal/lib/lib.go:14, 2 lines)",
		"internal/lib.helper (internal/lib/lib.go:11, 2 lines)",
		"internal/lib.tally.written (internal/lib/lib.go:43, 1 lines)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	allow := map[string]string{
		"internal/lib.Dead": "allowlisted finding",
		"internal/lib.Live": "reachable",
		"internal/lib.Gone": "missing",
	}
	wantProblems := []string{
		"allowlist entry is reachable or missing: internal/lib.Gone",
		"allowlist entry is reachable or missing: internal/lib.Live",
		"no non-test caller: " + want[1],
		"no non-test caller: " + want[2],
		"no non-test caller: " + want[3],
	}
	if p := allowlistProblems(got, allow); strings.Join(p, "\n") != strings.Join(wantProblems, "\n") {
		t.Fatalf("allowlist problems:\n%s\nwant:\n%s", strings.Join(p, "\n"), strings.Join(wantProblems, "\n"))
	}
}

// reachAllowlist names the declarations under internal/ that only the
// tests of another package reach, each with the reason it stays in
// non-test code. An entry that names a reachable or missing
// declaration fails the test, so the list cannot go stale.
var reachAllowlist = map[string]string{
	"internal/obs.ValidateExposition":      "server's /metrics tests hold the served exposition to the text format",
	"internal/obs.parseSampleLine":         "ValidateExposition's sample-line parser",
	"internal/obs.parseValue":              "ValidateExposition's sample-value parser",
	"internal/obs.labelSig":                "ValidateExposition's histogram series key",
	"internal/obs.ResetSpans":              "core and server tests empty the process-wide span ring between cases",
	"internal/obs.ResetSlowLog":            "core and server tests empty the process-wide slow log between cases",
	"internal/repl.Replica.WaitForHorizon": "server's replication stress test waits for a replica to catch up",
	"internal/sql.DB.SideStore":            "core's side-store tests drive the side store under a sql.DB",
	"internal/retro.blockKey.segBase":      "read by map-key equality in the segment block cache",
	"internal/retro.blockKey.block":        "read by map-key equality in the segment block cache",
}

// allowlistProblems reports every finding the allowlist does not name
// and every allowlist entry that is not a finding.
func allowlistProblems(findings []string, allow map[string]string) []string {
	var out []string
	found := map[string]bool{}
	for _, f := range findings {
		name, _, _ := strings.Cut(f, " ")
		found[name] = true
		if _, ok := allow[name]; !ok {
			out = append(out, "no non-test caller: "+f)
		}
	}
	for name := range allow {
		if !found[name] {
			out = append(out, "allowlist entry is reachable or missing: "+name)
		}
	}
	sort.Strings(out)
	return out
}

// stdlibMethods are method names that standard-library code calls
// through an interface the module never names: fmt's Stringer and
// Formatter, error, io, sort and heap, flag.Value and http.Handler.
var stdlibMethods = map[string]bool{
	"String": true, "Format": true, "GoString": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "ServeHTTP": true,
}

// unreachable type-checks every non-test package of the module rooted
// at dir and returns the funcs, methods, types, consts and vars under
// internal/ that no root reaches, as "pkg.Name (file:line, n lines)"
// sorted by name. A declaration's edges are the identifiers its body
// or spec uses. The roots are main and init of every package, every
// package-level var initialiser, every exported name of the public
// packages (paths relative to the module, "" for its root), and every
// method named like a method of an interface the module declares or
// of stdlibMethods. It also returns, as "pkg.Type.field (...)", the
// unexported fields of reached package-level struct types that no
// non-test selector reads; a selector is a read unless it is the left
// side of an assignment or the operand of ++ or --.
func unreachable(dir string, public []string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, l := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", dir)
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if path != dir && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), n); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Module packages are checked here, in import order; the standard
	// library comes from its export data.
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		fs, ok := files[path]
		if !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, fs, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}

	// Declarations, their edges and the roots.
	type decl struct {
		name  string
		node  ast.Node
		start token.Pos // doc comment included
	}
	decls := map[types.Object]*decl{}
	type field struct {
		owner types.Object // the struct type
		name  string
		id    *ast.Ident
	}
	var fields []field
	var roots []types.Object
	ifaceMethods := map[string]bool{}
	publicPath := map[string]bool{}
	for _, p := range public {
		publicPath[strings.TrimSuffix(modPath+"/"+p, "/")] = true
	}
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
		for _, f := range files[path] {
			add := func(id *ast.Ident, name string, node ast.Node, start token.Pos) types.Object {
				o := info.Defs[id]
				decls[o] = &decl{name: rel + "." + name, node: node, start: start}
				if publicPath[path] && id.IsExported() {
					roots = append(roots, o)
				}
				return o
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					start := d.Pos()
					if d.Doc != nil {
						start = d.Doc.Pos()
					}
					name := d.Name.Name
					if d.Recv != nil {
						name = recvName(d.Recv.List[0].Type) + "." + name
					}
					o := add(d.Name, name, d, start)
					if d.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") {
						roots = append(roots, o)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						start := s.Pos()
						if d.Lparen == token.NoPos && d.Doc != nil {
							start = d.Doc.Pos()
						}
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Doc != nil {
								start = s.Doc.Pos()
							}
							o := add(s.Name, s.Name.Name, s, start)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, fl := range st.Fields.List {
									for _, id := range fl.Names {
										if !id.IsExported() && id.Name != "_" {
											fields = append(fields, field{o, rel + "." + s.Name.Name + "." + id.Name, id})
										}
									}
								}
							}
							if it, ok := o.Type().Underlying().(*types.Interface); ok {
								for i := 0; i < it.NumMethods(); i++ {
									ifaceMethods[it.Method(i).Name()] = true
								}
							}
						case *ast.ValueSpec:
							if s.Doc != nil {
								start = s.Doc.Pos()
							}
							for _, id := range s.Names {
								o := add(id, id.Name, s, start)
								if d.Tok == token.VAR && len(s.Values) > 0 {
									roots = append(roots, o)
								}
							}
						}
					}
				}
			}
		}
	}
	for o := range decls {
		if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil &&
			(ifaceMethods[fn.Name()] || stdlibMethods[fn.Name()]) {
			roots = append(roots, o)
		}
	}

	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		d, ok := decls[o]
		if !ok || reached[o] {
			continue
		}
		reached[o] = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := origin(info.Uses[id]); u != nil && !reached[u] {
					roots = append(roots, u)
				}
			}
			return true
		})
	}

	// Field reads: every selector of the module's non-test code that is
	// not written to.
	written := map[*ast.SelectorExpr]bool{}
	read := map[types.Object]bool{}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				case *ast.SelectorExpr:
					if !written[n] {
						read[origin(info.Uses[n.Sel])] = true
					}
				}
				return true
			})
		}
	}

	var out []string
	for _, fl := range fields {
		if !reached[fl.owner] || read[info.Defs[fl.id]] || !strings.HasPrefix(fl.name, "internal/") {
			continue
		}
		pos := fset.Position(fl.id.Pos())
		file, _ := filepath.Rel(dir, pos.Filename)
		out = append(out, fmt.Sprintf("%s (%s:%d, 1 lines)", fl.name, filepath.ToSlash(file), pos.Line))
	}
	for o, d := range decls {
		if reached[o] || !strings.HasPrefix(d.name, "internal/") || strings.HasSuffix(d.name, "._") {
			continue
		}
		start, end := fset.Position(d.start), fset.Position(d.node.End())
		file, _ := filepath.Rel(dir, start.Filename)
		out = append(out, fmt.Sprintf("%s (%s:%d, %d lines)",
			d.name, filepath.ToSlash(file), start.Line, end.Line-start.Line+1))
	}
	sort.Strings(out)
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic func, method or field
// to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// recvName is the base type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

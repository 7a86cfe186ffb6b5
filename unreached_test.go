package thermosc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names the declarations under internal/ that no non-test
// code names but that stay, each with the reason it stays. A key is
// "<pkg>.<Name>" for a function or type, "<pkg>.<Type>.<Method>" for a
// method (pkg is the directory under internal/), or a bare method name for
// methods that exist to satisfy an interface, whatever their receiver.
var reachAllowlist = map[string]string{
	"cluster.Converged":              "the root fault tests and the store tests check anti-entropy convergence with it",
	"cluster.RollingRestartSchedule": "TestClusterRollingRestartUnderLoad (root package) draws its restart schedule from it",
	"cluster.Ring.WithoutNode":       "the root churn tests compute the ring that a dead peer leaves with it",
	"mat.VecAdd":                     "thermal's tests superpose steady states with it",
	"mat.VecAllGE":                   "thermal's tests check element-wise bounds with it",
	"mat.VecEqual":                   "sim's and thermal's tests compare states with it",
	"mat.VecNormInf":                 "sim's and thermal's tests scale their tolerances with it",
	"rig.EncodeScenario":             "cmd/thermosc-rig's tests write scenario files with it; DecodeScenario is its inverse",
	"schedule.Schedule.StepUp":       "Definition 2 of the paper, the reference of sim's Theorem 1/2 property tests",
	"schedule.Schedule.MOscillate":   "Definition 3 of the paper, the reference of the schedule property tests and FuzzMOscillateInvariants",
	"sim.Stable.End":                 "the solver tests' classic reference evaluator reads the period-end state with it",
	"sim.Stable.NumIntervals":        "the solver tests' classic reference evaluator reads the period-end state with it",
	"thermal.BuildGen":               "the root gated benchmarks and the solver and dense-vs-sparse tests build catalog platforms with it",
	"thermal.WithAlgebra":            "BenchmarkCrossover and the dense-vs-sparse tests force a backend with it",
}

// TestNoUnreachedInternalCode fails when a function, method or type that a
// non-test file under internal/ declares is named by no other non-test Go
// code in the repository (cmd/, examples/ and perfbench/ included) and is
// not on reachAllowlist, or when an allowlist entry is stale. Production
// code is what something runs: code only tests reach belongs in a _test.go
// file, and code nothing reaches is deleted.
func TestNoUnreachedInternalCode(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{path: filepath.ToSlash(p), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range unreached(fset, files, reachAllowlist) {
		t.Error(problem)
	}
}

// TestUnreachedCheckerSelfTest runs the checker over a source set parsed
// from strings, so a checker that passes everything cannot go unnoticed:
// of a self-recursive unreferenced func, a referenced func, a method
// allowlisted by name and a stale allowlist entry, it must report exactly
// the first and the last.
func TestUnreachedCheckerSelfTest(t *testing.T) {
	srcs := [][2]string{
		{"internal/a/a.go", `package a
type T struct{}
func (T) String() string { return "t" }
var _ = T{}
func Unused() { Unused() }
func Used() int { return helper() }
func helper() int { return 1 }
`},
		{"cmd/x/main.go", `package main
import "thermosc/internal/a"
func main() { _ = a.Used() }
`},
	}
	fset := token.NewFileSet()
	var files []srcFile
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src[0], src[1], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path: src[0], file: f})
	}
	got := unreached(fset, files, map[string]string{
		"a.Used": "stale: main names it",
		"String": "satisfies fmt.Stringer",
	})
	want := []string{
		`allowlist entry "a.Used" is stale: non-test code names it`,
		"internal/a/a.go:5: a.Unused is named by no non-test code",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checker reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

type srcFile struct {
	path string // slash-separated, relative to the module root
	file *ast.File
}

// unreached returns, sorted, one line per declaration under internal/ that
// no non-test file names and allow does not list, and one per stale entry
// of allow. Names are matched without type information: a function or type
// is named by a bare identifier in its own package or by pkg.Name from an
// importer; a method is named by any selector with its name, except a call
// through the method's own receiver inside its own body.
func unreached(fset *token.FileSet, files []srcFile, allow map[string]string) []string {
	const internalPrefix = "thermosc/internal/"
	type decl struct {
		pos    token.Pos
		method string // method name, "" for a function or type
	}
	decls := map[string]decl{}   // key -> declaration
	named := map[string]bool{}   // "<pkg>.<Name>" named by non-test code
	methods := map[string]bool{} // method names named by a selector

	pkgOf := func(p string) string {
		if !strings.HasPrefix(p, "internal/") {
			return ""
		}
		return strings.TrimPrefix(path.Dir(p), "internal/")
	}
	for _, sf := range files {
		pkg := pkgOf(sf.path)
		if pkg == "" {
			continue
		}
		for _, d := range sf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" || d.Name.Name == "_" {
					continue
				}
				if d.Recv == nil {
					decls[pkg+"."+d.Name.Name] = decl{pos: d.Pos()}
				} else {
					decls[pkg+"."+recvType(d)+"."+d.Name.Name] = decl{pos: d.Pos(), method: d.Name.Name}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name != "_" {
						decls[pkg+"."+ts.Name.Name] = decl{pos: ts.Pos()}
					}
				}
			}
		}
	}

	for _, sf := range files {
		pkg := pkgOf(sf.path)
		imports := map[string]string{} // local name -> internal package
		for _, imp := range sf.file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(p, internalPrefix) {
				continue
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, internalPrefix)
		}
		for _, d := range sf.file.Decls {
			self, recv, method := "", "", ""
			var body ast.Node = d
			switch d := d.(type) {
			case *ast.FuncDecl:
				self = pkg + "." + d.Name.Name
				if d.Recv != nil {
					self, method = "", d.Name.Name
					if names := d.Recv.List[0].Names; len(names) > 0 {
						recv = names[0].Name
					}
				}
				// The name and receiver are the declaration, not a use.
				body = d.Type
				if d.Body != nil {
					body = &ast.FuncLit{Type: d.Type, Body: d.Body}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						markNames(ts.Type, pkg, pkg+"."+ts.Name.Name, "", "", imports, named, methods)
						if ts.TypeParams != nil {
							markNames(ts.TypeParams, pkg, pkg+"."+ts.Name.Name, "", "", imports, named, methods)
						}
					} else {
						markNames(s, pkg, "", "", "", imports, named, methods)
					}
				}
				continue
			}
			markNames(body, pkg, self, recv, method, imports, named, methods)
		}
	}

	var problems []string
	for key, d := range decls {
		if _, ok := allow[key]; ok {
			continue
		}
		if d.method != "" {
			if _, ok := allow[d.method]; ok || methods[d.method] {
				continue
			}
		} else if named[key] {
			continue
		}
		pos := fset.Position(d.pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s is named by no non-test code", pos.Filename, pos.Line, key))
	}
	for key := range allow {
		var stale string
		if !strings.Contains(key, ".") {
			found := false
			for _, d := range decls {
				found = found || d.method == key
			}
			switch {
			case !found:
				stale = "no method under internal/ has that name"
			case methods[key]:
				stale = "non-test code names it"
			}
		} else if d, ok := decls[key]; !ok {
			stale = "no such declaration under internal/"
		} else if (d.method != "" && methods[d.method]) || (d.method == "" && named[key]) {
			stale = "non-test code names it"
		}
		if stale != "" {
			problems = append(problems, fmt.Sprintf("allowlist entry %q is stale: %s", key, stale))
		}
	}
	sort.Strings(problems)
	return problems
}

// markNames records the names n uses. self is the key of the function or
// type being declared, whose mentions of itself are not uses; inside a
// method, recv and method are its receiver and name, so recv.method(...)
// is not a use either.
func markNames(n ast.Node, pkg, self, recv, method string, imports map[string]string, named, methods map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					named[p+"."+n.Sel.Name] = true
					return false
				}
				if x.Name == recv && n.Sel.Name == method {
					return false
				}
			}
			methods[n.Sel.Name] = true
			markNames(n.X, pkg, self, recv, method, imports, named, methods)
			return false
		case *ast.Ident:
			if pkg != "" && pkg+"."+n.Name != self {
				named[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}

// recvType returns the name of a method's receiver type, without pointer
// or type parameters.
func recvType(d *ast.FuncDecl) string {
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

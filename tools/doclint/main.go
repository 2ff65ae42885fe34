// Command doclint enforces the repo's documentation bar: every exported
// top-level identifier (type, function, method, const and var group)
// must carry a doc comment, and every package must have a package
// comment. It additionally holds pathology registrations to the catalog
// bar: every Pathology composite literal must carry non-empty Name,
// Source and Mechanism strings, and stateful literals (any with a
// Schedule, Budget or InstallGated field) a non-empty ScheduleDoc. It
// walks the package directories given as arguments (or the module
// root, ./internal/..., ./cmd/... and ./tools/... by default; testdata
// directories are skipped, as the go tool skips them), parses the
// non-test sources with go/parser, and prints one line per missing
// comment. Exit status 1 means the bar is not met — CI runs this next
// to go vet.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the package directories named by roots (a trailing /...
// walks the tree below, skipping testdata and dot directories as the go
// tool does), prints one line per finding to stdout and returns the
// exit status: 0 when the bar is met, 1 otherwise.
func run(roots []string, stdout, stderr io.Writer) int {
	if len(roots) == 0 {
		roots = []string{".", "./internal/...", "./cmd/...", "./tools/..."}
	}
	dirs := map[string]bool{}
	for _, r := range roots {
		if rest, ok := strings.CutSuffix(r, "/..."); ok {
			_ = filepath.WalkDir(rest, func(p string, d fs.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				if p != rest && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				dirs[p] = true
				return nil
			})
			continue
		}
		dirs[r] = true
	}
	ordered := make([]string, 0, len(dirs))
	for d := range dirs {
		ordered = append(ordered, d)
	}
	sort.Strings(ordered)

	bad := 0
	for _, dir := range ordered {
		bad += lintDir(dir, stdout, stderr)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "doclint: %d exported identifier(s) lack doc comments\n", bad)
		return 1
	}
	return 0
}

// lintDir parses one directory's package and reports undocumented
// exported declarations. Test files are skipped: their exported helpers
// document themselves through the tests that use them.
func lintDir(dir string, stdout, stderr io.Writer) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		if !hasPackageDoc(pkg) {
			fmt.Fprintf(stdout, "%s: package %s has no package comment\n", dir, pkg.Name)
			bad++
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				bad += lintDecl(fset, decl, stdout)
			}
			bad += lintPathologyLits(fset, file, stdout)
		}
	}
	return bad
}

// hasPackageDoc reports whether any file in the package carries a
// package comment.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			return true
		}
	}
	return false
}

// lintDecl reports undocumented exported identifiers introduced by one
// top-level declaration. A doc comment on a const/var/type group covers
// every spec inside it; a spec-level doc or trailing line comment also
// counts.
func lintDecl(fset *token.FileSet, decl ast.Decl, stdout io.Writer) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Fprintf(stdout, "%s: %s %s has no doc comment\n", fset.Position(pos), kind, name)
		bad++
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
			kind := "func"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				if groupDoc || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), "value", n.Name)
					}
				}
			}
		}
	}
	return bad
}

// lintPathologyLits enforces the pathology documentation bar on top of
// the runtime check in pathology.Register: every Pathology composite
// literal must spell out non-empty Name, Source and Mechanism strings —
// and, when the literal carries lifecycle state (Schedule, Budget or
// InstallGated), a non-empty ScheduleDoc — so an undocumented failure
// mode fails the docs lane before any test ever constructs it. Fields
// whose values are not compile-time string constants are left to the
// runtime check.
func lintPathologyLits(fset *token.FileSet, file *ast.File, stdout io.Writer) int {
	bad := 0
	ast.Inspect(file, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || !isPathologyType(cl.Type) {
			return true
		}
		fields := map[string]ast.Expr{}
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					fields[id.Name] = kv.Value
				}
			}
		}
		required := []string{"Name", "Source", "Mechanism"}
		// Stateful pathologies — anything carrying lifecycle state —
		// must additionally document that lifecycle: what turns on when,
		// how it recovers, and what state it leaves behind.
		for _, stateful := range []string{"Schedule", "Budget", "InstallGated"} {
			if _, ok := fields[stateful]; ok {
				required = append(required, "ScheduleDoc")
				break
			}
		}
		for _, req := range required {
			v, ok := fields[req]
			if !ok {
				fmt.Fprintf(stdout, "%s: Pathology literal lacks the %s field\n", fset.Position(cl.Pos()), req)
				bad++
				continue
			}
			if s, lit := stringConst(v); lit && strings.TrimSpace(s) == "" {
				fmt.Fprintf(stdout, "%s: Pathology %s is empty\n", fset.Position(v.Pos()), req)
				bad++
			}
		}
		return true
	})
	return bad
}

// isPathologyType matches the Pathology struct type by name, qualified
// (pathology.Pathology) or not.
func isPathologyType(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name == "Pathology"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Pathology"
	}
	return false
}

// stringConst folds a tree of +-concatenated string literals into its
// value; ok is false when any leaf is not a string literal.
func stringConst(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			s, err := strconv.Unquote(x.Value)
			return s, err == nil
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			l, lok := stringConst(x.X)
			r, rok := stringConst(x.Y)
			return l + r, lok && rok
		}
	case *ast.ParenExpr:
		return stringConst(x.X)
	}
	return "", false
}

// exportedRecv reports whether a function's receiver type (if any) is
// exported — methods on unexported types are internal plumbing and not
// held to the doc bar.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

package fivm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names a type can carry for a standard-library
// interface it satisfies without any caller naming the method.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// testOnlyAllowed lists the exported functions under internal/ that only
// tests call and that stay until the ROADMAP item named in the reason
// removes them. A row names a package directory or file (path), a function
// or Type.Method (name), or both; a row that matches nothing is stale.
var testOnlyAllowed = []struct{ path, name, reason string }{
	{path: "internal/matrix", reason: "item 8 replaces the matrix wrappers whole; Outer and MulChain are their tests' references"},
	{path: "internal/mcm", reason: "item 8 replaces the matrix-chain wrappers whole"},
	{path: "internal/regression", reason: "item 12 turns regression into a view"},
	{path: "internal/factorized", name: "DistinctCount", reason: "item 12 turns the factorized result into a view"},
	{path: "internal/wal/fault.go", reason: "crash seam: other packages' crash tests inject faults through it"},
	{path: "internal/wal/memvfs.go", reason: "crash seam: other packages' crash tests run on the in-memory file system"},
	{name: "RecordBoundaries", reason: "crash seam: other packages' crash tests tear the log at record boundaries"},
	{name: "PoisonReclaimed", reason: "the poisoning switch every pooled package's TestMain sets"},
	{name: "ObserveRelation", reason: "the ANALYZE pass tests in three packages run"},
	{name: "Relation.Negate", reason: "tests in two packages build retractions with it"},
	{name: "Engine.Describe", reason: "item 3's EXPLAIN prints it"},
	{name: "Engine.ViewByName", reason: "the snapshot-against-live tests in internal/ivm and the root read views by name"},
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test Go file in the repository, benchmark/ included,
// names: code only tests call belongs in a _test.go file. Names are matched
// in the syntax tree, so a comment or a string neither uses nor hides one.
func TestNoTestOnlyExports(t *testing.T) {
	type fn struct{ path, name string }
	used := map[string]bool{}
	var exported []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decl[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				exported = append(exported, fn{filepath.ToSlash(path), qualified(fd)})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	matched := make([]bool, len(testOnlyAllowed))
	var unused []string
	for _, f := range exported {
		bare := f.name[strings.LastIndexByte(f.name, '.')+1:]
		if used[bare] || (bare != f.name && implicitMethods[bare]) {
			continue
		}
		allowed := false
		for i, row := range testOnlyAllowed {
			if (row.path == "" || row.path == f.path || row.path == filepath.ToSlash(filepath.Dir(f.path))) &&
				(row.name == "" || row.name == f.name || row.name == bare) {
				matched[i], allowed = true, true
			}
		}
		if !allowed {
			unused = append(unused, f.path+": "+f.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests call it: delete it or move it into a _test.go file", u)
	}
	for i, row := range testOnlyAllowed {
		if !matched[i] {
			t.Errorf("allowlist row {path: %q, name: %q} matches no test-only export: the row is stale", row.path, row.name)
		}
	}
}

// qualified is a function's name, or Type.Method for a method.
func qualified(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

package fivm_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tree is a set of parsed Go files.
type tree struct {
	fset  *token.FileSet
	files []goFile
}

// goFile is one parsed Go file.
type goFile struct {
	path string // slash-separated, from the repository root
	test bool
	ast  *ast.File
	off  bool // a build constraint leaves the file out of the default build
}

// repoTree parses every Go file of the repository once, test files and
// benchmark/ included, for the guards in this file to share.
var repoTree = sync.OnceValues(func() (tree, error) {
	tr := tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		on, err := build.Default.MatchFile(filepath.Dir(p), d.Name())
		if err != nil {
			return err
		}
		tr.files = append(tr.files, goFile{filepath.ToSlash(p), strings.HasSuffix(p, "_test.go"), f, !on})
		return nil
	})
	return tr, err
})

// loadRepo returns the shared parse of the repository, failing t if it failed.
func loadRepo(t *testing.T) tree {
	t.Helper()
	tr, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// implicitMethods are method names a type can carry for a standard-library
// interface that the library finds by itself, through a type assertion no
// code of the repository writes or names (fmt's Stringer and Formatter,
// encoding/json's Marshaler, errors' Unwrap).
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Unwrap": true,
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
	{path: "internal/wal/fault.go", name: "NewFaultFS", reason: "crash seam: the crash tests of internal/db and internal/netserve inject faults through it"},
	{path: "internal/wal/fault.go", name: "FaultFS.CrashAfterBytes", reason: "crash seam: the crash tests of internal/db and internal/netserve tear a write at a byte budget"},
	{path: "internal/wal/memvfs.go", name: "MemVFS.Crash", reason: "crash seam: the crash tests of internal/db, serve and the root roll the in-memory file system back to its synced bytes"},
	{name: "RecordBoundaries", reason: "crash seam: other packages' crash tests tear the log at record boundaries"},
	{name: "PoisonReclaimed", reason: "the poisoning switch every pooled package's TestMain sets"},
	{name: "Relation.Negate", reason: "tests in two packages build retractions with it"},
	{name: "Engine.Describe", reason: "item 3's EXPLAIN prints it"},
	{name: "Engine.ViewByName", reason: "the snapshot-against-live tests in internal/ivm and the root read views by name"},
	{name: "ViewSnapshot.View", reason: "the catalogue tests in internal/ivm, internal/factorized and the root read an epoch's views by name"},
	{name: "ViewSnapshot.Views", reason: "the catalogue tests in internal/ivm, internal/factorized and the root list an epoch's views"},
	{name: "Relation.Equal", reason: "item 4's oracle: the tests of internal/data and internal/ivm compare results with the re-evaluation oracle through it"},
	{name: "Entry.Key", reason: "the poisoning checks in internal/data, internal/db and internal/ivm compare an entry's key with its tuple's encoding"},
	{name: "RelationSnapshot.IterateEntries", reason: "the pinned-epoch tests in internal/data and internal/ivm read the entries an epoch holds"},
}

// typeCheck type-checks the non-test files of every package of tr,
// benchmark/ included, into one types.Info, so that an object the benchmark
// module uses is the object the module declares. A directory's import path
// is fivm/ and the directory. The standard library is checked from source
// without function bodies.
func typeCheck(tr tree) (*types.Info, error) {
	im := &repoImporter{
		std:   importer.ForCompiler(tr.fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		fset:  tr.fset,
	}
	for _, f := range tr.files {
		if !f.test && !f.off {
			p := path.Join("fivm", path.Dir(f.path))
			im.files[p] = append(im.files[p], f.ast)
		}
	}
	for p := range im.files {
		if _, err := im.Import(p); err != nil {
			return nil, err
		}
	}
	return im.info, nil
}

// typedRepo is typeCheck of the repository, done once.
var typedRepo = sync.OnceValues(func() (*types.Info, error) {
	tr, err := repoTree()
	if err != nil {
		return nil, err
	}
	return typeCheck(tr)
})

// repoImporter type-checks the repository's packages from their parsed
// files, function bodies included, and hands every other import to std.
type repoImporter struct {
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	fset  *token.FileSet
}

func (im *repoImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := im.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := im.files[p]
	if !ok {
		return im.std.Import(p)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, files, im.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p, err)
	}
	im.pkgs[p] = pkg
	return pkg, nil
}

// exportedFunc is an exported function or method declared under internal/.
type exportedFunc struct{ path, name string }

// testOnlyExports returns the exported functions and methods under
// internal/ in tr that no non-test code uses, by info (typeCheck of tr).
// Uses are go/types objects, so a method is not used because another type's
// method shares its name, and a comment or a string neither uses nor hides
// one. A method also counts as used when it implements a method of an
// interface that non-test code names, converts to or calls through, or is
// one of implicitMethods.
func testOnlyExports(tr tree, info *types.Info) []exportedFunc {
	used := map[*types.Func]bool{}
	ifaces := map[types.Type]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
		if obj != nil {
			interfacesIn(obj.Type(), ifaces)
		}
	}
	for _, tv := range info.Types {
		interfacesIn(tv.Type, ifaces)
	}
	var unused []exportedFunc
	for _, f := range tr.files {
		if f.test || f.off || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, dcl := range f.ast.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			obj := info.Defs[fd.Name].(*types.Func)
			if used[obj] || (fd.Recv != nil && (implicitMethods[obj.Name()] || implementsUsed(obj, ifaces))) {
				continue
			}
			unused = append(unused, exportedFunc{f.path, qualified(fd)})
		}
	}
	return unused
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test Go file in the repository, benchmark/ included,
// uses (see testOnlyExports): code only tests call belongs in a _test.go
// file.
func TestNoTestOnlyExports(t *testing.T) {
	info, err := typedRepo()
	if err != nil {
		t.Fatal(err)
	}
	matched := make([]bool, len(testOnlyAllowed))
	var unused []string
	for _, f := range testOnlyExports(loadRepo(t), info) {
		bare := f.name[strings.LastIndexByte(f.name, '.')+1:]
		allowed := false
		for i, row := range testOnlyAllowed {
			if (row.path == "" || row.path == f.path || row.path == path.Dir(f.path)) &&
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
		t.Errorf("%s is exported but only tests use it: delete it or move it into a _test.go file", u)
	}
	for i, row := range testOnlyAllowed {
		if !matched[i] {
			t.Errorf("allowlist row {path: %q, name: %q} matches no test-only export: the row is stale", row.path, row.name)
		}
	}
}

// TestNoTestOnlyExportsReader checks testOnlyExports on small sources: a
// method is not used by another type's method of the same name, is used
// through an interface non-test code calls or converts to (generic ones
// too), and a use in a test file or a comment does not count.
func TestNoTestOnlyExportsReader(t *testing.T) {
	tr := parseSources(t,
		"internal/p/p.go", `package p

type A struct{}
type B struct{}
type C struct{}
type G[T any] struct{}

func (A) Len() int   { return 0 }
func (B) Len() int   { return 0 }
func (C) Put(int)    {}
func (G[T]) Get() T  { var t T; return t }
func (A) Stray()     {}

type Putter interface{ Put(int) }
type Getter[T any] interface{ Get() T }

func Use(p Putter, g Getter[int]) int { p.Put(1); return A{}.Len() + g.Get() } // B{}.Len()
`,
		"internal/p/p_test.go", "package p\n\nfunc use() { B{}.Len(); A{}.Stray() }\n",
		"cmd/q/main.go", `package main

import "fivm/internal/p"

func main() { p.Use(p.C{}, p.G[int]{}) }
`)
	info, err := typeCheck(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []exportedFunc{{"internal/p/p.go", "B.Len"}, {"internal/p/p.go", "A.Stray"}}
	if got := testOnlyExports(tr, info); !reflect.DeepEqual(got, want) {
		t.Errorf("test-only exports %v, want %v", got, want)
	}
}

// interfacesIn adds to set t, if t is an interface with methods, and the
// interfaces among the parameters and results of t, if t is a signature: an
// argument passed to such a parameter is converted to the interface.
func interfacesIn(t types.Type, set map[types.Type]bool) {
	if sig, ok := t.(*types.Signature); ok {
		for _, vs := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range vs.Variables() {
				interfacesIn(v.Type(), set)
			}
		}
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		set[t] = true
	}
}

// implementsUsed reports whether method m's receiver type implements an
// interface of ifaces that declares m's name. Where the receiver type or the
// interface is generic, implementing means carrying every method the
// interface names, as type arguments are not resolved here.
func implementsUsed(m *types.Func, ifaces map[types.Type]bool) bool {
	recv := m.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	for t := range ifaces {
		it := t.Underlying().(*types.Interface)
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if !generic(named) && !generic(t) {
			if types.Implements(ptr, it) {
				return true
			}
			continue
		}
		all := true
		for im := range it.Methods() {
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); obj == nil {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// generic reports whether t is a generic named type or one instantiated
// with type arguments.
func generic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && (n.TypeParams().Len() > 0 || n.TypeArgs().Len() > 0)
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

// removal is one row of removals: a mechanism the project deleted, which
// must not come back into the row's scope, and the replacement that must stay
// there. A form is a Go expression, or a func or type declaration without its body,
// matched against the syntax tree (see like); a comment or a string literal
// holding the same text neither trips a row nor hides a use.
type removal struct {
	had    string   // the commit just before the removal: the step's rows fail there
	step   string   // the removal the row guards
	in     []string // directories (dir/... takes in subdirectories), .go files, or "..." for the repository
	tests  bool     // _test.go files are in scope
	bench  bool     // a "..." scope takes in benchmark/
	forbid []string // forms that must not occur
	only   string   // if set, the forbidden forms may occur inside this func (name or Type.Method)
	n      int      // if set, the forbidden forms occur exactly n times; none means the row is stale
	keep   []string // the replacement: forms that must each occur
}

var (
	ivmPkg  = []string{"internal/ivm"}
	dataPkg = []string{"internal/data"}
	netPkg  = []string{"internal/netserve"}
	repo    = []string{"..."}
)

// removals keeps each removal removed (ROADMAP rule (h)): a change that
// deletes a mechanism adds its rows here, naming its parent commit, and shows
// that they fail there.
var removals = []removal{
	{had: "4172560", step: "Nothing times itself: the one clock read under internal/ivm, data and ring is the epoch stamp",
		in: []string{"internal/ivm/...", "internal/data/...", "internal/ring/..."}, forbid: []string{"time.Now", "time.Since"}, only: "publisher.publish", n: 1},
	{had: "ae76ddc", step: "Two ring tiers: no pointer-source twin of AddInto/CopyInto/IsZero",
		in: repo, tests: true, bench: true, forbid: []string{"MutableRef_", "_IntoRef", "IsZeroRef"}},
	{had: "e33d197", step: "One δ-join, one driver: internal/ivm defines ApplyDeltas once",
		in: ivmPkg, forbid: []string{"func ApplyDeltas()"}, n: 1},
	{had: "e33d197", step: "One δ-join, one driver: internal/ivm defines Snapshot() *ViewSnapshot once",
		in: ivmPkg, forbid: []string{"func Snapshot() *ViewSnapshot[_]"}, n: 1},
	{had: "e33d197", step: "One δ-join, one driver: no Sharded() mode, no recDelta/recComp copy of the plan step",
		in: ivmPkg, forbid: []string{"func Sharded()", "_.Sharded()", "recDelta", "recComp"}},
	{had: "8b9b1c4", step: "One way in for an epoch header: db.Epoch is allocated only in DB.header",
		in: []string{"internal/db"}, forbid: []string{"&Epoch{}"}, only: "DB.header", n: 1},
	{had: "8b9b1c4", step: "One way in for an epoch header: ivm.ViewSnapshot is allocated only in publisher.header",
		in: ivmPkg, forbid: []string{"&ViewSnapshot[_]{}"}, only: "publisher.header", n: 1},
	{had: "8b9b1c4", step: "One way in for an epoch header: data.RelationSnapshot is allocated only in newSnapshot",
		in: dataPkg, forbid: []string{"&RelationSnapshot[_]{}"}, only: "newSnapshot", n: 1},
	{had: "d9f8224", step: "One rule for arena blocks: a block is freed by the span of snapshots that read it, with no reference count or pending list",
		in: dataPkg, forbid: []string{"releasePending", "struct{ rc int }", "struct{ runs []*bumpBlock[_] }", "struct{ dirs []*bumpBlock[_] }"},
		keep: []string{"_.pinned(_.born, _.last)"}},
	{had: "498c673", step: "One rule for payload storage: an entry touched first after a publish is replaced whole, with no payload retire or spare list",
		in: dataPkg, forbid: []string{"retiredPayload", "payloadsMax", "copyFresh", "struct{ spares _ }"},
		keep: []string{"func (_ *entryTable[_]) replace()", "func (_ *EntrySet[_]) replace()", "func (_ *Index[_]) replace()", "ix.replace(old, en)", "r.entries.replace(e, en)"}},
	{had: "e337e2a", step: "POST /apply decodes without reflection, and relation names come from BatchArena.Name",
		in: netPkg, forbid: []string{"UnmarshalJSON", "applyReq", "json.Unmarshal(st._)", "json.Unmarshal(st._._())", "json.Unmarshal(_, &st._)"}, keep: []string{"_.arena.Name()"}},
	{had: "e337e2a", step: "POST /apply decodes without reflection, and relation names come from BatchArena.Name",
		in: []string{"internal/wal"}, keep: []string{"a.Name()"}},
	{had: "126cf9d", step: "One public API: fivm.go re-exports fivm.DB, with no per-engine constructor, options, delta batch, parallel engine, source reader, optimizer, sharding or ring tier",
		in: []string{"fivm.go"}, forbid: []string{"ivm.New_", "ivm.Options_", "ivm.Maintainer_", "ivm.NamedDelta_", "ivm.Parallel_", "serve.NewReader_",
			"vorder.Choose_", "vorder.NewCostModel_", "data.Split_", "data.NewSharded_", "ring.Mutable_"}, keep: []string{"db.Open"}},
	{had: "3642180", step: "Statistics have one writer: no adaptive re-optimization, drift test or live feed outside benchmark/",
		in: repo, forbid: []string{"AutoReoptimize", "DriftFrom", "maybeReoptimize", "ObserveRouted", "ObserveDeltaRelation", "CollectStats"}},
	{had: "194335c", step: "Views plan from the rows they are built over: nothing feeds a collector from ingest, and an engine ANALYZEs the rows it loads",
		in: repo, tests: true, bench: true, forbid: []string{"ObserveDeltaTuples"}, keep: []string{"data.ObserveRelation(e.stats, _, _)"}},
	{had: "194335c", step: "Views plan from the rows they are built over: the DB keeps no statistics collector, and a view's engine plans from its backfill",
		in: []string{"internal/db"}, forbid: []string{"data.NewStats", "data.Stats", "_.stats.Clone()"}, keep: []string{"m.LoadCounts(_, _)"}},
	{had: "e68febd", step: "Figures count work: internal/bench reads the clock only in elapsed, has no timeout and counts through ring/ringtest",
		in: []string{"internal/bench"}, forbid: []string{"time.Now", "time.Since", "_Timeout_"}, only: "elapsed", keep: []string{`"fivm/internal/ring/ringtest"`}},
	{had: "e68febd", step: "Figures count work: internal/bench/elapsed.go holds the one elapsed-column helper",
		in: []string{"internal/bench/elapsed.go"}, forbid: []string{"func _()"}, n: 1},
	{had: "e68febd", step: "Figures count work: cmd/fivm has no ablations command",
		in: []string{"cmd/fivm"}, tests: true, forbid: []string{`"ablations"`}},
	{had: "b9786d7", step: "netserve answers its own connections: no http.Server or ConnContext, and parseHead parses the common request head",
		in: netPkg, forbid: []string{"http.Server{}", "ConnContext"}, keep: []string{"func (_ *conn) parseHead()"}},
	{had: "b9786d7", step: "netserve answers its own connections: http.ReadRequest, the fallback, has one site",
		in: netPkg, forbid: []string{"http.ReadRequest"}, n: 1},
	{had: "1f62482", step: "netserve routes its own eight paths: no http.ServeMux, and a view route gets its name as an argument, not from PathValue",
		in: netPkg, forbid: []string{"http.NewServeMux", "_.PathValue(_)"}, keep: []string{"func (_ *Server) ServeHTTP()", "func (_ *route) match()"}},
	{had: "890805e", step: "One evaluator, and backfill reads the base store in place: no lifted-copy backfill path",
		in: repo, bench: true, forbid: []string{"BaseAdopter", "LoadOwned", "fillLifted"}},
	{had: "890805e", step: "One evaluator: internal/ivm marginalizes straight into a view's keys",
		in: ivmPkg, forbid: []string{"MarginalizeVars"}},
	{had: "890805e", step: "One evaluator: it builds no relation only for data.Project to reorder",
		in: []string{"internal/ivm/eval.go"}, forbid: []string{"data.Project"}, keep: []string{"func (_ *evaluator[_]) eval()"}},
	{had: "37f71b1", step: "Checkpoints sort in place: the base store keeps no sort scratch",
		in: []string{"internal/data/basestore.go"}, forbid: []string{"struct{ sorted _ }", "make([]*Entry[_])"}, keep: []string{"t.pack()", "t.unpack()"}},
	{had: "37f71b1", step: "Checkpoints sort in place in the entry table",
		in: []string{"internal/data/swiss.go"}, keep: []string{"func (_ *entryTable[_]) pack()", "func (_ *entryTable[_]) unpack()"}},
	{had: "37f71b1", step: "Checkpoints read rows in place: only decodedRows builds a row tuple",
		in: []string{"internal/wal/checkpoint.go"}, forbid: []string{"make(data.Tuple)"}, only: "decodedRows"},
	{had: "b42d401", step: "Only F-IVM publishes: data.Relation has no Seal",
		in: dataPkg, forbid: []string{"func (_ *Relation[_]) Seal()"}},
	{had: "b42d401", step: "Only F-IVM publishes: the competitors have no ViewSnapshot or epoch hook",
		in: []string{"internal/ivm/baseline.go", "internal/ivm/recursive.go", "internal/ivm/multi.go"}, forbid: []string{"ViewSnapshot", "_{epoch: _}"}},
	{had: "b42d401", step: "Only F-IVM publishes: nothing probes for a maintainer that is not an engine",
		in: []string{"internal/db/view.go"}, forbid: []string{"_.(*ivm.Engine[_])", "interface{ PoolStats() }"}},
	{had: "a67cb3b", step: "One ring interface: no Sized or CountedMutable, and no probe for a ring tier",
		in: repo, tests: true, bench: true, forbid: []string{"ring.Sized", "type Sized _", "CountedMutable",
			"_.(Mutable[_])", "_.(ring.Mutable[_])", "_.(Sized[_])", "_.(ring.Sized[_])"}},
	{had: "a67cb3b", step: "One ring interface: ring.Ring embeds Mutable, which declares AddInto",
		in: []string{"internal/ring/ring.go"}, keep: []string{"type Ring[_ any] interface{ Mutable[_] }", "type Mutable[_ any] interface{ AddInto() }"}},
	{had: "a67cb3b", step: "One ring interface: ring.MutableOf is called only by the benchmark",
		in: repo, forbid: []string{"MutableOf"}, only: "MutableOf"},
	{had: "a67cb3b", step: "One ring interface: no ring.Mutable field in internal/data or internal/ivm",
		in: []string{"internal/data/...", "internal/ivm/..."}, tests: true, forbid: []string{"ring.Mutable[_]"}},
	{had: "df99b46", step: "Snapshots point at their rows: no snapshot block arena, refresh cursor or by-value entry copy, and one copy-on-touch rule for every ring",
		in: dataPkg, forbid: []string{"type bumpArena _", "type bumpBlock _", "struct{ refresh _ }", "struct{ shares _ }", "struct{ dirBlk _ }", "func sealed()"},
		keep: []string{"func (_ *snapArena[_]) chunk()", "struct{ free, retired []*snapChunk[_] }", "func (_ *Relation[_]) touchEntry()"}},
	{had: "6514359", step: "Key order is Go's string order: no MSD radix sort or byte-loop key compare; the standard library sorts and compares keys",
		in: dataPkg, tests: true, forbid: []string{"msdBy", "msdKeys", "insertionKeys", "insertionBy", "keyBucket", "radixSortCutoff", "radixSort_", "cmpKey"},
		keep: []string{"slices.SortFunc", "strings.Compare"}},
	{had: "19d1a69", step: "Each ring operation has one implementation: Cofactor's Add, Mul and Neg run the in-place kernels on a fresh triple, Triple exports no in-place method, and no purego kernel build",
		in: []string{"internal/ring"}, tests: true, forbid: []string{"scaleTriple", "scatterAdd", "mergeVars", "pureGoKernels",
			"func (_ *Triple) Reset()", "func (_ *Triple) CopyFrom()", "func (_ *Triple) AddInto()", "func (_ *Triple) MulAddInto()"},
		keep: []string{"out.mulAddInto(&a, &b)", "out.addInto(&b)"}},
	{had: "19d1a69", step: "Each ring operation has one implementation: the scalar reference kernels are the tests' oracle, not production code",
		in: []string{"internal/ring"}, forbid: []string{"_Ref"}, keep: []string{"func rank1SymUpdate()"}},
	{had: "62e875c", step: "One engine per view: no Parallel, sharded relation, Split or sealed reduction, and a view holds an *ivm.Engine",
		in: repo, tests: true, forbid: []string{"NewParallel", "type Parallel _", "Parallel[_]", "ivm.Parallel[_]", "pickShardVar",
			"type Sharded _", "Sharded[_]", "data.Sharded[_]", "NewSharded", "func Split()", "data.Split", "ReduceSealed", "closeMaintainer"},
		keep: []string{"struct{ m *ivm.Engine[_] }"}},
	{had: "1fa29f8", step: "ivm.Maintainer is a test fixture: only the tests declare it (export_test.go), to tell the engine from the competitors",
		in: ivmPkg, forbid: []string{"type Maintainer _"}},
	{had: "bad82df", step: "Scratch tuples live for their batch: no volatile-tuple flag or per-run share switch, and a scratch relation shares every prefix projection",
		in: repo, tests: true, bench: true, forbid: []string{"MarkVolatile", "handedVolatile", "VolatileTuples", "ShareProjectedTuples", "shareProjected", "shareOut"},
		keep: []string{"r.scratch && proj.IsPrefix()"}},
	{had: "f800527", step: "Rows follow their snapshot chunks: no entry generations or per-epoch row sweep, and the chunk sweep frees a retired row with its last count",
		in: dataPkg, tests: true, forbid: []string{"sweepRows", "retireEntry", "type Entry[_ any] struct{ gen _ }", "type Entry[_ any] struct{ born _ }"},
		keep: []string{"_.chunks == 0 && _.retired"}},
	{had: "e3f237a", step: "One durable write path: the apply queue commits in groups, so no interval fsync policy or sync interval is left",
		in: repo, tests: true, bench: true, forbid: []string{"FsyncInterval", "SyncInterval", "lastSync"},
		keep: []string{"func (_ *DB) applyGroup()", "q.d.applyGroup(q.batches, q.errs)"}},
	{had: "e3f237a", step: "One durable write path: the WAL has no injectable clock",
		in: []string{"internal/wal"}, tests: true, forbid: []string{"struct{ now _ }", "_.opts.now"}},
	{had: "e3f237a", step: "A db view takes every delta its query reads: no ViewOptions.Updatable",
		in: []string{"internal/db", "fivm.go"}, tests: true, forbid: []string{"Updatable"}, keep: []string{"v.q.RelNames()"}},
	{had: "33e3bca", step: "One log reader: Open, ScanFramesAfter and RecordBoundaries walk segments with walkSegment, frames are checked by checkFrame, and wal.Recovery holds no records",
		in: []string{"internal/wal"}, tests: true, forbid: []string{"peekFrame", "loadLatestCheckpoint", "scanSegment", "type Recovery struct{ Records _ }"},
		keep: []string{"func walkSegment()", "func checkFrame()"}},
	{had: "33e3bca", step: "One replay path: recovery and ApplyReplicated apply a record through DB.applyRecord, the one switch over record kinds in internal/db",
		in: []string{"internal/db"}, forbid: []string{"_.Create != nil", `_.Drop != ""`}, only: "DB.applyRecord", n: 2,
		keep: []string{"d.applyRecord(r, false)", "d.applyRecord(rec, true)"}},
	{had: "33e3bca", step: "One replay path: records apply below the follower guard, so no recovering, replicating or closing flag is left",
		in: []string{"internal/db"}, tests: true, forbid: []string{"_.recovering", "_.replicating", "_.closing"},
		keep: []string{"func (_ *DB) dropView()", "func createViewSQL()"}},
}

// TestRemovalGuards fails on every removal row whose forbidden forms are
// back, and on every row whose replacement is gone (the row is stale).
func TestRemovalGuards(t *testing.T) {
	tr := loadRepo(t)
	for _, r := range removals {
		for _, msg := range r.check(tr) {
			t.Errorf("%s (removed after %s): %s", r.step, r.had, msg)
		}
	}
}

// check returns what is wrong with row r over tr: each forbidden site, or
// why the row is stale.
func (r removal) check(tr tree) []string {
	forbid, err := parseForms(r.forbid)
	if err != nil {
		return []string{err.Error()}
	}
	keep, err := parseForms(r.keep)
	if err != nil {
		return []string{err.Error()}
	}
	var bad, sites []string
	seen, kept := make([]bool, len(r.in)), make([]bool, len(keep))
	for _, f := range tr.files {
		i := r.scope(f)
		if i < 0 {
			continue
		}
		seen[i] = true
		for _, d := range f.ast.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = qualified(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				for j, p := range forbid {
					if matches(p, n) {
						site := fmt.Sprintf("%s: %s", tr.fset.Position(at(p, n)), r.forbid[j])
						sites = append(sites, site)
						if r.only != "" && fn != r.only {
							bad = append(bad, site+" outside func "+r.only)
						} else if r.only == "" && r.n == 0 {
							bad = append(bad, site)
						}
					}
				}
				for j, p := range keep {
					kept[j] = kept[j] || matches(p, n)
				}
				return true
			})
		}
	}
	for i, in := range r.in {
		if !seen[i] {
			bad = append(bad, fmt.Sprintf("%s holds no Go file in scope: the row is stale", in))
		}
	}
	if r.n > 0 && len(sites) == 0 {
		bad = append(bad, fmt.Sprintf("no %s in %s: the replacement is gone, so the row is stale", strings.Join(r.forbid, " or "), strings.Join(r.in, ", ")))
	} else if r.n > 0 && len(sites) != r.n {
		bad = append(bad, fmt.Sprintf("want exactly %d of %s, found %d: %s", r.n, strings.Join(r.forbid, " or "), len(sites), strings.Join(sites, "; ")))
	}
	for j, ok := range kept {
		if !ok {
			bad = append(bad, fmt.Sprintf("no %s in %s: the replacement is gone, so the row is stale", r.keep[j], strings.Join(r.in, ", ")))
		}
	}
	return bad
}

// at returns where form p matched node n: for a struct form, the first field
// of n that matches the form's first field, otherwise n itself.
func at(p, n ast.Node) token.Pos {
	if st, ok := p.(*ast.StructType); ok && len(st.Fields.List) > 0 {
		for _, f := range n.(*ast.StructType).Fields.List {
			if like(reflect.ValueOf(st.Fields.List[0]), reflect.ValueOf(f)) {
				return f.Pos()
			}
		}
	}
	return n.Pos()
}

// scope returns the index of the entry of r.in that takes in f, or -1.
func (r removal) scope(f goFile) int {
	if f.test && !r.tests {
		return -1
	}
	for i, in := range r.in {
		dir, sub := strings.CutSuffix(in, "/...")
		switch {
		case in == "...":
			if r.bench || !strings.HasPrefix(f.path, "benchmark/") {
				return i
			}
		case sub:
			if strings.HasPrefix(f.path, dir+"/") {
				return i
			}
		case f.path == in || path.Dir(f.path) == in:
			return i
		}
	}
	return -1
}

// parseForms parses forms: each a Go expression, or a func or type
// declaration whose body is left out.
func parseForms(forms []string) ([]ast.Node, error) {
	nodes := make([]ast.Node, len(forms))
	for i, src := range forms {
		var err error
		if strings.HasPrefix(src, "func ") || strings.HasPrefix(src, "type ") {
			var f *ast.File
			if f, err = parser.ParseFile(token.NewFileSet(), "", "package p\n"+src, parser.SkipObjectResolution); err == nil {
				nodes[i] = f.Decls[0]
				if g, ok := f.Decls[0].(*ast.GenDecl); ok {
					nodes[i] = g.Specs[0]
				}
			}
		} else {
			nodes[i], err = parser.ParseExprFrom(token.NewFileSet(), "", src, parser.SkipObjectResolution)
		}
		if err != nil {
			return nil, fmt.Errorf("form %q does not parse: %v", src, err)
		}
	}
	return nodes, nil
}

// matches reports whether node n has the shape of form p.
func matches(p, n ast.Node) bool {
	if n == nil || reflect.TypeOf(p) != reflect.TypeOf(n) {
		return false
	}
	return like(reflect.ValueOf(p), reflect.ValueOf(n))
}

// ignored are the node fields a form does not constrain.
var ignored = map[reflect.Type]bool{
	reflect.TypeOf(token.NoPos):              true,
	reflect.TypeOf((*ast.CommentGroup)(nil)): true,
	reflect.TypeOf((*ast.Object)(nil)):       true,
}

// like reports whether syntax c has the shape of form p. A part p leaves out
// matches anything, `_` matches any expression and, inside a name, any run
// of characters (ivm.New_ matches ivm.NewParallel), a list in p matches any
// list that holds its elements in order, and a string literal matches the
// same string however it is quoted.
func like(p, c reflect.Value) bool {
	if p.Kind() == reflect.Interface {
		if p.IsNil() {
			return true
		}
		if c.IsNil() {
			return false
		}
		p, c = p.Elem(), c.Elem()
	}
	if id, ok := p.Interface().(*ast.Ident); ok && id != nil && id.Name == "_" {
		return true
	}
	if p.Type() != c.Type() {
		return false
	}
	switch p.Kind() {
	case reflect.Pointer:
		if p.IsNil() {
			return true
		}
		if c.IsNil() {
			return false
		}
		switch x := p.Interface().(type) {
		case *ast.Ident:
			ok, _ := path.Match(strings.ReplaceAll(x.Name, "_", "*"), c.Interface().(*ast.Ident).Name)
			return ok
		case *ast.BasicLit:
			y := c.Interface().(*ast.BasicLit)
			return x.Kind == y.Kind && unquote(x.Value) == unquote(y.Value)
		}
		return like(p.Elem(), c.Elem())
	case reflect.Struct:
		for i := range p.NumField() {
			if !ignored[p.Type().Field(i).Type] && !like(p.Field(i), c.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		j := 0
		for i := range p.Len() {
			for j < c.Len() && !like(p.Index(i), c.Index(j)) {
				j++
			}
			if j == c.Len() {
				return false
			}
			j++
		}
		return true
	}
	return p.Equal(c)
}

func unquote(lit string) string {
	if s, err := strconv.Unquote(lit); err == nil {
		return s
	}
	return lit
}

// TestRemovalGuardForms checks the removal rows' matcher on small sources:
// each kind of form is flagged in code and not in a comment or a string,
// honours only and n, and a row whose replacement is gone reports itself
// stale.
func TestRemovalGuardForms(t *testing.T) {
	cases := []struct{ form, code, fn string }{
		{"recDelta", "func f() { recDelta() }", "f"},
		{"_IntoRef", "func f() { r.AddIntoRef(x) }", "f"},
		{"time.Now", "func f() { _ = time.Now() }", "f"},
		{"ivm.New_", "func f() { _ = ivm.NewParallel }", "f"},
		{"&Epoch{}", "func f() { _ = &Epoch{home: nil} }", "f"},
		{"_{epoch: _}", "func f() { _ = engine{apply: a, epoch: e} }", "f"},
		{"http.Server{}", "func f() { _ = &http.Server{Handler: h} }", "f"},
		{"make([]*Entry[_])", "func f() { _ = make([]*Entry[P], 0, n) }", "f"},
		{"json.Unmarshal(st._)", "func f() { _ = json.Unmarshal(st.body, &st.req) }", "f"},
		{"pinned(_.born, _.last)", "func f() { _ = pinned(b.born, b.last) }", "f"},
		{"_.Sharded()", "func f() { _ = p.Sharded() }", "f"},
		{"_.(ring.Sized[_])", "func f() { _, _ = r.(ring.Sized[T]) }", "f"},
		{"struct{ rc int }", "func f() { type block struct{ mark, rc int } }", "f"},
		{"interface{ PoolStats() }", "func f() { _, _ = m.(interface{ PoolStats() data.PoolStats }) }", "f"},
		{`"ablations"`, `func f() { switch cmd { case "ablations": } }`, "f"},
		{`"fivm/internal/ring/ringtest"`, `import "fivm/internal/ring/ringtest"`, ""},
		{"type Sized _", "func f() { type Sized[T any] interface{ Bytes(T) int } }", "f"},
		{"struct{ shares _ }", "func f() { type s struct{ gen, born uint64; shares bool } }", "f"},
		{"type Ring[_ any] interface{ Mutable[_] }", "type Ring[T any] interface { Zero() T; Mutable[T] }", ""},
		{"type Entry[_ any] struct{ born _ }", "type Entry[P any] struct { key string; gen, born uint64 }", ""},
		{"func (_ *conn) parseHead()", "func (c *conn) parseHead(b []byte) bool { return false }", "conn.parseHead"},
		{"func Snapshot() *ViewSnapshot[_]", "func (p *publishing[P]) Snapshot() *ViewSnapshot[P] { return nil }", "publishing.Snapshot"},
		{"func NewParallel(func() Maintainer[_])", "func NewParallel[P any](q Query, workers int, factory func() (Maintainer[P], error)) {}", "NewParallel"},
	}
	for _, c := range cases {
		code := "package p\n\n" + c.code + "\n"
		text := "package p\n\n// " + c.code + "\nvar s = `" + c.code + "`\n"
		row := removal{step: c.form, in: []string{"p"}, forbid: []string{c.form}}
		one := parseSources(t, "p/a.go", code, "p/text.go", text)
		two := parseSources(t, "p/a.go", code, "p/b.go", code)
		none := parseSources(t, "p/text.go", text)

		if got := row.check(one); len(got) != 1 || !strings.HasPrefix(got[0], "p/a.go:3:") {
			t.Errorf("%s: want one site in p/a.go, got %q", c.form, got)
		}
		if got := row.check(none); len(got) != 0 {
			t.Errorf("%s: a comment or a string tripped the row: %q", c.form, got)
		}
		only := row
		if only.only = c.fn; c.fn != "" {
			if got := only.check(two); len(got) != 0 {
				t.Errorf("%s: only %s: sites inside it tripped the row: %q", c.form, c.fn, got)
			}
		}
		if only.only = "elsewhere"; len(only.check(two)) != 2 {
			t.Errorf("%s: only elsewhere: want both sites flagged, got %q", c.form, only.check(two))
		}
		exact := row
		exact.n = 1
		if got := exact.check(one); len(got) != 0 {
			t.Errorf("%s: n 1 over one site: %q", c.form, got)
		}
		if got := exact.check(two); len(got) != 1 || !strings.Contains(got[0], "want exactly 1") || !strings.Contains(got[0], "found 2") {
			t.Errorf("%s: n 1 over two sites: %q", c.form, got)
		}
		if got := exact.check(none); len(got) != 1 || !strings.HasSuffix(got[0], "the row is stale") {
			t.Errorf("%s: n 1 over no site is not stale: %q", c.form, got)
		}
		keep := removal{step: c.form, in: []string{"p"}, keep: []string{c.form}}
		if got := keep.check(one); len(got) != 0 {
			t.Errorf("%s: kept form present, yet %q", c.form, got)
		}
		if got := keep.check(none); len(got) != 1 || !strings.HasSuffix(got[0], "the row is stale") {
			t.Errorf("%s: kept form absent is not stale: %q", c.form, got)
		}
	}

	// A struct form reports the line of the field it matched.
	field := removal{in: []string{"p"}, forbid: []string{"struct{ rc int }"}}
	src := "package p\n\ntype block struct {\n\tmark int\n\n\trc int\n}\n"
	if got := field.check(parseSources(t, "p/a.go", src)); len(got) != 1 || !strings.HasPrefix(got[0], "p/a.go:6:") {
		t.Errorf("struct{ rc int }: want one site at p/a.go:6, got %q", got)
	}

	// Scope: test files and benchmark/ count only where the row says so, and
	// an entry that holds no file makes the row stale.
	tr := parseSources(t, "p/c.go", "package p", "p/a_test.go", "package p\nvar _ = recDelta", "benchmark/b.go", "package b\nvar _ = recDelta\nvar _ = `ablations`")
	for _, c := range []struct {
		row  removal
		want int
	}{
		{removal{in: []string{"..."}, forbid: []string{"recDelta"}}, 0},
		{removal{in: []string{"..."}, tests: true, forbid: []string{"recDelta"}}, 1},
		{removal{in: []string{"..."}, bench: true, forbid: []string{"recDelta"}}, 1},
		{removal{in: []string{"p/..."}, tests: true, bench: true, forbid: []string{"recDelta"}}, 1},
		{removal{in: []string{"q"}, forbid: []string{"recDelta"}}, 1},
		{removal{in: repo, forbid: []string{"recDelta("}}, 1},
		{removal{in: repo, bench: true, forbid: []string{`"ablations"`}}, 1},
	} {
		if got := c.row.check(tr); len(got) != c.want {
			t.Errorf("%+v: want %d messages, got %q", c.row, c.want, got)
		}
	}
}

// parseSources parses in-memory files given as path, source pairs.
func parseSources(t *testing.T, pathSrc ...string) tree {
	t.Helper()
	tr := tree{fset: token.NewFileSet()}
	for i := 0; i < len(pathSrc); i += 2 {
		f, err := parser.ParseFile(tr.fset, pathSrc[i], pathSrc[i+1], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		tr.files = append(tr.files, goFile{pathSrc[i], strings.HasSuffix(pathSrc[i], "_test.go"), f, false})
	}
	return tr
}

// ciFlag matches a -run, -bench or -fuzz flag of a go test command line and
// its pattern, quoted or bare.
var ciFlag = regexp.MustCompile(`(?:^|\s)-(run|bench|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)

// ciNames returns the named alternatives of the -run, -bench and -fuzz
// patterns in workflow text, each with the function prefix its flag selects
// (Test, Benchmark or Fuzz). An alternative anchored with $ keeps the $; one
// that is not a plain name (^$, .) names nothing.
func ciNames(workflow string) (names [][2]string) {
	kind := map[string]string{"run": "Test", "bench": "Benchmark", "fuzz": "Fuzz"}
	for _, m := range ciFlag.FindAllStringSubmatch(workflow, -1) {
		for _, alt := range strings.Split(strings.Trim(m[2], `'"`), "|") {
			alt = strings.TrimPrefix(alt, "^")
			if name := strings.TrimSuffix(alt, "$"); token.IsIdentifier(name) {
				names = append(names, [2]string{kind[m[1]], alt})
			}
		}
	}
	return names
}

// TestCINamesExist fails on a test, benchmark or fuzz target that CI's
// workflow selects by name and no _test.go file defines: every named
// alternative must be a prefix of a function of its flag's kind (exactly its
// name, when anchored with $), so a test that is renamed or deleted cannot
// silently drop out of a CI step.
func TestCINamesExist(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	for _, f := range loadRepo(t).files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && f.test && fd.Recv == nil {
				funcs = append(funcs, fd.Name.Name)
			}
		}
	}
	selects := func(kind, alt string) bool {
		name, exact := strings.CutSuffix(alt, "$")
		for _, fn := range funcs {
			if strings.HasPrefix(name, kind) && (fn == name || !exact && strings.HasPrefix(fn, name)) {
				return true
			}
		}
		return false
	}
	names := ciNames(string(src))
	for _, n := range names {
		if !selects(n[0], n[1]) {
			t.Errorf("%s selects %q, which names no %s function in a _test.go file", workflow, n[1], n[0])
		}
	}
	if len(names) == 0 {
		t.Errorf("%s names no test: the guard reads nothing", workflow)
	}
	// The reader itself: a renamed test shows up, an anchored prefix does not pass.
	if got := ciNames(`go test -run 'TestNoSuchThing|^$' -bench BenchmarkApplyDelta$ -fuzz=FuzzX .`); len(got) != 3 ||
		selects(got[0][0], got[0][1]) || got[1] != [2]string{"Benchmark", "BenchmarkApplyDelta$"} || selects("Benchmark", "BenchmarkApplyDel$") {
		t.Errorf("ciNames read %q", got)
	}
	t.Logf("%d names in %s, each defined", len(names), workflow)
}

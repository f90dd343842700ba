package gbkmv_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReachable is the dead-code gate: it loads every package of the module
// without its _test.go files (standard library only: go/parser, go/types and
// the source importer), marks what is reachable from the roots below, and
// fails listing every function, method, type, variable and constant that
// nothing reachable refers to. It also prints the module's non-test line
// count, the number a PR has to account for next to f1 and space_ratio, and
// how many of those lines bench/ alone keeps alive: the declarations that
// are reachable only through it and through benchRoots, the roots it needs
// that nothing else does.
//
// Roots: the main and init functions (cmd/*, examples/*, the engine
// registrations), the root package's exported API (with the exported methods
// of its types, aliased ones included), everything bench/*.go uses of the
// module, and — for the two test-support packages only — what other
// packages' _test.go files use of them.
func TestReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m, err := loadModule(".", "gbkmv", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test lines outside bench/: %d (%d packages); reachable only through bench/'s roots: %d", m.lines, m.packages, m.benchOnly)
	for _, name := range m.staleAllow {
		t.Errorf("allow-list entry %s names nothing unreachable: delete it", name)
	}
	if len(reachAllow) > 10 {
		t.Errorf("allow-list has %d entries; the gate admits 10", len(reachAllow))
	}
	if len(m.dead) > 0 {
		t.Errorf("%d declarations nothing reachable refers to (delete them, or say in reachAllow why they stay):\n%s",
			len(m.dead), strings.Join(m.dead, "\n"))
	}
}

// TestReachableReportsDeadCode is the gate's negative control: on the
// scratch module under testdata/reach it must report exactly the
// declarations nothing refers to, and nothing that is.
func TestReachableReportsDeadCode(t *testing.T) {
	m, err := loadModule("testdata/reach", "scratch", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:21: func lib.unreferenced",
		"lib/lib.go:24: method lib.(*Kept).orphan",
		"lib/lib.go:27: type lib.lonely",
		"lib/lib.go:30: const lib.spare",
		"lib/lib.go:33: var lib.idle",
	}
	if got := m.dead; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead code in testdata/reach:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// reachAllow is what stays though nothing reachable refers to it, each with
// its reason; what an entry refers to stays with it. Keys are as the gate
// prints them, without the position.
var reachAllow = map[string]string{
	"method internal/server.(*traceWriter).Unwrap": "net/http.ResponseController finds the underlying writer through it, by an interface net/http does not export",
	"func internal/snapfmt.SetPackLimit":           "the overflow tests of three packages (snapfmt, server, the root) lower the 4 GiB pack limit through it; a _test.go file cannot be shared across packages",
	"func internal/experiments.Quick":              "the scale the experiments tests and the root package's Go benchmarks run at: two packages' tests, so not a _test.go helper",
}

// benchRoots are what only bench/ needs of the module: the segmented-layer
// shim its ladder rows still name (segmented.go, one engine behind the old
// names), the decoded records its trace reads, and the five reference engines
// its layers table registers by name (their init files). What is reachable
// only through them and bench/ is what bench/ alone keeps alive.
var benchRoots = map[string]bool{
	"type Segmented":                        true,
	"func NewSegmented":                     true,
	"method (*Segmented).SetSaveObserver":   true,
	"method (*Segmented).SegmentRecords":    true,
	"method (*Segmented).Save":              true,
	"method internal/core.(*Index).Records": true,
	"engine_kmv.go":                         true,
	"engine_minhash.go":                     true,
	"engine_lshforest.go":                   true,
	"engine_lshensemble.go":                 true,
	"engine_exact.go":                       true,
}

// testSupport are the packages whose callers are tests by design: what other
// packages' _test.go files use of them counts as reachable.
var testSupport = map[string]bool{
	"internal/fsx":           true, // FaultFS: the disk-fault injector of server's and repl's tests
	"internal/repl/faultnet": true, // the network-fault proxy of repl's chaos tests
}

type reachModule struct {
	lines, packages int
	benchOnly       int // non-test lines reachable only through bench/'s roots
	dead            []string
	staleAllow      []string
}

type reachPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// reachLoader type-checks the module's packages on demand, each once, so an
// object has one identity however many packages refer to it.
type reachLoader struct {
	root, modPath string
	fset          *token.FileSet
	std           types.Importer
	pkgs          map[string]*reachPkg
	errs          []error
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *reachLoader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
	files, err := l.parseDir(dir, func(name string) bool { return !isTestFile(name) })
	if err != nil {
		return nil, err
	}
	p := &reachPkg{files: files}
	p.pkg, p.info = l.check(path, files, true)
	l.pkgs[path] = p
	return p, nil
}

// check type-checks one set of files. A strict check records its errors; a
// lenient one (test files, which may lean on declarations this loader does
// not see) keeps what resolved.
func (l *reachLoader) check(path string, files []*ast.File, strict bool) (*types.Package, *types.Info) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l, Error: func(err error) {
		if strict {
			l.errs = append(l.errs, err)
		}
	}}
	pkg, _ := conf.Check(path, l.fset, files, info)
	return pkg, info
}

// loadModule loads the module rooted at root and computes what is dead.
func loadModule(root, modPath string, allow map[string]string) (*reachModule, error) {
	l := &reachLoader{root: root, modPath: modPath, fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	m := &reachModule{}

	// Every directory holding non-test Go files is a package, bench/ (its own
	// module: a root, not a subject) and testdata aside.
	var testDirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		if isTestFile(p) {
			if len(testDirs) == 0 || testDirs[len(testDirs)-1] != dir {
				testDirs = append(testDirs, dir)
			}
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		m.lines += bytes.Count(src, []byte("\n"))
		rel, _ := filepath.Rel(root, dir)
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (and %d more)", modPath, l.errs[0], len(l.errs)-1)
	}
	m.packages = len(l.pkgs)

	g := newReachGraph(l)
	for _, p := range l.pkgs {
		g.addPackage(p)
	}
	sort.Slice(g.nodes, func(i, j int) bool {
		a, b := l.fset.Position(g.nodes[i].obj.Pos()), l.fset.Position(g.nodes[j].obj.Pos())
		return a.Filename < b.Filename || (a.Filename == b.Filename && a.Offset < b.Offset)
	})
	g.methodsThroughInterfaces()
	// Without bench/ and its roots first, then with everything.
	skip := map[types.Object]bool{}
	for _, n := range g.nodes {
		if benchRoots[n.name] {
			skip[n.obj] = true
		}
	}
	for _, obj := range g.inits {
		if benchRoots[filepath.Base(l.fset.Position(obj.Pos()).Filename)] {
			skip[obj] = true
		}
	}
	if _, err := g.reach(allow, skip, "", testDirs); err != nil {
		return nil, err
	}
	withoutBench := g.reached
	used, err := g.reach(allow, nil, filepath.Join(root, "bench"), testDirs)
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		if g.reached[n.obj] && !withoutBench[n.obj] {
			m.benchOnly += n.lines
		}
	}
	for _, n := range g.nodes {
		if g.reached[n.obj] {
			continue
		}
		pos := l.fset.Position(n.obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		m.dead = append(m.dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, n.name))
	}
	for name := range allow {
		if !used[name] {
			m.staleAllow = append(m.staleAllow, name)
		}
	}
	sort.Strings(m.staleAllow)
	return m, nil
}

// reach marks afresh what the roots reach — the mains, the inits, the root
// package's exported API and the test-support uses, less skip, and bench/'s
// uses when bench names its directory — and then what the allow-list keeps.
// It returns the allow-list entries that kept something.
func (g *reachGraph) reach(allow map[string]string, skip map[types.Object]bool, bench string, testDirs []string) (map[string]bool, error) {
	g.reached, g.work = map[types.Object]bool{}, nil
	g.rootMains()
	for _, obj := range g.inits {
		if !skip[obj] {
			g.mark(obj)
		}
	}
	g.rootExportedAPI(g.l.pkgs[g.l.modPath], skip)
	if bench != "" {
		if err := g.rootBench(bench); err != nil {
			return nil, err
		}
	}
	if err := g.rootTestSupport(testDirs); err != nil {
		return nil, err
	}
	g.flood()
	// What is kept on purpose keeps what it refers to; an entry for something
	// reachable anyway is stale.
	used := map[string]bool{}
	for _, n := range g.nodes {
		if _, ok := allow[n.name]; ok && !g.reached[n.obj] {
			used[n.name] = true
			g.mark(n.obj)
		}
	}
	g.flood()
	return used, nil
}

// reachNode is one package-level declaration (or method) of the module.
type reachNode struct {
	obj   types.Object
	name  string // "kind [pkg.]Name" as reported
	lines int    // its source lines, doc comment included
}

type reachGraph struct {
	l      *reachLoader
	nodes  []*reachNode
	edges  map[types.Object][]types.Object // declaration → what it mentions
	ifaces []*types.Interface              // every interface a module type could be used through
	named  []*types.Named                  // the module's own defined types
	// viaIface is, per defined type, its methods some interface it implements
	// declares: what a value of the type may be called through.
	viaIface map[types.Object][]types.Object
	inits    []types.Object // the init functions: roots, since a linked package runs them
	reached  map[types.Object]bool
	work     []types.Object
}

func newReachGraph(l *reachLoader) *reachGraph {
	return &reachGraph{l: l, edges: map[types.Object][]types.Object{},
		viaIface: map[types.Object][]types.Object{}, reached: map[types.Object]bool{},
		ifaces: []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
}

// origin maps an instantiated generic's member back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (g *reachGraph) inModule(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == g.l.modPath || strings.HasPrefix(p, g.l.modPath+"/")
}

func (g *reachGraph) node(obj types.Object, kind, name string, span ast.Node) {
	rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), g.l.modPath), "/")
	if rel != "" {
		name = kind + " " + rel + "." + name
	} else {
		name = kind + " " + name
	}
	lines := 0
	if span != nil {
		lines = g.l.fset.Position(span.End()).Line - g.l.fset.Position(span.Pos()).Line + 1
	}
	g.nodes = append(g.nodes, &reachNode{obj: obj, name: name, lines: lines})
}

// refs records an edge from each of froms to every module object the
// subtree mentions.
func (g *reachGraph) refs(info *types.Info, froms []types.Object, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := origin(info.Uses[id]); g.inModule(obj) {
			for _, from := range froms {
				g.edges[from] = append(g.edges[from], obj)
			}
		}
		return true
	})
}

// addPackage declares the package's nodes and the edges its declarations
// spell out, and collects the interfaces it and its imports name.
func (g *reachGraph) addPackage(p *reachPkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := p.info.Defs[d.Name]
				if obj == nil {
					continue
				}
				switch {
				case d.Recv != nil:
					g.node(obj, "method", recvString(d.Recv.List[0].Type)+"."+d.Name.Name, withDoc(d.Doc, d))
				case d.Name.Name == "init" || d.Name.Name == "_":
					g.inits = append(g.inits, obj)
				default:
					g.node(obj, "func", d.Name.Name, withDoc(d.Doc, d))
				}
				g.refs(p.info, []types.Object{obj}, d)
			case *ast.GenDecl:
				var lastValues []ast.Expr // an iota group repeats its first expression
				var lastType ast.Expr
				for _, spec := range d.Specs {
					var span ast.Node = spec // a spec of a group, or the whole declaration
					if !d.Lparen.IsValid() {
						span = withDoc(d.Doc, d)
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[s.Name]
						g.node(obj, "type", s.Name.Name, span)
						g.refs(p.info, []types.Object{obj}, s)
						if named, ok := obj.Type().(*types.Named); ok && !s.Assign.IsValid() {
							g.named = append(g.named, named)
						}
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
							if len(s.Values) == 0 {
								s = &ast.ValueSpec{Names: s.Names, Type: lastType, Values: lastValues}
							} else {
								lastValues, lastType = s.Values, s.Type
							}
						}
						var froms []types.Object
						for _, name := range s.Names {
							if name.Name == "_" {
								continue // a compile-time assertion keeps nothing alive
							}
							obj := p.info.Defs[name]
							g.node(obj, kind, name.Name, span)
							span = nil // the spec's lines are its first name's
							froms = append(froms, obj)
						}
						g.refs(p.info, froms, s.Type)
						for _, v := range s.Values {
							g.refs(p.info, froms, v)
						}
					}
				}
			}
		}
	}
	// Interfaces: the ones written in this package (named or literal) and the
	// exported ones of everything it imports, the standard library included —
	// a method that satisfies one may be called through it.
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			g.ifaces = append(g.ifaces, it)
		}
	}
	for _, imp := range p.pkg.Imports() {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					g.ifaces = append(g.ifaces, it)
				}
			}
		}
	}
}

// withDoc spans a declaration and its doc comment.
func withDoc(doc *ast.CommentGroup, n ast.Node) ast.Node {
	if doc == nil {
		return n
	}
	return docSpan{doc.Pos(), n.End()}
}

type docSpan struct{ from, to token.Pos }

func (d docSpan) Pos() token.Pos { return d.from }
func (d docSpan) End() token.Pos { return d.to }

func recvString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "(*" + strings.Trim(recvString(t.X), "()") + ")"
	case *ast.IndexExpr:
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

func (g *reachGraph) mark(obj types.Object) {
	obj = origin(obj)
	if obj == nil || g.reached[obj] || !g.inModule(obj) {
		return
	}
	g.reached[obj] = true
	g.work = append(g.work, obj)
}

// markUses marks every module object the checked files refer to, keeping
// only those keep admits.
func (g *reachGraph) markUses(info *types.Info, keep func(types.Object) bool) {
	for _, obj := range info.Uses {
		if obj = origin(obj); g.inModule(obj) && keep(obj) {
			g.mark(obj)
		}
	}
}

func (g *reachGraph) rootMains() {
	for _, p := range g.l.pkgs {
		if p.pkg.Name() == "main" {
			g.mark(p.pkg.Scope().Lookup("main"))
		}
	}
}

// rootExportedAPI marks what an importer of the root package can name: its
// exported declarations and the exported methods of its exported types,
// whichever package declares them (Record is dataset.Record).
func (g *reachGraph) rootExportedAPI(p *reachPkg, skip map[types.Object]bool) {
	if p == nil {
		return
	}
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || skip[obj] {
			continue
		}
		g.mark(obj)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			g.mark(named.Obj())
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !skip[m] {
					g.mark(m)
				}
			}
		}
	}
}

// rootBench type-checks bench/ (its own module, which imports only this one
// and the standard library) and marks everything it uses.
func (g *reachGraph) rootBench(dir string) error {
	if _, err := os.Stat(dir); err != nil {
		return nil
	}
	files, err := g.l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return err
	}
	before := len(g.l.errs)
	_, info := g.l.check(g.l.modPath+"/bench", files, true)
	if len(g.l.errs) > before {
		return fmt.Errorf("type-checking bench/: %v", g.l.errs[before])
	}
	g.markUses(info, func(types.Object) bool { return true })
	return nil
}

// rootTestSupport marks what the module's _test.go files use of the
// test-support packages, from outside them.
func (g *reachGraph) rootTestSupport(testDirs []string) error {
	support := func(obj types.Object) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), g.l.modPath), "/")
		return testSupport[rel]
	}
	for _, dir := range testDirs {
		rel, _ := filepath.Rel(g.l.root, dir)
		if testSupport[filepath.ToSlash(rel)] {
			continue
		}
		tests, err := g.l.parseDir(dir, isTestFile)
		if err != nil {
			return err
		}
		importsSupport := false
		for _, f := range tests {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if testSupport[strings.TrimPrefix(strings.TrimPrefix(p, g.l.modPath), "/")] {
					importsSupport = true
				}
			}
		}
		if !importsSupport {
			continue
		}
		path := g.l.modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		// In-package tests are checked with the package's own files, external
		// ones (package x_test) on their own.
		byPkg := map[string][]*ast.File{}
		for _, f := range tests {
			byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
		}
		for name, files := range byPkg {
			if !strings.HasSuffix(name, "_test") {
				if p := g.l.pkgs[path]; p != nil {
					files = append(append([]*ast.File{}, p.files...), files...)
				}
			}
			_, info := g.l.check(path+"#"+name, files, false)
			g.markUses(info, support)
		}
	}
	return nil
}

// methodsThroughInterfaces fills viaIface.
func (g *reachGraph) methodsThroughInterfaces() {
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		var T types.Type = named
		if named.TypeParams().Len() > 0 {
			continue // no generic type of the module has methods used through interfaces
		}
		ptr := types.NewPointer(T)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		names := map[string]bool{}
		for _, it := range g.ifaces {
			if it.NumMethods() == 0 || !(types.Implements(T, it) || types.Implements(ptr, it)) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); names[m.Name()] && g.inModule(m) {
				g.viaIface[named.Obj()] = append(g.viaIface[named.Obj()], origin(m))
			}
		}
	}
}

// flood marks everything reachable from what is marked. A reachable type
// brings in its methods that satisfy an interface — they may be called
// through it — and a reachable declaration whatever it mentions.
func (g *reachGraph) flood() {
	for len(g.work) > 0 {
		obj := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, to := range g.edges[obj] {
			g.mark(to)
		}
		for _, m := range g.viaIface[obj] {
			g.mark(m)
		}
	}
}

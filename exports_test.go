package fastbfs

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
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist holds the exported names of library packages that no
// non-test code references, each with the reason it stays. The census below
// fails on a dead export missing from this list and on an entry that is no
// longer dead (now referenced, or deleted), so the list can only shrink.
// Keys are the package path relative to the module, then the name, with a
// method as Type.Method: "graph.Graph.CountCrossRange".
var deadExportAllowlist = map[string]string{
	// Members of an enumerated set: the set is the API, not each value.
	"bfs.DirTopDown":   "one of the two bfs.Direction values in Result.Directions",
	"bfs.EncodingAuto": "the zero bfs.Encoding, named so callers can ask for the default",

	// Reserved in ROADMAP.md for planned work that will call them.
	"graph.ScramblePermutation":   "gives the benchmark's R-MAT Graph500's label permutation",
	"graph.Graph.CountCrossRange": "measures the remote-edge share of a 1-D cut for the cluster claim",
	"cluster/coord.NewShard":      "the single-replica shard of the cluster measurement harness",

	// Test APIs that tests of other packages call, so they cannot move
	// into an export_test.go file.
	"bfs.InAdjacencyCached":                "the transpose-lifecycle regression hook serve's durability tests read",
	"internal/core.DefaultConfig":          "the engine fixture of model's direction-replay test and validate's tests",
	"internal/core.Engine.Run":             "the background-context run model's direction-replay test and validate's tests call",
	"internal/faultinject.Plan.SetEnabled": "serve's chaos soak and coord's shard drills switch their plan off to read quiesced state",
	"internal/stats.Table.NumRows":         "the row count experiments' table-shape tests check",
}

// TestDeadExports type-checks every non-test file of the module and of the
// benchmark module (which imports it) and lists the exported funcs,
// methods, types, consts and vars of non-main packages that no non-test
// file references. A method also counts as used when its type satisfies an
// interface the program can call it through: a named interface of a
// checked or imported package, or the errors package's Unwrap/Is/As
// protocol. To keep a dead export, add it to deadExportAllowlist with a
// one-line reason.
func TestDeadExports(t *testing.T) {
	// The parsed standard library is garbage the moment it is checked; a
	// heap goal four times the live set cuts the census's CPU time by
	// about a third for about 150 MB of peak heap.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	c, err := newCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := make(map[string]bool)
	for _, name := range c.deadExports() {
		dead[name] = true
		if _, ok := deadExportAllowlist[name]; !ok {
			t.Errorf("dead export %s: no non-test code references it; delete it, or add it to deadExportAllowlist with a reason", name)
		}
	}
	var listed []string
	for name := range deadExportAllowlist {
		listed = append(listed, name)
	}
	sort.Strings(listed)
	for _, name := range listed {
		if !dead[name] {
			t.Errorf("stale allowlist entry %s: non-test code references it or it no longer exists; remove it from deadExportAllowlist", name)
		}
		if strings.TrimSpace(deadExportAllowlist[name]) == "" {
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

const modulePath = "fastbfs"

// census holds the type-checked non-test packages of the module and of the
// benchmark module, fastbfs/benchmark, which lives in the benchmark/
// directory of the same tree.
type census struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*checkedPkg // by import path
	order []*checkedPkg          // dependencies first
}

type checkedPkg struct {
	rel   string // directory relative to the module root
	types *types.Package
	uses  map[*ast.Ident]types.Object
	main  bool
}

// newCensus loads every package directory under root.
func newCensus(root string) (*census, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	c := &census{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*checkedPkg),
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modulePath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = c.load(importPath)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
	return c, err
}

// load parses and type-checks the package at importPath, loading the
// module packages it imports first. Files are chosen by their build
// constraints for this platform; standard packages come from the source
// importer.
func (c *census) load(importPath string) (*checkedPkg, error) {
	if p, ok := c.pkgs[importPath]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, modulePath), "/")
	dir := filepath.Join(c.root, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &checkedPkg{rel: rel, main: bp.Name == "main"}

	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
		if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
			return c.std.ImportFrom(path, srcDir, 0)
		}
		dep, err := c.load(path)
		if err != nil {
			return nil, err
		}
		return dep.types, nil
	})}
	if p.types, err = conf.Check(importPath, c.fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p.uses = info.Uses
	c.pkgs[importPath] = p
	c.order = append(c.order, p)
	return p, nil
}

type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}

// deadExports returns the allowlist key of every exported name of a
// non-main module package that no non-test file references, sorted.
func (c *census) deadExports() []string {
	used := make(map[types.Object]bool)
	for _, p := range c.order {
		for _, obj := range p.uses {
			used[origin(obj)] = true
		}
	}
	byMethod := c.interfacesByMethod()

	var dead []string
	for _, p := range c.order {
		if p.main {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				dead = append(dead, p.rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfiesAny(named, byMethod[m.Name()]) {
					dead = append(dead, p.rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfacesByMethod indexes, by method name, every interface the program
// can call a method through: each named interface of a checked package or
// of a package it imports, directly or not, and the errors package's
// protocol, whose interfaces are literals inside its function bodies.
func (c *census) interfacesByMethod() map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.order {
		visit(p.types)
	}
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	add(errType.Underlying().(*types.Interface))
	add(methodIface("Unwrap", nil, errType))
	add(methodIface("Unwrap", nil, types.NewSlice(errType)))
	add(methodIface("Is", errType, boolType))
	add(methodIface("As", anyType, boolType))
	return byMethod
}

// methodIface returns interface{ name(param) result }; a nil param means
// no parameter.
func methodIface(name string, param, result types.Type) *types.Interface {
	tuple := func(t types.Type) *types.Tuple {
		if t == nil {
			return nil
		}
		return types.NewTuple(types.NewParam(token.NoPos, nil, "", t))
	}
	sig := types.NewSignatureType(nil, nil, nil, tuple(param), tuple(result), false)
	it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil)
	it.Complete()
	return it
}

// satisfiesAny reports whether named or *named implements one of ifaces.
func satisfiesAny(named *types.Named, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

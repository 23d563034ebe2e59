package sosf

// The reachability gate: every function, method, type, constant and
// variable in the module, its examples and commands, and the benchmark
// module's non-test files must be referenced from some non-test file. API
// that only tests reach is deleted, or given a caller; there is no
// allowlist. The check type-checks everything with the standard library
// (go/build, go/parser, go/types and the "source" importer), so it runs
// without the go command and without a network.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestEveryIdentifierHasANonTestReference(t *testing.T) {
	dead, err := unreferenced(".", "sosf")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no reference outside _test.go files: delete it or give it a caller", d)
	}
}

// TestUnreferencedFindsPlantedIdentifiers guards the guard: a checker that
// silently reports nothing would pass the gate above.
func TestUnreferencedFindsPlantedIdentifiers(t *testing.T) {
	dead, err := unreferenced(filepath.Join("testdata", "unreferenced"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"fixture.(square).perimeter", "fixture.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("reported %q, want exactly %q", got, want)
	}
}

// deadIdent is one identifier with no non-test reference.
type deadIdent struct {
	name string // import path, receiver and name: "sosf/x.(*T).m"
	pos  token.Position
}

func (d deadIdent) String() string { return fmt.Sprintf("%s (%s)", d.name, d.pos) }

// unreferenced type-checks every package under root (module path mod),
// leaving out _test.go files and testdata, hidden and "_" directories, and
// returns, sorted by name, each package-level function, type, constant and
// variable (init functions are not package-level objects) and each method that no non-test code references outside its
// own declaration. Exempt are the exported API of the root package (unless
// it is a command), main, _, struct fields, and methods that
// implement an interface declared in the module or in a standard package
// it imports. An interface's own methods are its contract, not API of
// their own, and are not checked.
func unreferenced(root, mod string) ([]deadIdent, error) {
	// The source importer reads build.Default; with cgo off it type-checks
	// the pure-Go variants and never runs the cgo tool.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()

	l := &loader{
		fset: token.NewFileSet(),
		root: root,
		mod:  mod,
		pkgs: map[string]*loadedPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)

	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := mod
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if bp, err := l.build(path); err == nil && len(bp.GoFiles) > 0 {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := l.check(path); err != nil {
			return nil, err
		}
	}
	return l.report(), nil
}

type loadedPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks the module's packages from source, with bodies, and
// hands every other import to the standard library's source importer.
type loader struct {
	fset      *token.FileSet
	root, mod string
	std       types.ImporterFrom
	pkgs      map[string]*loadedPkg // nil while being checked
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// build lists the non-test files of the module package at path.
func (l *loader) build(path string) (*build.Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
	bp, err := build.ImportDir(filepath.Join(l.root, filepath.FromSlash(rel)), 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return &build.Package{}, nil
	}
	return bp, err
}

func (l *loader) check(path string) (*loadedPkg, error) {
	if p, seen := l.pkgs[path]; seen {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	bp, err := l.build(path)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// report returns every identifier unreferenced promises to find, once all
// packages are checked.
func (l *loader) report() []deadIdent {
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std := map[*types.Package]bool{}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			collectUses(f, p.info, used)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(p.info.Types[it].Type.(*types.Interface))
				}
				return true
			})
		}
		for _, imp := range p.types.Imports() {
			if l.pkgs[imp.Path()] == nil && !std[imp] {
				std[imp] = true
				scope := imp.Scope()
				for _, name := range scope.Names() {
					if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
						addIface(tn.Type().Underlying().(*types.Interface))
					}
				}
			}
		}
	}
	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var dead []deadIdent
	report := func(name string, obj types.Object) {
		dead = append(dead, deadIdent{name: name, pos: l.fset.Position(obj.Pos())})
	}
	for path, p := range l.pkgs {
		api := path == l.mod && p.types.Name() != "main"
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] && name != "_" && name != "main" && !(api && obj.Exported()) {
				report(path+"."+name, obj)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj || types.IsInterface(named) {
				continue // not a declared type, an alias, or an interface
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if used[m] || (api && m.Exported()) || implements(m) {
					continue
				}
				recv := "(" + name + ")"
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + name + ")"
				}
				report(path+"."+recv+"."+m.Name(), m)
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}

// collectUses marks every object f refers to, except references from
// inside the object's own declaration and a method's receiver type.
func collectUses(f *ast.File, info *types.Info, used map[types.Object]bool) {
	mark := func(n ast.Node, owners ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			for _, owner := range owners {
				if obj == owner {
					return true
				}
			}
			if obj != nil {
				used[obj] = true
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			mark(d.Type, info.Defs[d.Name])
			if d.Body != nil {
				mark(d.Body, info.Defs[d.Name])
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					mark(s, info.Defs[s.Name])
				case *ast.ValueSpec:
					var owners []types.Object
					for _, name := range s.Names {
						owners = append(owners, info.Defs[name])
					}
					mark(s, owners...)
				}
			}
		}
	}
}

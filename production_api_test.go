package lelantus

import (
	"go/ast"
	"go/build"
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

// testOnlyAllowlist names the non-test functions that only tests call and
// that stay anyway: a test in another package needs each one and no
// production path yields the same value. The value names that test.
var testOnlyAllowlist = map[string]string{
	"(*lelantus/internal/faultinject.Plane).HitsAfterCrash": "internal/sim TestCrashStopsTheMachine, TestGoldenCrashesStopTheMachine",
	"(*lelantus/internal/faultinject.Plane).PointHits":      "internal/sim TestCrashPointsFidelityEquivalent",
	"(*lelantus/internal/mem.Allocator).InUse":              "internal/kernel TestFrameAccountingAcrossExit, TestMunmapFreesFrames, TestPropertyForkTreeTransparency",
}

// TestProductionAPIHasProductionCallers type-checks the module and the
// perfbench module and fails on any non-test function or method that no
// non-test code calls, so code only tests reach does not come back. See
// unreached for what is exempt.
func TestProductionAPIHasProductionCallers(t *testing.T) {
	l := newLoader()
	dead, err := l.unreached(".", "lelantus")
	if err != nil {
		t.Fatal(err)
	}
	allowed := 0
	for _, name := range dead {
		if _, ok := testOnlyAllowlist[name]; ok {
			allowed++
			continue
		}
		t.Errorf("%s has no caller outside tests: delete it, or read its value in tests through what production calls", name)
	}
	if allowed != len(testOnlyAllowlist) {
		t.Errorf("%d of %d allowlist entries are stale: gone, or called by production code (flagged: %v)", len(testOnlyAllowlist)-allowed, len(testOnlyAllowlist), dead)
	}
}

// TestProductionAPIGuardFires runs the guard on the planted package
// testdata/dead: the function with no caller and the one that only calls
// itself are flagged, the callee and the fmt.Stringer method are not.
func TestProductionAPIGuardFires(t *testing.T) {
	dead, err := newLoader().unreached("testdata", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(dead, " "), "fixture/dead.Planted fixture/dead.Recursive"; got != want {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}

// loader type-checks a tree of packages from source, sharing one
// type-checked copy of each package so that a use in one package and the
// declaration in another resolve to the same object.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil)}
}

// Import resolves the tree's own packages to their shared copies and the
// standard library through the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// parse reads every directory under root whose non-test files build, with
// import paths under modPath. A nested go.mod starts its own module path;
// testdata and dot directories are skipped.
func (l *loader) parse(root, modPath string) error {
	l.pkgs = map[string]*loadedPkg{}
	mods := map[string]string{}
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		path := modPath
		if dir != root {
			path = mods[filepath.Dir(dir)] + "/" + name
			if m, ok := goModPath(filepath.Join(dir, "go.mod")); ok {
				path = m
			}
		}
		mods[dir] = path
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &loadedPkg{}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		l.pkgs[path] = p
		return nil
	})
}

// goModPath reads the module path a go.mod declares.
func goModPath(file string) (string, bool) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), true
		}
	}
	return "", false
}

// unreached type-checks the tree under root and returns, sorted by full
// name, every function and method its non-test code declares and no
// non-test code outside the function's own body uses. Exempt are entry
// points (main, init), the root package's exported API and the exported
// methods of the types it aliases, the test-support package
// internal/sim/simtest, and methods that let their receiver satisfy an
// interface declared in the tree or one of the standard interfaces
// below, since callers reach those through the interface.
func (l *loader) unreached(root, modPath string) ([]string, error) {
	if err := l.parse(root, modPath); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, std := range []struct{ pkg, name string }{
		{"fmt", "Stringer"}, {"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
		{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"}, {"flag", "Value"},
	} {
		p, err := l.std.Import(std.pkg)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	aliased := map[*types.TypeName]bool{}
	for _, path := range paths {
		scope := l.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() {
				ifaces = append(ifaces, it)
			}
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && tn.IsAlias() && path == modPath {
				aliased[n.Obj()] = true
			}
		}
	}

	used := map[*types.Func]bool{}
	var declared []*types.Func
	for _, path := range paths {
		p := l.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name].(*types.Func)
					declared = append(declared, self)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var dead []string
	for _, fn := range declared {
		if used[fn] || exempt(fn, modPath, aliased, ifaces) {
			continue
		}
		dead = append(dead, fn.FullName())
	}
	sort.Strings(dead)
	return dead, nil
}

func exempt(fn *types.Func, modPath string, aliased map[*types.TypeName]bool, ifaces []*types.Interface) bool {
	path := fn.Pkg().Path()
	if path == modPath+"/internal/sim/simtest" || fn.Name() == "init" || (fn.Name() == "main" && fn.Pkg().Name() == "main") {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return path == modPath && fn.Exported()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if aliased[named.Obj()] && fn.Exported() {
		return true
	}
	for _, it := range ifaces {
		if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

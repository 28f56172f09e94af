package simba_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestDesignNamesWhatExists keeps DESIGN.md a description of this tree:
// every Test…/Fuzz…/Example… identifier it cites in backticks must be a
// func in some *_test.go under the repository (benchmark/ included) —
// and a cited `Test…/<row>` a table row: the file defining the func
// holds "<row>" as a string literal —
// every identifier in §8's file map must be declared where the map says
// (checkHubFileMap), no production file of internal/hub may grow past
// the size one stage of the alert path needs, and DESIGN.md itself stays
// within 40 KiB.
func TestDesignNamesWhatExists(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const maxDesignBytes = 40 << 10
	if len(design) > maxDesignBytes {
		t.Errorf("DESIGN.md is %d bytes, over %d: describe what is, and move history to docs/measurements/", len(design), maxDesignBytes)
	}
	const maxLines = 600
	defined := make(map[string][]byte) // func name → the source of the file defining it
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && !strings.HasPrefix(filepath.ToSlash(path), "internal/hub/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if isTest {
			for _, m := range funcRE.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = src
			}
		} else if n := bytes.Count(src, []byte("\n")); n > maxLines {
			t.Errorf("%s has %d lines, over %d: split it by stage", path, n, maxLines)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`((?:Test|Fuzz|Example)[A-Z]\\w*)(?:/(\\w+))?`").FindAllSubmatch(design, -1)
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no test: the guarantees in §8 name their guards")
	}
	for _, m := range cited {
		name, row := string(m[1]), m[2]
		src, ok := defined[name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md cites `%s`, which no *_test.go defines", name)
		case row != nil && !bytes.Contains(src, []byte(`"`+string(row)+`"`)):
			t.Errorf("DESIGN.md cites `%s/%s`, but the file defining %s has no \"%s\" row", name, row, name, row)
		}
	}
	checkHubFileMap(t, string(design))
}

// checkHubFileMap holds DESIGN §8's `| file | stage |` table to the
// code: every backticked Go identifier in a row's stage column — a name,
// or Type.Method — must be declared as a func, method, type or const in
// one of the internal/hub files the row's file column names.
func checkHubFileMap(t *testing.T, design string) {
	_, sec, _ := strings.Cut(design, "\n## 8.")
	_, table, found := strings.Cut(sec, "\n| file | stage |\n")
	if !found {
		t.Fatal("DESIGN.md §8 has no `| file | stage |` table")
	}
	tick := regexp.MustCompile("`([^`]+)`")
	ident := regexp.MustCompile(`^([A-Za-z_]\w*\.)?[A-Za-z_]\w*$`)
	rows := 0
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the |---| rule
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 4 {
			break
		}
		rows++
		declared := make(map[string]bool)
		for _, f := range tick.FindAllStringSubmatch(cells[1], -1) {
			hubDecls(t, filepath.Join("internal", "hub", f[1]), declared)
		}
		for _, m := range tick.FindAllStringSubmatch(cells[2], -1) {
			if ident.MatchString(m[1]) && !declared[m[1]] {
				t.Errorf("DESIGN.md §8 maps `%s` to %s, which declares no such func, method, type or const",
					m[1], strings.TrimSpace(cells[1]))
			}
		}
	}
	if rows == 0 {
		t.Fatal("DESIGN.md §8's file table has no rows")
	}
}

// hubDecls adds the top-level funcs, types and consts of the Go file at
// path to into, and each method both bare and as Type.Method.
func hubDecls(t *testing.T, path string, into map[string]bool) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Errorf("DESIGN.md §8 file table: %v", err)
		return
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			into[d.Name.Name] = true
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					into[id.Name+"."+d.Name.Name] = true
				}
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST {
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					into[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						into[n.Name] = true
					}
				}
			}
		}
	}
}

// TestEveryExportedKnobHasACaller keeps the hub's exported knobs to
// those something uses: every exported field of hub.Config and
// hub.SuperviseConfig must be set in a non-test file outside
// internal/hub (benchmark/ included), as a key of a hub.Config{…} or
// hub.SuperviseConfig{…} literal or by an x.Field = … assignment. A
// knob only the hub's own tests set is a package-private field.
func TestEveryExportedKnobHasACaller(t *testing.T) {
	structs := []string{"Config", "SuperviseConfig"}
	exported := make(map[string][]string) // struct → its exported fields
	set := make(map[string]bool)          // "Struct.Field" keyed in a literal, or ".Field" assigned
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir+"/", "internal/hub/") {
			if dir == "internal/hub" {
				hubFields(f, structs, exported)
			}
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, _ := sel.X.(*ast.Ident); pkg == nil || pkg.Name != "hub" {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[sel.Sel.Name+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set["."+sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range structs {
		if len(exported[s]) == 0 {
			t.Fatalf("internal/hub declares no struct %s with exported fields", s)
		}
		for _, field := range exported[s] {
			if !set[s+"."+field] && !set["."+field] {
				t.Errorf("hub.%s.%s is exported, but no non-test file outside internal/hub sets it: make it package-private", s, field)
			}
		}
	}
}

// TestNoHandRolledSimDriver keeps one way to move simulated time: no
// function outside internal/clock calls both a Sim's Advance (or
// AdvanceTo) and time.Sleep. A loop that advances and then sleeps a
// blind real-time slice lets virtual time run ahead of a goroutine the
// slice was too short for; clock.Sim's Step, RunFor, RunUntil and Drive
// wait until the woken goroutines have parked instead.
func TestNoHandRolledSimDriver(t *testing.T) {
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || filepath.ToSlash(path) == "internal/clock" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			advances, sleeps := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					pkg, _ := sel.X.(*ast.Ident)
					advances = advances || sel.Sel.Name == "Advance" || sel.Sel.Name == "AdvanceTo"
					sleeps = sleeps || sel.Sel.Name == "Sleep" && pkg != nil && pkg.Name == "time"
				}
				return true
			})
			if advances && sleeps {
				sites = append(sites, fmt.Sprintf("%s (%s)", fset.Position(fn.Pos()), fn.Name.Name))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Errorf("%d functions advance a clock.Sim and sleep in real time; drive it with Sim.Step, RunFor, RunUntil or Drive:\n\t%s",
			len(sites), strings.Join(sites, "\n\t"))
	}
}

// hubFields adds the exported fields of f's struct types named in
// structs to into.
func hubFields(f *ast.File, structs []string, into map[string][]string) {
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.TYPE {
			continue
		}
		for _, s := range g.Specs {
			ts := s.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !slices.Contains(structs, ts.Name.Name) {
				continue
			}
			for _, fld := range st.Fields.List {
				for _, n := range fld.Names {
					if n.IsExported() {
						into[ts.Name.Name] = append(into[ts.Name.Name], n.Name)
					}
				}
			}
		}
	}
}

// TestEveryExportedNameHasACaller keeps the module's exported surface to
// what something uses. It type-checks every package of this module and
// of benchmark/ with go/types, then fails on
//   - an exported package-level name that no non-test .go file uses — in
//     the root package a testable Example counts too, because the façade
//     is the paper's SIMBA library — and
//   - an exported method of an exported type that nothing calls, tests
//     included, unless the type implements an interface the module
//     declares or imports that declares the method (String,
//     MarshalXMLAttr, Error, …).
//
// A use inside the name's own declaration, or in a method of the named
// type, does not count.
func TestEveryExportedNameHasACaller(t *testing.T) {
	allow := map[string]string{
		"simba/internal/race.Enabled":        "build-tag constant that only tests read",
		"simba/internal/faults.RandomEvents": "fault timeline that faults' and harness' tests share: a _test.go file exports nothing",
	}
	start := time.Now()
	l, err := loadModule(map[string]string{".": "simba", "benchmark": "simba/benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool) // "pkg.Name" of package-level names, "pkg.Type.Method" of methods
	paths := slices.Sorted(maps.Keys(l.dirs))
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
		recordUses(used, l.files[path], l.infos[path], func(ast.Decl) bool { return true })
	}
	for _, path := range paths {
		bp := l.dirs[path]
		under := l.checked[path] // what the external tests import: with the in-package tests, if any
		if len(bp.TestGoFiles) > 0 {
			files, info, pkg, err := l.check(path, bp.Dir, slices.Concat(bp.GoFiles, bp.TestGoFiles), l)
			if err != nil {
				t.Fatal(err)
			}
			recordUses(used, files, info, func(ast.Decl) bool { return false })
			under = pkg
		}
		if len(bp.XTestGoFiles) == 0 {
			continue
		}
		files, info, _, err := l.check(path+"_test", bp.Dir, bp.XTestGoFiles, importerFunc(func(p string) (*types.Package, error) {
			if p == path {
				return under, nil
			}
			return l.Import(p)
		}))
		if err != nil {
			t.Fatal(err)
		}
		testable := make(map[string]bool)
		if path == "simba" {
			for _, ex := range doc.Examples(files...) {
				testable["Example"+ex.Name] = ex.Output != "" || ex.EmptyOutput
			}
		}
		recordUses(used, files, info, func(d ast.Decl) bool {
			fd, ok := d.(*ast.FuncDecl)
			return ok && fd.Recv == nil && testable[fd.Name.Name]
		})
	}
	ifaces := l.interfaces()
	for _, path := range paths {
		if strings.HasPrefix(path, "simba/benchmark") {
			continue
		}
		scope := l.checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			var unused []string
			if key := path + "." + name; !used[key] {
				unused = append(unused, key)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for m := range named.Methods() {
					if key := methodKey(m); m.Exported() && !used[key] && !satisfies(named, m.Name(), ifaces) {
						unused = append(unused, key)
					}
				}
			}
			for _, key := range unused {
				if _, ok := allow[key]; ok {
					delete(allow, key)
				} else {
					t.Errorf("%s is exported, but nothing uses it: delete it (or unexport it)", key)
				}
			}
		}
	}
	for key := range allow {
		t.Errorf("allowlist entry %s names nothing unused: drop it", key)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the scan took %v, over 10s", d)
	}
}

// recordUses adds to used every exported method the files use, and
// every exported package-level name used inside a declaration that
// counts accepts. A declaration's use of what it declares — for a
// method, its receiver's type — does not count.
func recordUses(used map[string]bool, files []*ast.File, info *types.Info, counts func(ast.Decl) bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			self, pkgLevel := declares(d, info), counts(d)
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil || obj.Pkg() == nil || !obj.Exported() || self[obj] {
					return true
				}
				if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
					used[methodKey(fn)] = true
				} else if pkgLevel && obj.Parent() == obj.Pkg().Scope() {
					used[obj.Pkg().Path()+"."+obj.Name()] = true
				}
				return true
			})
		}
	}
}

// declares returns the objects the top-level declaration d declares,
// or for a method its receiver's type.
func declares(d ast.Decl, info *types.Info) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn, ok := info.Defs[d.Name].(*types.Func)
		if !ok { // a blank func
			break
		}
		if recv := fn.Signature().Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok {
				self[named.Obj()] = true
			}
		} else {
			self[fn] = true
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
		}
	}
	return self
}

// methodKey names a method pkg.Type.Method.
func methodKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := deref(fn.Signature().Recv().Type())
	if named, ok := recv.(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + ".(interface)." + fn.Name()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// satisfies reports whether T or *T implements one of ifaces that
// declares a method called name.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == name && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// modLoader type-checks the packages under a set of module roots from
// source, and imports everything else from the compiler's export data.
type modLoader struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]*build.Package // import path → its files, build tags applied
	checked map[string]*types.Package // non-test packages, by import path
	files   map[string][]*ast.File
	infos   map[string]*types.Info
}

// loadModule finds the packages under each root directory, keyed by the
// directory's import path, and the export data of every other package
// they import, which one `go list -export` finds (building it into the
// cache if need be).
func loadModule(roots map[string]string) (*modLoader, error) {
	l := &modLoader{
		fset:    token.NewFileSet(),
		dirs:    make(map[string]*build.Package),
		checked: make(map[string]*types.Package),
		files:   make(map[string][]*ast.File),
		infos:   make(map[string]*types.Info),
	}
	for dir, path := range roots {
		if err := l.scan(dir, path); err != nil {
			return nil, err
		}
	}
	var others []string
	for _, bp := range l.dirs {
		for _, p := range slices.Concat(bp.Imports, bp.TestImports, bp.XTestImports) {
			if _, mod := l.dirs[p]; !mod && !slices.Contains(others, p) {
				others = append(others, p)
			}
		}
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, others...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return l, nil
}

// scan records every package directory under dir, whose import path is
// path; it skips hidden directories, testdata and nested modules.
func (l *modLoader) scan(dir, path string) error {
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		l.dirs[strings.TrimSuffix(path+"/"+filepath.ToSlash(rel), "/.")] = bp
		return nil
	})
}

// Import type-checks a module package's non-test files once, and
// imports any other package from its export data.
func (l *modLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	bp, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	files, info, pkg, err := l.check(path, bp.Dir, bp.GoFiles, l)
	if err != nil {
		return nil, err
	}
	l.checked[path], l.files[path], l.infos[path] = pkg, files, info
	return pkg, nil
}

// check parses the named files of dir and type-checks them as package
// path.
func (l *modLoader) check(path, dir string, names []string, imp types.Importer) ([]*ast.File, *types.Info, *types.Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Defs: make(map[*ast.Ident]types.Object)}
	pkg, err := (&types.Config{Importer: imp}).Check(path, l.fset, files, info)
	return files, info, pkg, err
}

// interfaces returns every non-generic named interface that the
// module's packages declare or import, transitively, and error.
func (l *modLoader) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				named, _ := tn.Type().(*types.Named)
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && named != nil && named.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.checked {
		walk(p)
	}
	return ifaces
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

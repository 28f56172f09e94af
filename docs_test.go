package simba_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
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

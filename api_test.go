package authtext_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedSurfaceGolden pins the facade's exported surface — every
// exported function, method, type, struct field, constant and variable of
// the root package — against testdata/api.txt, so growth (or shrinkage) of
// the facade is a reviewed diff instead of a side effect. Methods of
// unexported types count when an exported struct embeds the type, because
// they are promoted onto it. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestExportedSurfaceGolden . — and say why in the commit.
func TestExportedSurfaceGolden(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []ast.Decl
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, file.Decls...)
	}

	// baseName strips pointers and type arguments: *T[A, B] → T.
	var baseName func(ast.Expr) string
	baseName = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.StarExpr:
			return baseName(e.X)
		case *ast.IndexExpr:
			return baseName(e.X)
		case *ast.IndexListExpr:
			return baseName(e.X)
		case *ast.Ident:
			return e.Name
		}
		return ""
	}
	// visible: exported types, plus (to a fixpoint) the types they embed.
	structs := map[string]*ast.StructType{}
	visible := map[string]bool{}
	for _, decl := range decls {
		if gen, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gen.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					visible[ts.Name.Name] = ts.Name.IsExported()
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[ts.Name.Name] = st
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name, st := range structs {
			for _, f := range st.Fields.List {
				if embedded := baseName(f.Type); visible[name] && len(f.Names) == 0 && !visible[embedded] {
					visible[embedded], changed = true, true
				}
			}
		}
	}

	var lines []string
	for _, decl := range decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
			if d.Recv == nil {
				lines = append(lines, "func "+d.Name.Name+sig)
			} else if recv := d.Recv.List[0].Type; visible[baseName(recv)] {
				lines = append(lines, "method ("+types.ExprString(recv)+") "+d.Name.Name+sig)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					st, isStruct := s.Type.(*ast.StructType)
					if !isStruct {
						lines = append(lines, "type "+s.Name.Name+" "+types.ExprString(s.Type))
						continue
					}
					lines = append(lines, "type "+s.Name.Name+" struct")
					for _, f := range st.Fields.List {
						if len(f.Names) == 0 {
							lines = append(lines, "field "+s.Name.Name+" embeds "+types.ExprString(f.Type))
						}
						for _, n := range f.Names {
							if n.IsExported() {
								lines = append(lines, "field "+s.Name.Name+"."+n.Name+" "+types.ExprString(f.Type))
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							lines = append(lines, strings.ToLower(d.Tok.String())+" "+n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "api.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 once): %v", err)
	}
	if got != string(want) {
		wantSet := map[string]bool{}
		for _, l := range strings.Split(string(want), "\n") {
			wantSet[l] = true
		}
		for _, l := range lines {
			if !wantSet[l] {
				t.Errorf("not in %s: %s", golden, l)
			}
			delete(wantSet, l)
		}
		for l := range wantSet {
			if l != "" {
				t.Errorf("gone from the package: %s", l)
			}
		}
		t.Fatalf("exported surface differs from %s (UPDATE_GOLDEN=1 regenerates it)", golden)
	}
}

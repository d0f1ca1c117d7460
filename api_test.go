package authtext_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"
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

// apiEntry is one line of testdata/api.txt: its kind (func, method, type,
// var, const, field or embed) and the name code spells it by — Name, or
// Type.Member for methods, fields and embedded types.
type apiEntry struct{ kind, name, line string }

// parseAPI parses the lines of testdata/api.txt, which
// TestExportedSurfaceGolden keeps equal to the package.
func parseAPI(data string) []apiEntry {
	ident := func(s string) string { // leading identifier of s
		end := strings.IndexFunc(s, func(r rune) bool { return !(r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)) })
		if end < 0 {
			return s
		}
		return s[:end]
	}
	var api []apiEntry
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		kind, rest, _ := strings.Cut(line, " ")
		e := apiEntry{kind: kind, line: line}
		switch kind {
		case "method": // method (*T) M(...)
			recv, sig, _ := strings.Cut(strings.TrimPrefix(rest, "("), ") ")
			e.name = ident(strings.TrimPrefix(recv, "*")) + "." + ident(sig)
		case "field": // field T.F type, or field T embeds *U
			name, typ, _ := strings.Cut(rest, " ")
			if embedded, ok := strings.CutPrefix(typ, "embeds "); ok {
				e.kind, e.name = "embed", name+"."+ident(strings.TrimLeft(embedded, "*"))
			} else {
				e.name = name
			}
		default:
			e.name = ident(rest)
		}
		api = append(api, e)
	}
	return api
}

func readAPI(t *testing.T) []apiEntry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return parseAPI(string(data))
}

// uncalledNames returns the funcs, methods, types, vars and consts of api
// that no non-test Go file under root, outside root's own package, calls:
//   - a func, type, var or const is called when authtext.Name appears in a
//     file importing authtext;
//   - a method is called when .Name is selected on anything in such a file,
//     so a method whose name is selected for another type escapes the scan;
//   - a type is also called when the api.txt line of a called name
//     mentions it.
//
// files counts the files scanned. The scan is syntactic: type-checking the
// tree costs seconds.
func uncalledNames(root string, api []apiEntry) (uncalled []string, files int, err error) {
	pkgSel, memberSel := map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Dir(path) == root || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range file.Imports {
			if imp.Path.Value == `"authtext"` {
				pkg = "authtext"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					pkgSel[sel.Sel.Name] = true
				} else {
					memberSel[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, files, err
	}

	audited := map[string]apiEntry{}
	called := map[string]bool{}
	for _, e := range api {
		switch e.kind {
		case "method":
			_, method, _ := strings.Cut(e.name, ".")
			audited[e.name], called[e.name] = e, memberSel[method]
		case "func", "type", "var", "const":
			audited[e.name], called[e.name] = e, pkgSel[e.name]
		}
	}
	identRE := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	for changed := true; changed; {
		changed = false
		for name, ok := range called {
			if !ok {
				continue
			}
			for _, id := range identRE.FindAllString(audited[name].line, -1) {
				if e, ok := audited[id]; ok && e.kind == "type" && !called[id] {
					called[id], changed = true, true
				}
			}
		}
	}
	for name, ok := range called {
		if !ok {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	return uncalled, files, nil
}

// allowlistFindings reports every uncalled name missing from allow, and
// every entry of allow that is called or no longer in api.
func allowlistFindings(api []apiEntry, uncalled []string, allow map[string]string) []string {
	var findings []string
	isUncalled := map[string]bool{}
	for _, name := range uncalled {
		isUncalled[name] = true
		if _, ok := allow[name]; !ok {
			findings = append(findings, name+" has no caller outside the root package's tests: call it, delete it, or allowlist it with a reason")
		}
	}
	exported := map[string]bool{}
	for _, e := range api {
		exported[e.name] = true
	}
	for name := range allow {
		switch {
		case !exported[name]:
			findings = append(findings, "allowlist entry "+name+" is no longer exported: drop it")
		case !isUncalled[name]:
			findings = append(findings, "allowlist entry "+name+" is called now: drop it")
		}
	}
	sort.Strings(findings)
	return findings
}

// TestExportedNamesHaveCallers audits the facade for names nothing uses: a
// func, method, type, var or const of testdata/api.txt must be called from
// a non-test Go file outside the root package — a command, an example, the
// benchmark or an internal package — or sit in the allowlist below with the
// reason it stays. An allowlist entry that is called, or no longer
// exported, fails too.
func TestExportedNamesHaveCallers(t *testing.T) {
	const freshness = "the freshness item decides its fate"
	const outOfBand = "the out-of-band trust path, docs/PROTOCOL.md"
	const boost = "§5 boost with caller-supplied scores"
	allow := map[string]string{
		"FleetClient":                   freshness,
		"NewFleetClient":                freshness,
		"FleetOption":                   freshness,
		"WithFleetLagTolerance":         freshness,
		"WithFleetRemoteOptions":        freshness,
		"FleetClient.CrossCheck":        freshness,
		"CrossCheckReport":              freshness,
		"ReplicaStatus":                 freshness,
		"ErrEquivocation":               freshness,
		"WithClientExport":              outOfBand,
		"NewClientFromExport":           outOfBand,
		"Client.AdvanceExport":          outOfBand,
		"WithAuthority":                 boost,
		"LiveOwner.UpdateWithAuthority": boost,
		"Frontend.ServeHTTP":            "http.Handler",
		"ErrVariantNotBuilt":            "the sentinel a caller matches with errors.Is, README.md",
		"LiveOwner.Handles":             "names the current corpus for Update's removals",
		"Server.SetMetrics":             "the registry half of a caller-held server, beside Server.SetVOCache",
		"VOCacheStats.HitRate":          "the hit_rate healthz reports, for a caller of VOCache.Stats",
	}
	api := readAPI(t)
	uncalled, files, err := uncalledNames(".", api)
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Fatalf("only %d files outside the root package import authtext; the scan is probably wrong", files)
	}
	for _, f := range allowlistFindings(api, uncalled, allow) {
		t.Error(f)
	}

	t.Run("synthetic tree", func(t *testing.T) {
		root := t.TempDir()
		src := "package p\n\nimport at \"authtext\"\n\nvar _ = at.New(nil).Run\n"
		for name, body := range map[string]string{
			"root.go":         "package authtext\n\nvar _ = Unused\n",
			"cmd/p/p.go":      src,
			"cmd/p/p_test.go": "package p\n\nimport \"authtext\"\n\nvar _ = authtext.TestOnly\n",
		} {
			path := filepath.Join(root, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		api := parseAPI(strings.Join([]string{
			"func New(opts []Opt) *T", "func TestOnly()", "func Unused()",
			"method (*T) Run()", "method (*T) Stop()",
			"type Opt int", "type T struct", "type Lone int", "field T.F Lone",
		}, "\n"))
		uncalled, files, err := uncalledNames(root, api)
		if err != nil {
			t.Fatal(err)
		}
		if want := "Lone T.Stop TestOnly Unused"; files != 1 || strings.Join(uncalled, " ") != want {
			t.Fatalf("scanned %d files, uncalled %q; want 1 file, uncalled %q", files, uncalled, want)
		}
		got := allowlistFindings(api, uncalled, map[string]string{"Lone": "r", "T.Stop": "r", "Unused": "r", "New": "r", "Gone": "r"})
		want := []string{
			"TestOnly has no caller outside the root package's tests: call it, delete it, or allowlist it with a reason",
			"allowlist entry Gone is no longer exported: drop it",
			"allowlist entry New is called now: drop it",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("findings %q, want %q", got, want)
		}
	})
}

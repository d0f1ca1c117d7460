package authtext_test

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"authtext/internal/fleet"
	"authtext/internal/httpapi"
)

// Documentation checks: the docs are part of the product (ARCHITECTURE.md
// is the entry point and links into every subsystem spec), so broken
// intra-repo links and Go snippets that no longer parse fail the build
// like any other regression. CI runs these in the docs job.

// docFiles returns every tracked markdown file in the repo root, docs/
// and examples/.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md", "examples/*.md", "examples/*/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 8 {
		t.Fatalf("found only %d markdown files; the glob set is probably wrong: %v", len(files), files)
	}
	return files
}

var markdownLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinksResolve verifies that every relative markdown link in the
// documentation points at a file that exists in the repository.
func TestDocsLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link (%s) does not resolve: %v", file, m[1], err)
			}
		}
	}
}

var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

// TestDocsGoSnippets runs every ```go block in the documentation through
// gofmt's parser, so API drift in the docs' code samples fails loudly.
// Blocks using prose ellipses ("...", "…") are deliberately abridged and
// are skipped.
func TestDocsGoSnippets(t *testing.T) {
	snippets := 0
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range goFence.FindAllStringSubmatch(string(raw), -1) {
			src := m[1]
			if strings.Contains(src, "...") || strings.Contains(src, "…") {
				continue
			}
			snippets++
			// format.Source accepts a full file or a declaration/statement
			// list — exactly the two shapes doc snippets take.
			if _, err := format.Source([]byte(src)); err != nil {
				t.Errorf("%s: go snippet %d does not parse: %v\n%s", file, i+1, err, src)
			}
		}
	}
	if snippets == 0 {
		t.Fatal("no Go snippets found in the docs; the fence regexp is probably wrong")
	}
}

var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// historyFiles are the per-PR workflow and history files: prose about the
// past, absent from a tree between PRs, and so exempt from the checks on
// current prose below.
var historyFiles = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}

// missingCommentDocs walks the Go files under root and reports every
// markdown file a comment sends its reader to that does not exist: at the
// path as written (from root or the file's own directory) or, for a bare
// name, under docs/. The history files may be named whether or not they are
// there. checked counts the names it looked at.
func missingCommentDocs(root string) (missing []string, checked int, err error) {
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, name := range mdName.FindAllString(comment, -1) {
				checked++
				found := historyFiles[name]
				for _, base := range []string{root, filepath.Dir(path), filepath.Join(root, "docs")} {
					if _, err := os.Stat(filepath.Join(base, filepath.FromSlash(name))); err == nil {
						found = true
					}
				}
				if !found {
					missing = append(missing, fmt.Sprintf("%s:%d: comment names %s, which does not exist", path, i+1, name))
				}
			}
		}
		return nil
	})
	return missing, checked, err
}

// TestGoCommentsNameExistingDocs verifies that every markdown file a Go
// comment sends its reader to exists.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	missing, checked, err := missingCommentDocs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
	if checked < 20 {
		t.Fatalf("only %d markdown names found in Go comments; the regexp is probably wrong", checked)
	}

	// A tree between PRs has no ISSUE.md (nor need it have the other history
	// files): naming them is fine, naming any other absent file is not.
	t.Run("tree without the history files", func(t *testing.T) {
		root := t.TempDir()
		// (Spelled so that this file's own comment scan does not read the names.)
		slashes, md := "/"+"/", ".m"+"d"
		src := "package p\n\n" + slashes + " See ISSUE" + md + ", CHANGES" + md + " and ROADMAP" + md +
			"; the spec is docs/SPEC" + md + ",\n" + slashes + " not docs/GONE" + md + ".\n"
		if err := os.MkdirAll(filepath.Join(root, "docs"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string]string{"p.go": src, "docs/SPEC" + md: "spec\n"} {
			if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		missing, checked, err := missingCommentDocs(root)
		if err != nil {
			t.Fatal(err)
		}
		if checked != 5 || len(missing) != 1 || !strings.Contains(missing[0], "docs/GONE"+md) {
			t.Fatalf("checked %d names, missing %q; want 5 checked and only docs/GONE missing", checked, missing)
		}
	})
}

var figFlag = regexp.MustCompile(`-fig[\s=]+([A-Za-z0-9,]+)`)

// TestDocsNameAcceptedFigures verifies that every `authbench -fig X` in
// current prose — the docs, the CI workflow and the verify skill; not the
// history in CHANGES.md, ROADMAP.md and ISSUE.md — names a figure authbench
// accepts (cmd/authbench's figures table; it rejects anything else).
func TestDocsNameAcceptedFigures(t *testing.T) {
	accepted := map[string]bool{"all": true, "4": true, "13": true, "table2": true,
		"14": true, "15": true, "space": true, "headline": true}
	var files []string
	for _, glob := range []string{".claude/skills/*/SKILL.md", ".github/workflows/*.yml"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	for _, file := range docFiles(t) {
		if !historyFiles[file] {
			files = append(files, file)
		}
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range figFlag.FindAllStringSubmatch(string(raw), -1) {
			for _, name := range strings.Split(m[1], ",") {
				if !accepted[name] {
					t.Errorf("%s: -fig %s is not a figure authbench accepts", file, name)
				}
			}
		}
	}
}

var v1Path = regexp.MustCompile(`/v1(?:/[A-Za-z0-9_-]+)+`)

// TestDocsEndpointsExist verifies that every /v1/... path the README and
// docs/ name is one the code registers; the bare /v1 and /v1/ prefixes
// name the protocol, not an endpoint. The history files are not checked.
func TestDocsEndpointsExist(t *testing.T) {
	registered := map[string]bool{}
	for _, p := range []string{httpapi.PathSearch, httpapi.PathManifest, httpapi.PathHealthz,
		httpapi.PathMetrics, httpapi.PathShardSearch, httpapi.PathShardManifest,
		httpapi.PathAdminUpdate, fleet.PathFleetHealthz} {
		registered[p] = true
	}
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(files, "README.md") {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, p := range v1Path.FindAllString(line, -1) {
				if !registered[p] {
					t.Errorf("%s:%d: %s is not a registered endpoint", file, i+1, p)
				}
			}
		}
	}
}

// goTestCommand is one `go test` invocation in a CI workflow.
var goTestCommand = regexp.MustCompile(`\bgo test\s+(.*)$`)

// goTestBoolFlags are the go test flags CI passes that take no value.
var goTestBoolFlags = map[string]bool{"-race": true, "-short": true, "-v": true, "-benchmem": true}

// shellWords splits a command line into words as sh does for the plain
// and single- or double-quoted words the workflow uses.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord, quote := false, rune(0)
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words, inWord = append(words, word.String()), false
				word.Reset()
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// testFuncsIn returns the Test and Fuzz functions declared in the package
// pattern pkg ("." or "./dir", either optionally ending in "/..."),
// relative to root.
func testFuncsIn(root, pkg string) ([]string, error) {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(filepath.Join(root, filepath.FromSlash(dir)), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != filepath.Join(root, dir) && (!recursive || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

// alternatives splits a regular expression at its top-level |s.
func alternatives(expr string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(expr); i++ {
		switch expr[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, expr[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, expr[start:])
}

// ciRunPatternMisses checks every `go test -run PATTERN` in the workflows
// under root/.github/workflows against the Test and Fuzz functions of the
// packages the command names, and reports each pattern alternative that
// selects none. -run=NONE, which runs no tests on purpose, is exempt.
func ciRunPatternMisses(root string) (misses []string, checked int, err error) {
	workflows, err := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
	if err != nil {
		return nil, 0, err
	}
	for _, workflow := range workflows {
		raw, err := os.ReadFile(workflow)
		if err != nil {
			return nil, 0, err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			m := goTestCommand.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var pattern string
			var pkgs []string
			words := shellWords(m[1])
			for j := 0; j < len(words); j++ {
				word := words[j]
				if word == "|" || word == "&&" || word == ";" {
					break
				}
				if !strings.HasPrefix(word, "-") {
					pkgs = append(pkgs, word)
					continue
				}
				name, value, ok := strings.Cut(word, "=")
				if !ok && !goTestBoolFlags[name] && j+1 < len(words) {
					j++
					value = words[j]
				}
				if name == "-run" {
					pattern = value
				}
			}
			if pattern == "" || pattern == "NONE" {
				continue
			}
			checked++
			where := fmt.Sprintf("%s:%d", workflow, i+1)
			var names []string
			for _, pkg := range pkgs {
				funcs, err := testFuncsIn(root, pkg)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: package %s: %w", where, pkg, err)
				}
				names = append(names, funcs...)
			}
			// go test matches the top level of a slash-separated pattern
			// against the function names. Each alternative must select
			// something, or a deleted test hides behind a surviving one.
			for _, alt := range alternatives(strings.Split(pattern, "/")[0]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					misses = append(misses, fmt.Sprintf("%s: -run %q does not compile: %v", where, pattern, err))
					continue
				}
				matched := false
				for _, name := range names {
					matched = matched || re.MatchString(name)
				}
				if !matched {
					misses = append(misses, fmt.Sprintf("%s: -run %q: %q selects no Test or Fuzz function in %v", where, pattern, alt, pkgs))
				}
			}
		}
	}
	return misses, checked, nil
}

// TestCIRunPatternsMatchTests verifies that every -run pattern in the CI
// workflow — each of its |-alternatives — selects at least one test in the
// packages its step names, so a step whose tests were deleted or renamed
// fails here instead of passing as a silent no-op.
func TestCIRunPatternsMatchTests(t *testing.T) {
	misses, checked, err := ciRunPatternMisses(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range misses {
		t.Error(m)
	}
	if checked < 10 {
		t.Fatalf("only %d -run patterns found in the workflows; the parser is probably wrong", checked)
	}

	t.Run("misspelt pattern", func(t *testing.T) {
		root := t.TempDir()
		workflow := "steps:\n" +
			"  - run: go test -race -run 'TestReal|FuzzReal' -count=2 ./p\n" +
			"  - run: go test ./p -run '^FuzzReal$' -fuzz '^FuzzReal$' -fuzztime 10s\n" +
			"  - run: go test -run=NONE -bench=. ./...\n" +
			"  - run: go test -run 'TestRael' -v ./...\n" +
			"  - run: go test -run 'TestReal|TestGone' ./p\n"
		for name, body := range map[string]string{
			".github/workflows/ci.yml": workflow,
			"p/p_test.go":              "package p\n\nimport \"testing\"\n\nfunc TestReal(t *testing.T) {}\n\nfunc FuzzReal(f *testing.F) {}\n",
		} {
			path := filepath.Join(root, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		misses, checked, err := ciRunPatternMisses(root)
		if err != nil {
			t.Fatal(err)
		}
		if checked != 4 || len(misses) != 2 || !strings.Contains(misses[0], `"TestRael"`) || !strings.Contains(misses[1], `"TestGone"`) {
			t.Fatalf("checked %d patterns, missed %q; want 4 checked and only TestRael and TestGone missed", checked, misses)
		}
	})
}

var (
	codeFence   = regexp.MustCompile("(?s)```[^\n]*\n.*?```")
	codeSpan    = regexp.MustCompile("`[^`\n]+`")
	typeMember  = regexp.MustCompile(`(?:^|[^.\w])(?:authtext\.)?([A-Z]\w*)\.([A-Za-z_]\w*)`)
	facadeIdent = regexp.MustCompile(`\bauthtext\.([A-Z]\w*)`)
)

// retiredDocNames reports, for each markdown text in docs (file → text),
// every name in its code that the facade does not export: a `Type.Member`
// whose Type is a facade type but whose Member is no method, field or
// embedded type of it (promoted members count), and every authtext.Name
// that is no package-level name. Code is fenced blocks and inline code
// spans; testOnly holds the Name and Type.Member names the root package's
// own test files declare, which docs may cite as test hooks.
func retiredDocNames(docs map[string]string, api []apiEntry, testOnly map[string]bool) []string {
	types, topLevel, members := map[string]bool{}, map[string]bool{}, map[string]bool{}
	embeds := map[string][]string{}
	for _, e := range api {
		switch e.kind {
		case "method", "field":
			members[e.name] = true
		case "embed":
			members[e.name] = true
			owner, embedded, _ := strings.Cut(e.name, ".")
			embeds[owner] = append(embeds[owner], embedded)
		default:
			topLevel[e.name] = true
			types[e.name] = e.kind == "type"
		}
	}
	var hasMember func(typ, member string) bool
	hasMember = func(typ, member string) bool {
		if members[typ+"."+member] || testOnly[typ+"."+member] {
			return true
		}
		for _, embedded := range embeds[typ] {
			if hasMember(embedded, member) {
				return true
			}
		}
		return false
	}
	var retired []string
	for file, text := range docs {
		code := codeFence.FindAllString(text, -1)
		code = append(code, codeSpan.FindAllString(codeFence.ReplaceAllString(text, ""), -1)...)
		for _, c := range code {
			for _, m := range typeMember.FindAllStringSubmatch(c, -1) {
				if types[m[1]] && !hasMember(m[1], m[2]) {
					retired = append(retired, file+": "+m[1]+"."+m[2])
				}
			}
			for _, m := range facadeIdent.FindAllStringSubmatch(c, -1) {
				if !topLevel[m[1]] && !testOnly[m[1]] {
					retired = append(retired, file+": authtext."+m[1])
				}
			}
		}
	}
	sort.Strings(retired)
	return retired
}

// TestDocsNameOnlyExportedNames verifies that the documentation's code
// names only what the facade exports (testdata/api.txt) or what the root
// package's test files declare, so a retired name cannot linger in the docs.
func TestDocsNameOnlyExportedNames(t *testing.T) {
	testOnly := map[string]bool{}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if file.Name.Name != "authtext" {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				testOnly[name] = true
			}
		}
	}
	if !testOnly["Server.CheckRankingForTest"] {
		t.Fatal("Server.CheckRankingForTest not among the test-declared names; the declaration scan is probably wrong")
	}
	docs := map[string]string{}
	for _, file := range docFiles(t) {
		if filepath.Dir(file) != "docs" && file != "README.md" && file != filepath.Join("examples", "README.md") {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		docs[file] = string(raw)
	}
	for _, name := range retiredDocNames(docs, readAPI(t), testOnly) {
		t.Errorf("%s is not exported by the facade (testdata/api.txt)", name)
	}

	t.Run("synthetic docs", func(t *testing.T) {
		api := parseAPI("type Outer struct\nfield Outer embeds *Inner\ntype Inner struct\nmethod (*Inner) Run()\nfunc New() *Outer")
		docs := map[string]string{"a.md": "Call `Outer.Run`, `authtext.New`, `Outer.Hook` and `pkg.Outer.Stop`;\n" +
			"not `Outer.Gone` or `authtext.Old`.\n```go\nx := authtext.Older()\n```\n"}
		got := retiredDocNames(docs, api, map[string]bool{"Outer.Hook": true})
		want := []string{"a.md: Outer.Gone", "a.md: authtext.Old", "a.md: authtext.Older"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("retired names %q, want %q", got, want)
		}
	})
}

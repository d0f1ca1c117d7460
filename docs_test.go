package authtext_test

import (
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"regexp"
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

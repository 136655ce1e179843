package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModule copies the real module's .go files into a temp tree so a test
// can break them. Test files, testdata trees, and VCS metadata are skipped —
// the loader would ignore them anyway.
func copyModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// mutate rewrites one file in the copied tree, replacing an exact anchor that
// must occur exactly once — if the real source drifts away from the anchor,
// the test fails loudly instead of silently testing nothing.
func mutate(t *testing.T, root, rel, anchor, replacement string) {
	t.Helper()
	path := filepath.Join(root, rel)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), anchor); n != 1 {
		t.Fatalf("%s: anchor %q occurs %d times, want exactly 1 (did the engine change shape?)", rel, anchor, n)
	}
	out := strings.Replace(string(data), anchor, replacement, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lintTree runs the full suite over a (mutated) module copy and returns the
// findings for one rule, rendered with root-relative paths.
func lintTree(t *testing.T, root, rule string) []string {
	t.Helper()
	loader := Loader{ModulePath: "gpunoc", Dir: root}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range Run(pkgs, DefaultRules(), Analyzers()) {
		if d.Rule != rule {
			continue
		}
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, filepath.ToSlash(rel)+": "+d.Msg)
	}
	return out
}

// requireFinding asserts at least one finding landed in the named file.
func requireFinding(t *testing.T, findings []string, file, fragment string) {
	t.Helper()
	for _, f := range findings {
		if strings.HasPrefix(f, file+": ") && strings.Contains(f, fragment) {
			return
		}
	}
	t.Fatalf("no finding in %s containing %q; got %v", file, fragment, findings)
}

// TestSeededAllocInLinkTick proves hotalloc fires on an un-waived allocation
// inserted into the link's per-cycle Tick.
func TestSeededAllocInLinkTick(t *testing.T) {
	root := copyModule(t)
	mutate(t, root, "internal/link/link.go",
		"func (l *Link) Tick(now uint64) {\n",
		"func (l *Link) Tick(now uint64) {\n\tscratch := make([]int, 4)\n\t_ = scratch\n")
	findings := lintTree(t, root, "hotalloc")
	requireFinding(t, findings, "internal/link/link.go", "calls make on the steady-state tick path")
}

package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture want.txt goldens")

// loadFixture loads one testdata tree as if it were the module "gpunoc" and
// runs the full analyzer suite over it.
func loadFixture(t *testing.T, name string) (string, []Diagnostic) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	loader := Loader{ModulePath: "gpunoc", Dir: dir}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages loaded", name)
	}
	return dir, Run(pkgs, DefaultRules(), Analyzers())
}

// render prints diagnostics exactly as the driver does, with fixture-relative
// paths so the goldens are stable.
func render(t *testing.T, root string, diags []Diagnostic) string {
	t.Helper()
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Rule, d.Msg)
	}
	return b.String()
}

// TestFixtures pins every analyzer (and the directive hygiene of the
// framework itself) against golden diagnostics: each fixture tree contains
// deliberate violations and the sanctioned shapes that must stay silent, and
// the rendered findings must match want.txt byte for byte.
func TestFixtures(t *testing.T) {
	for _, name := range []string{
		"layering", "determinism", "tickmodel", "purity", "godoc", "allowdirectives",
	} {
		t.Run(name, func(t *testing.T) {
			root, diags := loadFixture(t, name)
			got := render(t, root, diags)
			if got == "" {
				t.Fatalf("fixture %s produced no findings; it must contain at least one deliberate violation", name)
			}
			goldenPath := filepath.Join(root, "want.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./internal/lint -run TestFixtures -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestRepoIsLintClean is the enforcement test: the real module must load,
// type-check, and produce zero findings. This is what keeps every fix and
// every //lint:allow in the tree load-bearing — removing one makes this fail.
func TestRepoIsLintClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := Loader{ModulePath: "gpunoc", Dir: root}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from the module root; loader discovery is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type-check: %v", pkg.Path, terr)
		}
	}
	diags := Run(pkgs, DefaultRules(), Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestSubPatternDoesNotFlagIdleWaivers pins that a focused lint run over a
// package subset is as clean as the whole module: every analyzer works
// package by package, so no //lint:allow directive depends on packages
// outside the pattern.
func TestSubPatternDoesNotFlagIdleWaivers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := Loader{ModulePath: "gpunoc", Dir: root}
	pkgs, err := loader.Load("internal/mem", "internal/warp")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultRules(), Analyzers()) {
		t.Errorf("sub-pattern lint must be clean, got: %s", d)
	}
}

// TestLayeringTableIsAcyclic guards the rule table itself: the declared
// import DAG must actually be a DAG, and every allowed import must itself be
// a declared package, so "arrows only point downward" stays meaningful.
func TestLayeringTableIsAcyclic(t *testing.T) {
	allowed := DefaultRules().Layering.Allowed
	for pkg, imports := range allowed {
		for _, imp := range imports {
			if _, ok := allowed[imp]; !ok {
				t.Errorf("layering table: %q allows import of undeclared package %q", pkg, imp)
			}
			if imp == pkg {
				t.Errorf("layering table: %q allows importing itself", pkg)
			}
		}
	}

	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int)
	var visit func(pkg string, path []string)
	visit = func(pkg string, path []string) {
		switch state[pkg] {
		case done:
			return
		case visiting:
			t.Fatalf("layering table contains a cycle: %s -> %s", strings.Join(path, " -> "), pkg)
		}
		state[pkg] = visiting
		for _, imp := range allowed[pkg] {
			visit(imp, append(path, pkg))
		}
		state[pkg] = done
	}
	for pkg := range allowed {
		visit(pkg, nil)
	}
}

func TestScopeMatch(t *testing.T) {
	s := Scope{Include: []string{"", "internal/"}, Exclude: []string{"internal/lint"}}
	for rel, want := range map[string]bool{
		"":                     true,
		"internal":             true,
		"internal/noc":         true,
		"internal/lint":        false,
		"cmd/ccbench":          false,
		"examples/quickstart":  false,
		"internal/experiments": true,
	} {
		if got := s.Match(rel); got != want {
			t.Errorf("Match(%q) = %v, want %v", rel, got, want)
		}
	}
	exact := Scope{Include: []string{"internal/noc"}}
	if exact.Match("internal/noc2") {
		t.Error("exact include must not prefix-match a sibling")
	}
	if !exact.Match("internal/noc") {
		t.Error("exact include must match itself")
	}
}

func TestMatchPatterns(t *testing.T) {
	for _, tc := range []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{"internal/noc", []string{"./..."}, true},
		{"", []string{"./..."}, true},
		{"", []string{"."}, true},
		{"internal/noc", []string{"."}, false},
		{"internal/noc", []string{"internal/..."}, true},
		{"internal/noc", []string{"internal/noc"}, true},
		{"internal/noc2", []string{"internal/noc"}, false},
		{"internal/noc", []string{"cmd/..."}, false},
		{"internal/noc", nil, false},
	} {
		if got := matchPatterns(tc.rel, tc.patterns); got != tc.want {
			t.Errorf("matchPatterns(%q, %v) = %v, want %v", tc.rel, tc.patterns, got, tc.want)
		}
	}
}

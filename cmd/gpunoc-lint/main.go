// Command gpunoc-lint runs the repository's static-analysis suite: the
// layering, determinism, tickmodel, purity and godoc analyzers from
// internal/lint, which mechanically enforce the invariants documented in
// docs/ARCHITECTURE.md ("Enforced invariants").
//
// Usage:
//
//	go run ./cmd/gpunoc-lint ./...              # lint the whole module
//	go run ./cmd/gpunoc-lint ./internal/noc     # one package
//	go run ./cmd/gpunoc-lint -rules             # dump the rule tables as JSON
//	go run ./cmd/gpunoc-lint -format sarif ./...# SARIF 2.1.0 for CI upload
//
// Diagnostics print as "file:line: [rule] message" (-format text, the
// default), a JSON array (-format json), or a SARIF 2.1.0 log with
// module-root-relative URIs (-format sarif, consumed by CI's upload-sarif
// annotate step). The exit status is 0 when the tree is clean, 1 when there
// are findings, and 2 on a usage or load error. Individual findings can be
// waived in source with "//lint:allow <rule> <reason>" on the offending line
// or the line above.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpunoc/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("gpunoc-lint", flag.ExitOnError)
	rulesFlag := flags.Bool("rules", false, "print the active rule configuration as JSON and exit")
	jsonFlag := flags.Bool("json", false, "shorthand for -format json")
	formatFlag := flags.String("format", "text", "output format: text, json, or sarif")
	flags.Usage = func() {
		fmt.Fprintf(flags.Output(), "usage: gpunoc-lint [-rules] [-format text|json|sarif] [packages]\n\n"+
			"Packages are directory patterns relative to the current directory\n"+
			"(default \"./...\"). See docs/ARCHITECTURE.md, \"Enforced invariants\".\n\n")
		flags.PrintDefaults()
	}
	flags.Parse(os.Args[1:])
	format := *formatFlag
	if *jsonFlag {
		format = "json"
	}
	switch format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "gpunoc-lint: unknown format %q (want text, json, or sarif)\n", format)
		return 2
	}

	rules := lint.DefaultRules()
	if *rulesFlag {
		out, err := rules.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
			return 2
		}
		fmt.Println(string(out))
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
		return 2
	}
	root, module, err := findModule(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
		return 2
	}
	if module != rules.Module {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: module %q does not match the rule table's module %q\n", module, rules.Module)
		return 2
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rel, err := filepath.Rel(root, cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
		return 2
	}
	for i, p := range patterns {
		patterns[i] = rebase(rel, p)
	}

	loader := lint.Loader{ModulePath: module, Dir: root}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "gpunoc-lint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	diags := lint.Run(pkgs, rules, lint.Analyzers())

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch format {
	case "sarif":
		// SARIF URIs are module-root-relative regardless of cwd: the CI
		// upload action resolves them against the repository checkout.
		out, err := lint.SARIF(diags, lint.Analyzers(), root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
			return 2
		}
		w.Write(out)
		w.WriteByte('\n')
	case "json":
		relativize(diags, cwd)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "gpunoc-lint: %v\n", err)
			return 2
		}
	default:
		relativize(diags, cwd)
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	if len(diags) > 0 {
		w.Flush()
		fmt.Fprintf(os.Stderr, "gpunoc-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relativize rewrites diagnostic filenames relative to the working directory
// for human-facing output.
func relativize(diags []lint.Diagnostic, cwd string) {
	for i := range diags {
		if r, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = r
		}
	}
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module line", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// rebase rewrites a cwd-relative pattern into a module-root-relative one.
func rebase(cwdRel, pattern string) string {
	p := strings.TrimPrefix(filepath.ToSlash(pattern), "./")
	if cwdRel == "." || cwdRel == "" {
		return p
	}
	base := filepath.ToSlash(cwdRel)
	if p == "." {
		return base
	}
	return base + "/" + p
}

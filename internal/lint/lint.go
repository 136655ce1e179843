// Package lint is gpunoc's in-tree static-analysis suite. It enforces the
// invariants docs/ARCHITECTURE.md promises — the import DAG, wall-clock and
// global-RNG freedom, the single-goroutine tick model, and the absence of
// package-level mutable state — so the simulator stays a pure function of
// config.Config as the engine grows. The suite is built only on the standard
// library (go/ast, go/parser, go/token, go/types, go/importer); the module
// stays dependency-free.
//
// A finding can be waived at a specific line with an inline directive:
//
//	//lint:allow <rule> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory, the rule name must be one of the registered analyzers, and an
// unused directive is itself a finding — waivers cannot silently outlive the
// code they excuse.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule (analyzer) that fired, and
// a human-readable message.
type Diagnostic struct {
	Pos  token.Position `json:"pos"`
	Rule string         `json:"rule"`
	Msg  string         `json:"msg"`
}

// String renders the diagnostic in the canonical "file:line: [rule] message"
// form used by the driver and the golden fixture tests.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Msg)
}

// Analyzer is one invariant checker: Run inspects a single loaded package
// and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(package, analyzer) reporting context handed to Analyzer.Run.
type Pass struct {
	Pkg   *Package
	Rules *Rules

	rule  string
	diags []Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a fixed order. The analyzer names are
// the rule names accepted by //lint:allow directives.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		layeringAnalyzer(),
		determinismAnalyzer(),
		tickModelAnalyzer(),
		purityAnalyzer(),
		godocAnalyzer(),
	}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file      string
	line      int
	rule      string
	malformed string // non-empty: why the directive itself is a finding
	used      bool
}

// allowPrefix is the directive marker. Like //go:build, the canonical form
// has no space after "//", but a spaced form is tolerated.
const allowPrefix = "lint:allow"

// collectAllows parses every //lint:allow directive in the package.
func collectAllows(pkg *Package) []*allowDirective {
	var out []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &allowDirective{file: pos.Filename, line: pos.Line}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				switch {
				case len(fields) == 0:
					d.malformed = "missing rule and reason"
				case len(fields) == 1:
					d.rule = fields[0]
					d.malformed = "missing reason"
				default:
					d.rule = fields[0]
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Run applies every analyzer to every package, filters findings through the
// //lint:allow directives, appends directive-hygiene findings (malformed,
// unknown rule, unused), and returns the surviving diagnostics sorted by
// file, line, rule, and message.
func Run(pkgs []*Package, rules *Rules, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var allows []*allowDirective
	for _, pkg := range pkgs {
		allows = append(allows, collectAllows(pkg)...)
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Rules: rules, rule: a.Name}
			a.Run(pass)
			raw = append(raw, pass.diags...)
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if dir := matchingAllow(allows, d); dir != nil {
			dir.used = true
			continue
		}
		out = append(out, d)
	}
	for _, dir := range allows {
		pos := token.Position{Filename: dir.file, Line: dir.line}
		switch {
		case dir.malformed != "":
			out = append(out, Diagnostic{Pos: pos, Rule: "lint",
				Msg: fmt.Sprintf("malformed //lint:allow directive: %s (want //lint:allow <rule> <reason>)", dir.malformed)})
		case !known[dir.rule]:
			out = append(out, Diagnostic{Pos: pos, Rule: "lint",
				Msg: fmt.Sprintf("//lint:allow names unknown rule %q (known: %s)", dir.rule, ruleNames(analyzers))})
		case !dir.used:
			out = append(out, Diagnostic{Pos: pos, Rule: "lint",
				Msg: fmt.Sprintf("unused //lint:allow %s directive (nothing on this or the next line triggers the rule)", dir.rule)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return out
}

// matchingAllow returns the directive suppressing d: same file and rule, on
// the diagnostic's line or the line directly above it.
func matchingAllow(allows []*allowDirective, d Diagnostic) *allowDirective {
	for _, dir := range allows {
		if dir.malformed != "" || dir.rule != d.Rule || dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			return dir
		}
	}
	return nil
}

func ruleNames(analyzers []*Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

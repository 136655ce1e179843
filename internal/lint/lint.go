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

// Analyzer is one invariant checker. Exactly one of the two hooks is set:
// Run inspects a single loaded package and reports findings through the Pass;
// RunProgram sees every loaded package at once, plus the shared call graph,
// for analyses (reachability, interprocedural dataflow) that do not decompose
// per package. Whole-program analyzers only see the packages the driver
// loaded — running them on a sub-pattern that excludes their declared entry
// points turns them into no-ops, which is why CI always lints "./...".
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
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

// ProgramPass is the whole-program reporting context handed to
// Analyzer.RunProgram: every loaded package, the rule tables, and the shared
// type-based call graph (built once per Run, lazily, from the packages that
// type-checked).
type ProgramPass struct {
	Pkgs  []*Package
	Rules *Rules
	Graph *CallGraph
	Fset  *token.FileSet

	rule     string
	diags    []Diagnostic
	disabled map[string]bool
}

// Disable records that the current analyzer ran over an incomplete package
// set (some declared entry points are absent — a sub-pattern lint). Real
// findings are still reported, but the driver exempts the analyzer's
// //lint:allow directives from the unused-waiver finding: with reachability
// computed from a partial call graph, an idle waiver is not evidence of rot.
// A full "./..." run resolves every root and re-arms the check.
func (p *ProgramPass) Disable() {
	if p.disabled == nil {
		p.disabled = make(map[string]bool)
	}
	p.disabled[p.rule] = true
}

// Report records a finding at pos.
func (p *ProgramPass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:  p.Fset.Position(pos),
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
		hotAllocAnalyzer(),
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

// Run applies every analyzer to every package (whole-program analyzers run
// once over the full package set), filters findings through the //lint:allow
// directives, appends directive-hygiene findings (malformed, unknown rule,
// unused), and returns the surviving diagnostics sorted by file, line, rule,
// and message. Directives are collected across all packages before any
// filtering, so a waiver suppresses a whole-program finding exactly as it
// suppresses a per-package one: by file and line.
func Run(pkgs []*Package, rules *Rules, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	needGraph := false
	for _, a := range analyzers {
		known[a.Name] = true
		if a.RunProgram != nil {
			needGraph = true
		}
	}

	var allows []*allowDirective
	for _, pkg := range pkgs {
		allows = append(allows, collectAllows(pkg)...)
	}

	inactive := map[string]bool{}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Pkg: pkg, Rules: rules, rule: a.Name}
			a.Run(pass)
			raw = append(raw, pass.diags...)
		}
	}
	if needGraph && len(pkgs) > 0 {
		pp := &ProgramPass{
			Pkgs:  pkgs,
			Rules: rules,
			Graph: BuildCallGraph(pkgs),
			Fset:  pkgs[0].Fset,
		}
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			pp.rule = a.Name
			a.RunProgram(pp)
		}
		raw = append(raw, pp.diags...)
		inactive = pp.disabled
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
		case !dir.used && !inactive[dir.rule]:
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

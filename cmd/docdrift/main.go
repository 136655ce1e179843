// Command docdrift cross-checks the documentation against the code so the
// two cannot quietly diverge. It fails (exit 1, one line per finding) when:
//
//   - the package list in docs/ARCHITECTURE.md disagrees with the layering
//     table in internal/lint — a package declared in the import DAG that
//     the architecture doc never mentions, or an internal/... package the
//     doc mentions that the DAG does not declare;
//   - a relative markdown link in any root-level *.md or docs/*.md file
//     points at a path that does not exist;
//   - EXPERIMENTS.md never mentions the id of an experiment that is
//     registered in internal/experiments — a new Fig*/Table* that was never
//     documented;
//   - the cache-key field table in docs/ARCHITECTURE.md ("Result cache &
//     server") disagrees with the experiments.CacheKey struct —
//     a field added to the key that the doc never documents, or a
//     documented field the struct no longer has.
//
// CI runs it in the lint job:
//
//	go run ./cmd/docdrift
//
// An optional argument sets the repository root (default ".").
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"gpunoc/internal/experiments"
	"gpunoc/internal/lint"
)

const archDoc = "docs/ARCHITECTURE.md"

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var findings []string
	report := func(format string, args ...any) {
		findings = append(findings, fmt.Sprintf(format, args...))
	}

	checkPackageList(root, report)
	checkLinks(root, report)
	checkExperimentIDs(root, report)
	checkCacheKey(root, report)

	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "docdrift: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "docdrift: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("docdrift: documentation and rule tables agree")
}

// pkgToken matches a module-local package mention like "internal/noc"; a
// longer path ("internal/engine/remote.go") contributes its package dir.
var pkgToken = regexp.MustCompile(`internal/[a-z0-9]+`)

// checkPackageList diffs the layering table of internal/lint (the
// machine-readable import DAG) against the package mentions in
// docs/ARCHITECTURE.md, in both directions.
func checkPackageList(root string, report func(string, ...any)) {
	text, err := os.ReadFile(filepath.Join(root, archDoc))
	if err != nil {
		report("reading %s: %v", archDoc, err)
		return
	}
	mentioned := map[string]bool{}
	for _, tok := range pkgToken.FindAllString(string(text), -1) {
		mentioned[tok] = true
	}
	declared := map[string]bool{}
	for pkg := range lint.DefaultRules().Layering.Allowed {
		if strings.HasPrefix(pkg, "internal/") {
			declared[pkg] = true
		}
	}
	for _, pkg := range sorted(declared) {
		if !mentioned[pkg] {
			report("%s is in internal/lint's layering table but never mentioned in %s", pkg, archDoc)
		}
	}
	for _, pkg := range sorted(mentioned) {
		if !declared[pkg] {
			report("%s mentions %s, which is not declared in internal/lint's layering table", archDoc, pkg)
		}
	}
}

// mdLink matches [text](target); targets that are absolute URLs, anchors,
// or mail links are not checked.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies that every relative markdown link in the root *.md
// files and docs/*.md resolves to an existing file or directory.
func checkLinks(root string, report func(string, ...any)) {
	var docs []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			report("globbing %s: %v", pattern, err)
			continue
		}
		docs = append(docs, matches...)
	}
	sort.Strings(docs)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			report("reading %s: %v", doc, err)
			continue
		}
		rel, _ := filepath.Rel(root, doc)
		for _, m := range mdLink.FindAllStringSubmatch(string(text), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				report("%s links to %s, which does not exist", rel, target)
			}
		}
	}
}

const expDoc = "EXPERIMENTS.md"

// checkExperimentIDs requires EXPERIMENTS.md to mention every
// experiment id registered in internal/experiments, so a new artifact
// cannot land undocumented. Ids must appear as whole hyphenated tokens:
// "fig1" does not count as a mention of "fig1" inside "fig10", and
// "noise-sweep" does not satisfy "noise".
func checkExperimentIDs(root string, report func(string, ...any)) {
	doc, err := os.ReadFile(filepath.Join(root, expDoc))
	if err != nil {
		report("reading %s: %v", expDoc, err)
		return
	}
	text := string(doc)
	for _, e := range experiments.All() {
		token := regexp.MustCompile(`(^|[^a-z0-9-])` + regexp.QuoteMeta(e.ID) + `([^a-z0-9-]|$)`)
		if !token.MatchString(text) {
			report("experiment %q is registered in internal/experiments but never mentioned in %s", e.ID, expDoc)
		}
	}
}

const cacheKeyHead = "## Result cache & server"

// cacheKeyRow matches one row of the cache-key field table in
// docs/ARCHITECTURE.md: a table line whose first cell is a backticked
// snake_case field name.
var cacheKeyRow = regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\|")

// checkCacheKey diffs the cache-key field table in docs/ARCHITECTURE.md
// against the experiments.CacheKey struct (by JSON tag — the tags define
// the canonical encoding the content address hashes), in both directions:
// the service's cache contract and its documentation cannot drift apart.
func checkCacheKey(root string, report func(string, ...any)) {
	text, err := os.ReadFile(filepath.Join(root, archDoc))
	if err != nil {
		report("reading %s: %v", archDoc, err)
		return
	}
	section := string(text)
	i := strings.Index(section, cacheKeyHead)
	if i < 0 {
		report("%s has no %q section", archDoc, cacheKeyHead)
		return
	}
	section = section[i+len(cacheKeyHead):]
	if j := strings.Index(section, "\n## "); j >= 0 {
		section = section[:j]
	}
	documented := map[string]bool{}
	for _, m := range cacheKeyRow.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	declared := map[string]bool{}
	t := reflect.TypeOf(experiments.CacheKey{})
	for f := 0; f < t.NumField(); f++ {
		tag := strings.Split(t.Field(f).Tag.Get("json"), ",")[0]
		if tag != "" && tag != "-" {
			declared[tag] = true
		}
	}
	for _, tag := range sorted(declared) {
		if !documented[tag] {
			report("experiments.CacheKey field %q is not documented in the %q table of %s", tag, cacheKeyHead, archDoc)
		}
	}
	for _, tag := range sorted(documented) {
		if !declared[tag] {
			report("%s documents cache-key field %q, which experiments.CacheKey does not have", archDoc, tag)
		}
	}
}

// sorted returns a map's keys in order, for deterministic output.
func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package lint

import (
	"path/filepath"
	"testing"
)

// buildFixtureGraph loads one testdata tree and builds its call graph.
func buildFixtureGraph(t *testing.T, name string) *CallGraph {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	loader := Loader{ModulePath: "gpunoc", Dir: dir}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	return BuildCallGraph(pkgs)
}

// calleeNames renders a node's outgoing edges as target names.
func calleeNames(n *CGNode) map[string]bool {
	out := make(map[string]bool)
	for _, e := range n.Out {
		out[e.Callee.String()] = true
	}
	return out
}

// TestCallGraphEdges pins the five edge sources against the callgraph
// fixture: static calls, CHA dispatch, field-sensitive indirect calls,
// param-to-field flow, and signature-bucket fan-out — plus the negative
// spaces (a field call must not fan out to same-shaped strangers, a directly
// invoked literal must not be address-taken).
func TestCallGraphEdges(t *testing.T) {
	cg := buildFixtureGraph(t, "callgraph")

	root := cg.Lookup(FuncRef{Package: "internal/app", Name: "Root"})
	if root == nil {
		t.Fatal("Lookup(Root) = nil")
	}
	rootOut := calleeNames(root)

	// Static call to the setter.
	if !rootOut["internal/app.(*app.Holder).SetWake"] {
		t.Error("Root is missing the static edge to SetWake")
	}
	// CHA dispatch through the Ticker interface.
	if !rootOut["internal/app.(*app.Dev).Tick"] {
		t.Error("Root is missing the CHA edge to (*Dev).Tick")
	}
	// Field-sensitive indirect call: h.cb resolves to exactly the stored
	// value, not to every address-taken func(int).
	if !rootOut["internal/app.stored"] {
		t.Error("Root is missing the field-store edge to stored")
	}
	if rootOut["internal/app.taken"] {
		t.Error("Root's h.cb(1) fanned out to `taken`; field calls must resolve to stored values only")
	}
	// Param-to-field flow: h.wake() reaches the literal passed to SetWake,
	// and through it, helper.
	reach := cg.Reachable([]*CGNode{root})
	names := make(map[string]bool)
	for n := range reach {
		names[n.String()] = true
	}
	if !names["internal/app.helper"] {
		t.Error("helper is not reachable from Root; the SetWake param-to-field flow is broken")
	}
	if names["internal/app.coldFn"] {
		t.Error("coldFn (never called, never referenced) is reachable from Root")
	}
	if names["internal/app.taken"] {
		t.Error("taken leaked into Root's reachable set")
	}

	// Signature-bucket fan-out: f(2) in Indirect reaches every address-taken
	// func(int) — both `taken` (returned by pick) and `stored` (kept in a
	// composite literal).
	ind := cg.Lookup(FuncRef{Package: "internal/app", Name: "Indirect"})
	if ind == nil {
		t.Fatal("Lookup(Indirect) = nil")
	}
	indOut := calleeNames(ind)
	if !indOut["internal/app.taken"] || !indOut["internal/app.stored"] {
		t.Errorf("Indirect's bucket call must fan out to taken and stored, got %v", indOut)
	}

	// A directly-invoked literal is called, not address-taken: the only
	// func() literal in any bucket is the one passed to SetWake.
	for key, nodes := range cg.buckets {
		if key != "()()" {
			continue
		}
		for _, n := range nodes {
			if n.Lit == nil {
				continue
			}
			if !names[n.String()] {
				t.Errorf("bucket ()() holds %s, which is not the SetWake literal", n)
			}
		}
	}
}

// TestRuleTableResolves pins every hotalloc root against the real module:
// the analyzer skips unresolvable names silently (so fixture trees stay
// small), which means a rename in the engine would otherwise quietly turn
// the analysis off. This test is what fails instead.
func TestRuleTableResolves(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := Loader{ModulePath: "gpunoc", Dir: root}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	cg := BuildCallGraph(pkgs)
	for _, ref := range DefaultRules().HotAlloc.Roots {
		if cg.Lookup(ref) == nil {
			t.Errorf("hotalloc root %s does not resolve", ref)
		}
	}
}

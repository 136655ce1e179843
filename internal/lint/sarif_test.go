package lint

import (
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"
)

// TestSARIF pins the shape GitHub code scanning consumes: version 2.1.0, a
// rule entry per analyzer plus the "lint" pseudo-rule, warning-level results,
// and module-root-relative forward-slash URIs.
func TestSARIF(t *testing.T) {
	root := filepath.Join(string(filepath.Separator), "mod")
	diags := []Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "noc", "noc.go"), Line: 12},
			Rule: "tickmodel", Msg: "go statement in tick-model code"},
		{Pos: token.Position{Filename: "internal/link/link.go", Line: 3},
			Rule: "purity", Msg: "package-level var"},
	}
	out, err := SARIF(diags, Analyzers(), root)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "gpunoc-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"tickmodel", "purity", "layering", "lint"} {
		if !ruleIDs[want] {
			t.Errorf("rule table is missing %q", want)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "tickmodel" || first.Level != "warning" {
		t.Errorf("result 0: ruleId=%q level=%q", first.RuleID, first.Level)
	}
	if uri := first.Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/noc/noc.go" {
		t.Errorf("absolute filename not relativized: uri = %q", uri)
	}
	if line := first.Locations[0].PhysicalLocation.Region.StartLine; line != 12 {
		t.Errorf("startLine = %d, want 12", line)
	}
	if uri := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/link/link.go" {
		t.Errorf("relative filename mangled: uri = %q", uri)
	}
}

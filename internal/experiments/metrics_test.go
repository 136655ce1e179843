package experiments

import (
	"encoding/json"
	"testing"

	"gpunoc/internal/config"
)

// TestMetricsDeterministicAcrossParallelism pins the -metrics contract: the
// probe snapshot of every experiment is byte-identical (as JSON) regardless
// of the worker count, because each experiment owns a private registry and
// snapshots sort by metric name.
func TestMetricsDeterministicAcrossParallelism(t *testing.T) {
	cfg := config.Small()
	ids := []string{"fig2", "fig4"}
	run := func(parallel int) map[string][]byte {
		r := Runner{
			Parallel: parallel,
			Options:  Options{Scale: Quick, Seed: 7, Metrics: true},
		}
		results, err := r.Run(&cfg, ids)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("%s failed: %v", res.Experiment.ID, res.Err)
			}
			blob, err := json.Marshal(res.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			out[res.Experiment.ID] = blob
		}
		return out
	}
	seq := run(1)
	par := run(8)
	for _, id := range ids {
		if string(seq[id]) != string(par[id]) {
			t.Errorf("%s metrics differ between -parallel 1 and 8:\n%s\nvs\n%s",
				id, seq[id], par[id])
		}
		if len(seq[id]) == 0 || string(seq[id]) == `{"cycles":0}` {
			t.Errorf("%s produced an empty metrics snapshot", id)
		}
	}
}

// TestMetricsOffLeavesResultsUntouched: without Options.Metrics the runner
// must not attach a registry, and Result.Metrics stays zero — the nil-probe
// fast path the byte-identity guarantee rests on.
func TestMetricsOffLeavesResultsUntouched(t *testing.T) {
	cfg := config.Small()
	r := Runner{Parallel: 1, Options: Options{Scale: Quick, Seed: 7}}
	results, err := r.Run(&cfg, []string{"fig2"})
	if err != nil {
		t.Fatal(err)
	}
	m := results[0].Metrics
	if m.Cycles != 0 || m.Counters != nil || m.Gauges != nil || m.Hists != nil || m.Occupancy != nil {
		t.Errorf("Metrics populated without Options.Metrics: %+v", m)
	}
	if cfg.Probes != nil {
		t.Error("runner mutated the caller's config with a probe registry")
	}
}

// TestMetricsDoNotPerturbFigures: the figure an experiment produces must be
// identical with and without instrumentation attached. fig10 and
// noise-sweep fan their transmissions out (fanOut): with a registry they
// run one at a time in order, without one side by side, so for them this
// also compares the two paths.
func TestMetricsDoNotPerturbFigures(t *testing.T) {
	cfg := config.Small()
	ids := []string{"fig2"}
	if !testing.Short() {
		ids = append(ids, "fig10", "noise-sweep")
	}
	render := func(metrics bool) []string {
		r := Runner{Parallel: 1, Options: Options{Scale: Quick, Seed: 7, Metrics: metrics}}
		results, err := r.Run(&cfg, ids)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Experiment.ID, res.Err)
			}
			out = append(out, res.Figure.Render())
		}
		return out
	}
	with, without := render(true), render(false)
	for i, id := range ids {
		if with[i] != without[i] {
			t.Errorf("instrumentation changed %s:\nwith:\n%s\nwithout:\n%s", id, with[i], without[i])
		}
	}
}

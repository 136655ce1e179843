package experiments

import (
	"reflect"
	"strings"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/telemetry"
)

// TestTelemetryDeterministicAcrossParallelism pins the -telemetry contract:
// the window and event JSONL streams of every experiment are byte-identical
// regardless of the worker count, because each experiment owns a private
// sampler and windows encode with sorted keys.
func TestTelemetryDeterministicAcrossParallelism(t *testing.T) {
	cfg := config.Small()
	ids := []string{"fig2", "fig4"}
	type streams struct{ windows, events string }
	run := func(parallel int) map[string]streams {
		r := Runner{
			Parallel: parallel,
			Options:  Options{Scale: Quick, Seed: 7, Telemetry: true},
		}
		results, err := r.Run(&cfg, ids)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]streams{}
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("%s failed: %v", res.Experiment.ID, res.Err)
			}
			var w, e strings.Builder
			if err := telemetry.WriteWindowsJSONL(&w, res.TelemetryWindows); err != nil {
				t.Fatal(err)
			}
			if err := telemetry.WriteEventsJSONL(&e, res.TelemetryEvents); err != nil {
				t.Fatal(err)
			}
			out[res.Experiment.ID] = streams{windows: w.String(), events: e.String()}
		}
		return out
	}
	seq := run(1)
	par := run(8)
	for _, id := range ids {
		if seq[id].windows != par[id].windows {
			t.Errorf("%s window streams differ between -parallel 1 and 8", id)
		}
		if seq[id].events != par[id].events {
			t.Errorf("%s event streams differ between -parallel 1 and 8", id)
		}
		if seq[id].windows == "" {
			t.Errorf("%s produced no telemetry windows", id)
		}
	}
}

// TestTelemetryOffLeavesResultsUntouched: without Options.Telemetry the
// runner must not attach a sampler, and the Result telemetry fields stay
// empty — the nil-sampler fast path the byte-identity guarantee rests on.
func TestTelemetryOffLeavesResultsUntouched(t *testing.T) {
	cfg := config.Small()
	r := Runner{Parallel: 1, Options: Options{Scale: Quick, Seed: 7}}
	results, err := r.Run(&cfg, []string{"fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.TelemetryWindows != nil || res.TelemetryEvents != nil {
		t.Errorf("telemetry populated without Options.Telemetry: %d windows, %d events",
			len(res.TelemetryWindows), len(res.TelemetryEvents))
	}
	if cfg.Telemetry != nil || cfg.Probes != nil {
		t.Error("runner mutated the caller's config with instrumentation")
	}
}

// TestTelemetryDoesNotPerturbFigures: the figure an experiment produces must
// be identical with and without the sampler attached — telemetry observes
// the registry, never the simulation.
func TestTelemetryDoesNotPerturbFigures(t *testing.T) {
	cfg := config.Small()
	render := func(tel bool) string {
		r := Runner{Parallel: 1, Options: Options{Scale: Quick, Seed: 7, Telemetry: tel}}
		results, err := r.Run(&cfg, []string{"fig2"})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil {
			t.Fatal(results[0].Err)
		}
		return results[0].Figure.Render()
	}
	bare, telemetered := render(false), render(true)
	if bare != telemetered {
		t.Errorf("figure changed when telemetry attached:\n%s\nvs\n%s", bare, telemetered)
	}
}

// TestOccRecordingReplaysOnlineDetector: detector-roc's recording keeps of
// each window only its index, span and occupancies, and replaying it
// through a fresh detector fires the events the online detector fired (all
// but their Denies, which come from the dropped counters).
func TestOccRecordingReplaysOnlineDetector(t *testing.T) {
	cfg := config.Small()
	p, err := calibratedParams(&cfg, core.TPCChannel, 4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	var rec occRecorder
	det := newDetector(p.SlotCycles, 0)
	attachSampler(&c, p.SlotCycles, &rec, det)
	if _, err := noisySend(&c, core.AlternatingPayload(48, 2), p); err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("nothing recorded")
	}
	occ := 0
	for _, w := range rec {
		if w.Counters != nil || w.Gauges != nil || w.Hists != nil {
			t.Fatalf("window %d kept more than its occupancies: %+v", w.Index, w)
		}
		occ += len(w.Occ)
	}
	if occ == 0 {
		t.Fatal("no occupancies recorded")
	}
	online := det.Events()
	if len(online) == 0 {
		t.Fatal("the online detector fired nothing; the replay would compare nothing")
	}
	for i := range online {
		online[i].Denies = 0
	}
	replayed := replayDetector(rec, p.SlotCycles, telemetry.DefaultDetectorThreshold)
	if !reflect.DeepEqual(replayed, online) {
		t.Errorf("replay fired %+v\nonline fired %+v", replayed, online)
	}
}

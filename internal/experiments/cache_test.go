package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"gpunoc/internal/config"
)

// baseKey builds a representative cache key for the unit tests.
func baseKey() CacheKey {
	return CacheKey{
		ConfigHash: 0xdeadbeef,
		ConfigName: "small",
		Seed:       5,
		Experiment: "fig2",
		Scale:      "quick",
		Metrics:    true,
		Telemetry:  false,
	}
}

// TestCacheKeyID pins the content address: stable for equal keys, and
// sensitive to every field — a change in any component must address a
// different cache entry.
func TestCacheKeyID(t *testing.T) {
	k := baseKey()
	if a, b := k.ID(), baseKey().ID(); a != b {
		t.Fatalf("ID not stable: %s vs %s", a, b)
	}
	if len(k.ID()) != 64 {
		t.Fatalf("ID length %d, want 64 hex chars", len(k.ID()))
	}

	variants := map[string]CacheKey{
		"config hash": func() CacheKey { v := baseKey(); v.ConfigHash++; return v }(),
		"config name": func() CacheKey { v := baseKey(); v.ConfigName = "volta"; return v }(),
		"seed":        func() CacheKey { v := baseKey(); v.Seed++; return v }(),
		"experiment":  func() CacheKey { v := baseKey(); v.Experiment = "fig3"; return v }(),
		"scale":       func() CacheKey { v := baseKey(); v.Scale = "full"; return v }(),
		"metrics":     func() CacheKey { v := baseKey(); v.Metrics = false; return v }(),
		"telemetry":   func() CacheKey { v := baseKey(); v.Telemetry = true; return v }(),
	}
	seen := map[string]string{k.ID(): "base"}
	for field, v := range variants {
		id := v.ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("changing %s collides with %s", field, prev)
		}
		seen[id] = field
	}
}

// TestCacheMissesAreSafe pins the miss behavior Get promises: disabled
// caches, absent entries, corrupt files, key-mismatched files, and entries
// whose figure cannot be rendered all read as a miss, never an error.
func TestCacheMissesAreSafe(t *testing.T) {
	k := baseKey()
	var nilCache *Cache
	if _, ok := nilCache.Get(k); ok {
		t.Error("nil cache reported a hit")
	}
	if err := nilCache.Put(&Entry{Key: k}); err != nil {
		t.Errorf("nil cache Put: %v", err)
	}
	disabled := &Cache{}
	if _, ok := disabled.Get(k); ok {
		t.Error("zero-value cache reported a hit")
	}

	c := &Cache{Dir: t.TempDir()}
	if _, ok := c.Get(k); ok {
		t.Error("empty directory reported a hit")
	}
	if err := os.WriteFile(c.path(k), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("corrupt entry reported a hit")
	}
	// A well-formed entry whose embedded key disagrees with the file name
	// (hash collision or renamed file) must also miss.
	other := k
	other.Seed++
	if err := c.Put(&Entry{Key: other, Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path(other), c.path(k)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("key-mismatched entry reported a hit")
	}
	// Well-formed entries under the right key that Report could not render
	// must miss too: a null figure, and a series with more X than Y values.
	unrenderable := map[string]*Figure{
		"null figure":   nil,
		"ragged series": {ID: "fig2", Series: []Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3}}}},
	}
	for name, fig := range unrenderable {
		if err := c.Put(&Entry{Key: k, Figure: fig}); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); ok {
			t.Errorf("entry with a %s reported a hit", name)
		}
	}
}

// FuzzCacheGet writes arbitrary bytes as the entry file of a fixed key: Get
// must never panic, and every hit must render through Report.
func FuzzCacheGet(f *testing.F) {
	k := baseKey()
	entry := func(key CacheKey, fig *Figure) []byte {
		b, err := json.Marshal(&Entry{Key: key, Figure: fig, Cycles: 7})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	series := func(x, y []float64) *Figure {
		return &Figure{
			ID: "fig2", Title: "t", XLabel: "x", YLabel: "y",
			Series: []Series{{Name: "s", X: x, Y: y}},
			Header: []string{"a"}, Rows: [][]string{{"1"}},
			Notes: []string{"n"},
		}
	}
	valid := entry(k, series([]float64{1, 2}, []float64{3, 4}))
	wrong := k
	wrong.Seed++
	f.Add(valid)
	f.Add(entry(k, nil)) // "figure": null
	f.Add(entry(k, series([]float64{1, 2}, []float64{3})))
	f.Add(valid[:len(valid)/2])
	f.Add(entry(wrong, series([]float64{1}, []float64{2})))

	c := &Cache{Dir: f.TempDir()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ent, ok := c.Get(k)
		if !ok {
			return
		}
		if ent.Key != k {
			t.Fatalf("hit carries key %+v, want %+v", ent.Key, k)
		}
		if out := Report([]Result{{Figure: ent.Figure}}); out == "" {
			t.Fatal("a hit rendered an empty report")
		}
	})
}

// TestCachePutGetRoundTrip stores an entry and reads it back verbatim.
func TestCachePutGetRoundTrip(t *testing.T) {
	c := &Cache{Dir: filepath.Join(t.TempDir(), "nested", "cache")}
	ent := &Entry{
		Key:    baseKey(),
		Figure: &Figure{ID: "fig2", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}},
		Cycles: 42,
	}
	if err := c.Put(ent); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(ent.Key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, ent) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, ent)
	}
}

// TestRunnerServesWarmRunFromCache is the acceptance test for the result
// cache: the same suite run twice against one cache directory simulates only
// once — the warm run is served entirely from disk, marked Cached, and
// renders a byte-identical report with deep-equal metrics and telemetry.
func TestRunnerServesWarmRunFromCache(t *testing.T) {
	var calls atomic.Int64
	reg := fakeRegistry(3, func(id string, cfg *config.Config, opt Options) (*Figure, error) {
		calls.Add(1)
		cfg.Meter.Add(100)
		return &Figure{ID: id, Title: "fake", Header: []string{"seed"},
			Rows: [][]string{{fmt.Sprintf("%d", opt.Seed)}}}, nil
	})
	cfg := smallCfg()
	r := Runner{
		Registry:   reg,
		Options:    Options{Scale: Quick, Seed: 5, Metrics: true, Telemetry: true},
		Cache:      &Cache{Dir: t.TempDir()},
		ConfigName: "small",
	}

	cold, err := r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("cold run executed %d experiments, want 3", n)
	}
	for _, res := range cold {
		if res.Cached {
			t.Errorf("%s: cold run marked cached", res.Experiment.ID)
		}
	}

	warm, err := r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("warm run re-simulated: %d total executions, want 3", n)
	}
	for i, res := range warm {
		if !res.Cached {
			t.Errorf("%s: warm run not served from cache", res.Experiment.ID)
		}
		if res.Cycles != cold[i].Cycles {
			t.Errorf("%s: cached cycles %d, cold %d", res.Experiment.ID, res.Cycles, cold[i].Cycles)
		}
		if !reflect.DeepEqual(res.Metrics, cold[i].Metrics) {
			t.Errorf("%s: cached metrics differ from cold run", res.Experiment.ID)
		}
		if !reflect.DeepEqual(res.TelemetryWindows, cold[i].TelemetryWindows) {
			t.Errorf("%s: cached telemetry windows differ from cold run", res.Experiment.ID)
		}
	}
	if Report(cold) != Report(warm) {
		t.Fatal("warm report is not byte-identical to the cold report")
	}

	// A different seed must miss: the cache never serves stale results
	// across key changes.
	r.Options.Seed = 6
	if _, err := r.Run(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 6 {
		t.Fatalf("seed change hit the cache: %d total executions, want 6", n)
	}
}

// TestRunnerRechecksCachedResults pins that Check re-runs on cache hits: a
// cached figure that no longer satisfies its invariant fails the warm run.
func TestRunnerRechecksCachedResults(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{
		ID: "checked", Order: 0, Title: "fake", Section: "test",
		Run: func(cfg *config.Config, opt Options) (*Figure, error) {
			return &Figure{ID: "checked"}, nil
		},
		Check: func(cfg *config.Config, f *Figure) error {
			return errCheckAlwaysFails
		},
	})
	cfg := smallCfg()
	r := Runner{
		Registry: reg,
		Options:  quickOpts(),
		Cache:    &Cache{Dir: t.TempDir()},
	}
	// Cold run without Check populates the cache.
	if _, err := r.Run(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.Check = true
	warm, err := r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].Cached {
		t.Fatal("warm run not served from cache")
	}
	if warm[0].Err == nil {
		t.Fatal("failing Check not applied to cached result")
	}
}

// errCheckAlwaysFails is the sentinel the recheck test's Check returns.
var errCheckAlwaysFails = errForTest("invariant violated")

// errForTest is a trivial error type for test sentinels.
type errForTest string

func (e errForTest) Error() string { return string(e) }

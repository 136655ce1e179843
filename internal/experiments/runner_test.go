package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpunoc/internal/config"
)

// fakeRegistry builds a registry of n lightweight experiments whose Run
// functions call body (used to exercise the Runner without the simulator).
func fakeRegistry(n int, body func(id string, cfg *config.Config, opt Options) (*Figure, error)) *Registry {
	r := NewRegistry()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("exp%02d", i)
		r.MustRegister(Experiment{
			ID: id, Order: i, Title: "fake", Section: "test",
			Run: func(cfg *config.Config, opt Options) (*Figure, error) {
				return body(id, cfg, opt)
			},
		})
	}
	return r
}

func TestRegistryRejectsBadEntries(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Experiment{ID: "", Run: func(*config.Config, Options) (*Figure, error) { return nil, nil }}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := r.Register(Experiment{ID: "x"}); err == nil {
		t.Error("nil Run accepted")
	}
	ok := Experiment{ID: "x", Run: func(*config.Config, Options) (*Figure, error) { return nil, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestRegistryOrderIsStable(t *testing.T) {
	r := NewRegistry()
	run := func(*config.Config, Options) (*Figure, error) { return &Figure{}, nil }
	r.MustRegister(Experiment{ID: "b", Order: 2, Run: run})
	r.MustRegister(Experiment{ID: "c", Order: 1, Run: run})
	r.MustRegister(Experiment{ID: "a", Order: 2, Run: run})
	got := r.IDs()
	want := []string{"c", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

// TestDefaultRegistryCoversAllArtifacts pins the registered id set: every
// paper artifact the old hand-maintained ccbench table ran must be present.
func TestDefaultRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9",
		"fig10", "fig11", "fig13", "fig14", "fig15", "srr-defeat",
		"srr-tradeoff", "mps", "nvlink-remote-vs-local", "nvlink-channel",
		"noise", "ablation-warps", "ablation-slot",
		"ablation-speedup", "clock-fuzz", "side-channel", "table2",
		"noise-sweep", "coded-vs-uncoded", "detect-latency", "detector-roc",
	}
	got := defaultRegistry.IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments (%v), want %d", len(got), got, len(want))
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if a, b := DeriveSeed(5, "fig2"), DeriveSeed(5, "fig2"); a != b {
		t.Errorf("not stable: %d vs %d", a, b)
	}
	if DeriveSeed(5, "fig2") == DeriveSeed(5, "fig3") {
		t.Error("same seed for different ids")
	}
	if DeriveSeed(5, "fig2") == DeriveSeed(6, "fig2") {
		t.Error("same seed for different suite seeds")
	}
	seen := map[int64]string{}
	for _, id := range defaultRegistry.IDs() {
		s := DeriveSeed(5, id)
		if s <= 0 {
			t.Errorf("DeriveSeed(5, %q) = %d, want positive", id, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %q and %q", prev, id)
		}
		seen[s] = id
	}
}

func TestRunnerUnknownID(t *testing.T) {
	r := Runner{Options: quickOpts()}
	cfg := smallCfg()
	if _, err := r.Run(&cfg, []string{"fig999"}); err == nil ||
		!strings.Contains(err.Error(), "fig999") {
		t.Fatalf("err = %v, want unknown-experiment error naming fig999", err)
	}
}

// TestRunnerResultsInRegistryOrder checks that results come back in registry
// order even when completion order is scrambled by a worker pool, and that
// ids passed out of order are normalized.
func TestRunnerResultsInRegistryOrder(t *testing.T) {
	reg := fakeRegistry(16, func(id string, cfg *config.Config, opt Options) (*Figure, error) {
		return &Figure{ID: id}, nil
	})
	r := Runner{Registry: reg, Parallel: 8, Options: quickOpts()}
	cfg := smallCfg()
	results, err := r.Run(&cfg, []string{"exp07", "exp03", "exp11"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"exp03", "exp07", "exp11"}
	for i, res := range results {
		if res.Experiment.ID != want[i] {
			t.Errorf("result %d = %s, want %s", i, res.Experiment.ID, want[i])
		}
		if res.Figure == nil || res.Figure.ID != want[i] {
			t.Errorf("result %d figure mismatch", i)
		}
	}
}

// TestRunnerBoundsConcurrency verifies the worker pool never exceeds
// Parallel concurrent experiments.
func TestRunnerBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	gate := sync.NewCond(&mu)
	running := 0
	reg := fakeRegistry(12, func(id string, cfg *config.Config, opt Options) (*Figure, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Rendezvous: wait until 3 experiments are in flight at once so
		// the test actually observes the pool width.
		mu.Lock()
		running++
		gate.Broadcast()
		for running < 3 {
			gate.Wait()
		}
		mu.Unlock()
		cur.Add(-1)
		return &Figure{ID: id}, nil
	})
	r := Runner{Registry: reg, Parallel: 3, Options: quickOpts()}
	cfg := smallCfg()
	if _, err := r.Run(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 3 {
		t.Errorf("peak concurrency = %d, want 3", p)
	}
}

// TestRunnerSeedAndConfigIsolation verifies each experiment sees its own
// derived seed in both Options and Config, and that the caller's Config is
// never mutated.
func TestRunnerSeedAndConfigIsolation(t *testing.T) {
	var mu sync.Mutex
	seeds := map[string][2]int64{}
	reg := fakeRegistry(6, func(id string, cfg *config.Config, opt Options) (*Figure, error) {
		mu.Lock()
		seeds[id] = [2]int64{cfg.Seed, opt.Seed}
		mu.Unlock()
		return &Figure{ID: id}, nil
	})
	r := Runner{Registry: reg, Parallel: 4, Options: Options{Scale: Quick, Seed: 5}}
	cfg := smallCfg()
	cfg.Seed = 42
	if _, err := r.Run(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.Meter != nil {
		t.Errorf("caller config mutated: seed=%d meter=%v", cfg.Seed, cfg.Meter)
	}
	for id, s := range seeds {
		want := DeriveSeed(5, id)
		if s[0] != want || s[1] != want {
			t.Errorf("%s ran with cfg.Seed=%d opt.Seed=%d, want %d", id, s[0], s[1], want)
		}
	}
}

func TestRunnerCheckMode(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{
		ID: "good", Order: 1,
		Run:   func(*config.Config, Options) (*Figure, error) { return &Figure{ID: "good"}, nil },
		Check: func(*config.Config, *Figure) error { return nil },
	})
	reg.MustRegister(Experiment{
		ID: "bad", Order: 2,
		Run:   func(*config.Config, Options) (*Figure, error) { return &Figure{ID: "bad"}, nil },
		Check: func(*config.Config, *Figure) error { return errors.New("shape violated") },
	})
	cfg := smallCfg()
	r := Runner{Registry: reg, Options: quickOpts()}
	results, err := r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Errorf("checks ran without Check mode: %v %v", results[0].Err, results[1].Err)
	}
	r.Check = true
	results, err = r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("good: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "shape violated") {
		t.Errorf("bad: err = %v, want check failure", results[1].Err)
	}
}

// TestRunnerRecoversPanic checks that a panicking experiment becomes its
// own failed Result, carrying the panic value and leaving no cache entry,
// while the other experiment of the run still reports its figure.
func TestRunnerRecoversPanic(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Experiment{
		ID: "boom", Order: 1,
		Run: func(*config.Config, Options) (*Figure, error) { panic("index out of range [0] with length 0") },
	})
	reg.MustRegister(Experiment{
		ID: "fine", Order: 2,
		Run: func(*config.Config, Options) (*Figure, error) {
			f := &Figure{ID: "fine", Title: "still reported"}
			f.addSeries("s", []float64{0}, []float64{1})
			return f, nil
		},
	})
	cfg := smallCfg()
	cache := &Cache{Dir: t.TempDir()}
	r := Runner{Registry: reg, Parallel: 2, Options: quickOpts(), Cache: cache, ConfigName: "small"}
	results, err := r.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom, fine := results[0], results[1]
	if boom.Err == nil || !strings.Contains(boom.Err.Error(), "index out of range [0] with length 0") {
		t.Errorf("boom: err = %v, want the panic value", boom.Err)
	}
	if _, ok := cache.Get(NewCacheKey(&cfg, "small", r.Options, "boom")); ok {
		t.Error("boom: a panicking run was cached")
	}
	if fine.Err != nil || fine.Figure == nil {
		t.Fatalf("fine: err %v, figure %v", fine.Err, fine.Figure)
	}
	if _, ok := cache.Get(NewCacheKey(&cfg, "small", r.Options, "fine")); !ok {
		t.Error("fine: the successful run was not cached")
	}
	if rep := Report(results); !strings.Contains(rep, "still reported") || !strings.Contains(rep, "FAILED boom: panic: ") {
		t.Errorf("report lacks the figure or the failure:\n%s", rep)
	}
}

// TestRunnerCollectsCycles runs one real experiment and verifies simulated
// cycles are attributed, and that table1 (which builds no engine) reports 0.
func TestRunnerCollectsCycles(t *testing.T) {
	cfg := smallCfg()
	r := Runner{Parallel: 2, Options: quickOpts()}
	results, err := r.Run(&cfg, []string{"table1", "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Experiment.ID != "table1" || results[0].Cycles != 0 {
		t.Errorf("table1 cycles = %d, want 0", results[0].Cycles)
	}
	if results[1].Experiment.ID != "fig2" || results[1].Cycles == 0 {
		t.Error("fig2 reported no simulated cycles")
	}
	if results[1].Err != nil {
		t.Fatal(results[1].Err)
	}
}

func TestReportAndSummary(t *testing.T) {
	results := []Result{
		{Experiment: Experiment{ID: "a"}, Figure: &Figure{ID: "a", Title: "t"}},
		{Experiment: Experiment{ID: "b"}, Err: errors.New("boom")},
	}
	rep := Report(results)
	if !strings.Contains(rep, "== a: t ==") || !strings.Contains(rep, "FAILED b: boom") {
		t.Errorf("report:\n%s", rep)
	}
	sum := Summary(results)
	if !strings.Contains(sum, "2 experiments, 1 failed") {
		t.Errorf("summary:\n%s", sum)
	}
}

// TestSuiteDeterministicAcrossParallelism is the determinism regression the
// concurrent runner ships with: the full registered suite at suite seed 5
// renders a byte-identical report with 1 worker and with 8, and every
// experiment simulates exactly the same number of engine cycles.
func TestSuiteDeterministicAcrossParallelism(t *testing.T) {
	cfg := smallCfg()
	opts := Options{Scale: Quick, Seed: 5}

	seq := Runner{Parallel: 1, Options: opts}
	r1, err := seq.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := Runner{Parallel: 8, Options: opts}
	r8, err := par.Run(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, res := range r1 {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Experiment.ID, res.Err)
		}
	}
	rep1, rep8 := Report(r1), Report(r8)
	if rep1 != rep8 {
		t.Fatalf("reports differ between -parallel 1 and -parallel 8:\n%s",
			firstDiff(rep1, rep8))
	}
	for i := range r1 {
		if r1[i].Cycles != r8[i].Cycles {
			t.Errorf("%s: %d cycles sequential vs %d parallel",
				r1[i].Experiment.ID, r1[i].Cycles, r8[i].Cycles)
		}
	}
}

// firstDiff returns a short context window around the first byte where a
// and b diverge, for readable failure output.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hiA, hiB := i-80, i+80, i+80
			if lo < 0 {
				lo = 0
			}
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("at byte %d:\n  seq: %q\n  par: %q", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

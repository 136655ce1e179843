package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSummary(t *testing.T) {
	stderr := `gpunoc: a diagnostic line before the table
experiment               wall         cycles     cycles/s  status
fig3                  10.134s         813867      0.0803M  ok
nvlink-remote-vs-local    854ms         407112       0.477M  ok
mps                     108ms         379779        3.51M  FAILED
total                 11.096s        1600758               3 experiments, 1 failed
`
	s, err := parseSummary(stderr)
	if err != nil {
		t.Fatal(err)
	}
	if s.totalCycles != 1600758 || s.experiments != 3 || s.failed != 1 {
		t.Errorf("totals = %d cycles, %d experiments, %d failed", s.totalCycles, s.experiments, s.failed)
	}
	want := []summaryRow{
		{"fig3", 813867, "ok"},
		{"nvlink-remote-vs-local", 407112, "ok"},
		{"mps", 379779, "FAILED"},
	}
	if len(s.rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(s.rows), len(want))
	}
	for i, r := range s.rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}

	for name, bad := range map[string]string{
		"no total":  "experiment wall cycles cycles/s status\nfig3 1s 10 1M ok\n",
		"count":     "experiment wall cycles cycles/s status\nfig3 1s 10 1M ok\ntotal 1s 10 2 experiments, 0 failed\n",
		"bad total": "experiment wall cycles cycles/s status\ntotal 1s ten 0 experiments, 0 failed\n",
		"no table":  "ccbench: unknown experiment\n",
	} {
		if _, err := parseSummary(bad); err == nil {
			t.Errorf("%s: parseSummary accepted %q", name, bad)
		}
	}
}

const pprofSample = `File: gpunoc-bench
Type: cpu
Duration: 7.51s, Total samples = 7.03s (93.61%)
Showing nodes accounting for 7.03s, 100% of 7.03s total
      flat  flat%   sum%        cum   cum%
     1.20s 17.07% 17.07%      3.82s 54.34%  gpunoc/internal/probe.(*Registry).Snapshot
     0.50s  7.11% 24.18%      0.58s  8.25%  gpunoc/internal/noc.(*Network).Tick
     0.30s  4.27% 28.45%      0.30s  4.27%  gpunoc/internal/ring.(*Buffer[go.shape.*gpunoc/internal/packet.Packet]).Push
     250ms  3.56% 32.01%      1.41s 20.06%  gpunoc/internal/engine.(*GPU).step
      40ms  0.57% 32.58%      1.10s 15.65%  gpunoc/internal/core.Calibrate
      10ms  0.14% 32.72%      0.77s 10.95%  gpunoc/internal/core.CalibrateRemote
     0.90s 12.80% 45.52%      0.90s 12.80%  runtime.mallocgc
     0.10s  1.42% 46.94%      0.10s  1.42%  internal/runtime/maps.(*Map).getWithKeySmall
     0.60s  8.53% 55.48%      0.80s 11.38%  sort.insertionSort
     500us  0.01% 55.49%     1.5mins 99.00%  main.main
         0     0% 55.49%      0.20s  2.84%  gpunoc/internal/mesh.(*Mesh).stepCycle
`

func TestParsePprofTop(t *testing.T) {
	p, err := parsePprofTop(pprofSample)
	if err != nil {
		t.Fatal(err)
	}
	if p.total != 7.03 {
		t.Errorf("total = %g, want 7.03", p.total)
	}
	if len(p.funcs) != 11 {
		t.Errorf("parsed %d functions, want 11", len(p.funcs))
	}
	for fn, want := range map[string]profileRow{
		"gpunoc/internal/probe.(*Registry).Snapshot": {1.20, 3.82},
		"gpunoc/internal/engine.(*GPU).step":         {0.25, 1.41},
		"main.main":                                  {0.0005, 90},
		"gpunoc/internal/mesh.(*Mesh).stepCycle":     {0, 0.20},
	} {
		got := p.funcs[fn]
		if math.Abs(got.flat-want.flat) > 1e-9 || math.Abs(got.cum-want.cum) > 1e-9 {
			t.Errorf("%s = %+v, want %+v", fn, got, want)
		}
	}
	if _, err := parsePprofTop("flat flat% sum% cum cum%\n"); err == nil {
		t.Error("parsePprofTop accepted output without a total")
	}
	if _, err := parsePprofTop("Total samples = 1s\n flat flat% sum% cum cum%\n 1parsecs 1% 1% 1s 1% f\n"); err == nil {
		t.Error("parsePprofTop accepted a bad duration")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gpunoc/internal/engine.(*GPU).step":                                           "gpunoc/internal/engine",
		"gpunoc/internal/ring.(*Buffer[go.shape.*gpunoc/internal/packet.Packet]).Push": "gpunoc/internal/ring",
		"gpunoc/internal/core.Calibrate":                                               "gpunoc/internal/core",
		"gpunoc/internal/noc.(*Network).Tick.func1":                                    "gpunoc/internal/noc",
		"runtime.mallocgc":                                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                 "internal/runtime/maps",
		"math/rand.(*rngSource).Seed":                                                  "math/rand",
		"main.main":                                                                    "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileMetrics(t *testing.T) {
	p, err := parsePprofTop(pprofSample)
	if err != nil {
		t.Fatal(err)
	}
	m := profileMetrics(p)
	for name, want := range map[string]float64{
		"probe.snapshot_s":     3.82,
		"probe.self_s":         1.20,
		"noc.tick_s":           0.58,
		"noc.self_s":           0.80, // noc 0.50 + ring 0.30
		"engine.step_s":        1.41,
		"engine.self_s":        0.25,
		"core.calibrate_s":     1.87,
		"core.calibrate_share": 1.87 / 7.03,
		"mesh.step_s":          0.20,
		"runtime.self_s":       1.00, // runtime 0.90 + internal/runtime/maps 0.10
		"stdlib.self_s":        0.6005,
		"trace.profile_s":      7.03,
		"dram.tick_s":          0,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestLinkGroup(t *testing.T) {
	for name, want := range map[string]string{
		"noc/tpc3-req/occupancy":     "tpc_req",
		"noc/gpc1-req/occupancy":     "gpc_req",
		"noc/xbar->slice7/occupancy": "xbar",
		"noc/gpc0-rep/occupancy":     "gpc_rep",
		"noc/tpc12-rep/occupancy":    "tpc_rep",
		"nvlink/d0->d1/occupancy":    "",
	} {
		if got := linkGroup(name); got != want {
			t.Errorf("linkGroup(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		got, n := percentile(xs, tc.p)
		if got != tc.want || n != 200 {
			t.Errorf("p%g = %g over n=%d, want %g over 200", tc.p, got, n, tc.want)
		}
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("empty p50 = %g over n=%d", got, n)
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSuiteSeed(t *testing.T) {
	vetted := []int64{4, 5, 6, 9}
	for seed, want := range map[int64]int64{5: 5, 9: 9, 1: 5, 2: 6, 8: 4, -1: 9, 1 << 40: 4} {
		if got := suiteSeed(seed, vetted); got != want {
			t.Errorf("suiteSeed(%d) = %d, want %d", seed, got, want)
		}
	}
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if suiteSeed(p.DigestSeed, p.SuiteSeeds) != p.DigestSeed {
		t.Error("the digest seed must be a vetted suite seed")
	}
}

// benchmarkDefs reads the metric names and units BENCHMARK.json declares.
func benchmarkDefs(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

// TestMetricTablesMatchBenchmark keeps the harness's metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmark(t *testing.T) {
	e2e, perLayer := benchmarkDefs(t)
	for _, c := range []struct {
		want map[string]string
		defs []metricDef
	}{{e2e, e2eMetrics}, {perLayer, perLayerMetrics()}} {
		got := map[string]string{}
		for _, d := range c.defs {
			got[d.name] = d.unit
		}
		for name, unit := range c.want {
			if got[name] != unit {
				t.Errorf("BENCHMARK.json metric %s [%s]: harness reports [%s]", name, unit, got[name])
			}
		}
		if len(got) != len(c.want) {
			t.Errorf("harness reports %d metrics, BENCHMARK.json declares %d", len(got), len(c.want))
		}
	}
}

// TestSmoke runs the harness end to end on a 2-experiment small workload
// and a single-job server round trip, with tracing off and on, and checks
// that every metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simulator")
	}
	e2e, perLayer := benchmarkDefs(t)
	smoke := []workload{
		{name: "smoke-small", config: "small", parallel: 2, ids: []string{"table1", "mps"}},
		{name: "smoke-server", config: "small", server: true, ids: []string{"table1"}},
	}
	for _, traced := range []bool{false, true} {
		opt := options{root: "../..", work: t.TempDir(), seed: 5, seconds: 0.2, trace: traced}
		var out strings.Builder
		results, err := runAll(opt, smoke, &out)
		if err != nil {
			t.Fatal(err)
		}
		want := e2e
		if traced {
			want = perLayer
		}
		for _, r := range results {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d operations failed: %v", r.Workload, traced, r.Failed, r.Attempted, r.Failures)
			}
			for name, unit := range want {
				line := r.Workload + " " + name + " "
				found := false
				for _, l := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(l, line) && strings.HasSuffix(l, " "+unit) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s traced=%t: no %q line ending in unit %s", r.Workload, traced, line, unit)
				}
			}
		}
		if traced {
			for _, w := range smoke {
				for _, f := range []string{"trace.jsonl", "cpu.pprof"} {
					if _, err := os.Stat(filepath.Join(opt.work, "trace", w.name+"-seed5", f)); err != nil {
						t.Errorf("traced run wrote no %s: %v", f, err)
					}
				}
			}
		}
	}
}

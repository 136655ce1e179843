// Command gpunoc-bench is the repository's end-to-end benchmark. It builds
// cmd/ccbench and cmd/gpunoc-server from the tree it sits in, runs them as
// child processes on four fixed workloads, times them from outside, and
// checks their outputs against pinned digests and against each other.
//
// Usage (from the repository root):
//
//	bash cmd/gpunoc-bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR]
//
// run.sh builds the harness (a module of its own, so the root module's
// `go build ./...` and `go test ./...` never see it) and keeps every build
// product under .bench_build. Without -workload all four workloads run.
//
// # Workloads
//
//   - suite-small: ccbench -config small -scale quick -parallel 1 -check, all
//     29 experiments. The everyday reproduction command; broad, sparse traffic,
//     so SM tick, NoC tick and calibration dominate.
//   - volta-dense: ccbench -config volta -parallel 1 -check -only fig3,fig4,fig5.
//     The reverse-engineering probes load many of the 80 SMs and 48 slices at
//     once; link, L2-slice and engine.New costs dominate.
//   - volta-observed: ccbench -config volta -parallel 1 -check -only
//     fig9,fig13,clock-fuzz,nvlink-channel,detect-latency -metrics -telemetry.
//     The defender's view: probes, the windowed sampler and the detector on,
//     plus the NVLink mesh.
//   - server-jobs: gpunoc-server -workers 1 on the default config (the
//     sharded engine, two threads per job), driven by one closed-loop client.
//     A cold phase submits 24 small/quick ids once (cache misses, simulated
//     and stored); a warm phase resubmits them round-robin (cache hits) until
//     -seconds have passed, for at least 5 s.
//
// Every child runs at most two threads, the core count of the host the
// baseline was taken on: more would measure the scheduler. The -seed flag
// picks the ccbench suite seed from the vetted list in baseline.json (see
// suiteSeed).
//
// # Metrics
//
// With -trace 0 every run reports the end-to-end metrics, measured on the
// shipped binaries with tracing off: setup_s (median start-up time: ccbench
// -list, or exec to the first 200 from /v1/healthz), wall_s (one pass: the
// ccbench child's exec to exit, or the server's cold phase), sim_cycles_per_s
// and peak_rss_mb (the child's maxrss). A ccbench run makes one pass and
// repeats it while another should end within -seconds; each metric is the
// median over the passes.
//
// With -trace 1 the harness runs one end-to-end pass and then the workload
// in-process under a CPU profile, one span per experiment or job phase, and
// reports per-layer metrics: self time per package group and inclusive time
// of named entry points (from `go tool pprof -top`), simulated counts from
// the probe registry, runtime costs, the client-side server spans, and the
// tracing overhead. It writes trace.jsonl and cpu.pprof into -trace-dir.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed experiment, non-2xx
// response, failed job, nondeterministic repeat or digest mismatch counts as
// a failed operation and makes the harness exit 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpunoc/internal/experiments"
)

// workload is one benchmark input set.
type workload struct {
	name     string
	config   string   // "small" or "volta"
	ids      []string // experiments in registry order; nil means all of them
	parallel int      // ccbench -parallel
	observed bool     // ccbench -metrics and -telemetry
	server   bool     // driven through gpunoc-server instead of ccbench
}

var workloads = []workload{
	{name: "suite-small", config: "small", parallel: 1},
	{name: "volta-dense", config: "volta", parallel: 1, ids: []string{"fig3", "fig4", "fig5"}},
	{name: "volta-observed", config: "volta", parallel: 1, observed: true,
		ids: []string{"fig9", "fig13", "nvlink-channel", "clock-fuzz", "detect-latency"}},
	// Every registered experiment but the five longest (fig10, noise,
	// noise-sweep, coded-vs-uncoded, detector-roc), which would take three
	// quarters of the cold phase between them.
	{name: "server-jobs", config: "small", server: true, ids: []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig11",
		"fig13", "fig14", "fig15", "srr-defeat", "srr-tradeoff", "mps",
		"nvlink-remote-vs-local", "nvlink-channel", "ablation-warps", "ablation-slot",
		"ablation-speedup", "clock-fuzz", "side-channel", "table2", "detect-latency",
	}},
}

// experimentIDs is the workload's experiment list, in registry order.
func (w workload) experimentIDs() []string {
	if w.ids != nil {
		return w.ids
	}
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported by every run with tracing off.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by every traced run; the per-experiment wall
// times follow the registry.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"engine.new_s", "s"}, {"engine.step_s", "s"}, {"engine.self_s", "s"},
		{"engine.sim_cycles", "cycles"}, {"engine.cycles_stepped", "cycles"},
		{"engine.ffwd_cycles", "cycles"}, {"engine.ns_per_stepped_cycle", "ns"},
		{"sm.tick_s", "s"}, {"sm.self_s", "s"}, {"sm.ticks", "count"},
		{"sm.lsu_stalls", "count"}, {"sm.ns_per_tick", "ns"},
		{"noc.tick_s", "s"}, {"noc.self_s", "s"}, {"noc.link_ticks", "count"},
		{"noc.tpc_req.busy", "cycles"}, {"noc.gpc_req.busy", "cycles"},
		{"noc.xbar.busy", "cycles"}, {"noc.gpc_rep.busy", "cycles"},
		{"noc.tpc_rep.busy", "cycles"}, {"noc.queue_wait_cycles", "cycles"},
		{"noc.ns_per_link_tick", "ns"},
		{"mem.tick_s", "s"}, {"mem.self_s", "s"}, {"mem.slice_ticks", "count"},
		{"mem.l2_hits", "count"}, {"mem.l2_misses", "count"}, {"mem.l2_stalls", "count"},
		{"mem.ns_per_slice_tick", "ns"},
		{"dram.tick_s", "s"}, {"dram.mc_ticks", "count"},
		{"dram.row_hits", "count"}, {"dram.row_misses", "count"},
		{"probe.snapshot_s", "s"}, {"probe.self_s", "s"}, {"telemetry.self_s", "s"},
		{"core.calibrate_s", "s"}, {"core.calibrate_share", "ratio"},
		{"mesh.step_s", "s"},
		{"runtime.self_s", "s"}, {"stdlib.self_s", "s"}, {"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_s", "s"}, {"trace.profile_s", "s"}, {"trace.cpu_overhead", "ratio"},
		{"server.submit_ms", "ms"}, {"server.queue_wait_s", "s"}, {"server.run_s", "s"},
		{"server.poll_ms", "ms"}, {"server.sim_cycles", "cycles"},
		{"server.hit_p50_ms", "ms"}, {"server.hit_p99_ms", "ms"},
	}
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + e.ID + ".wall_s", "s"})
	}
	return defs
}

//go:embed baseline.json
var baselineJSON []byte

// pins is the part of baseline.json the harness enforces: the vetted suite
// seeds and the output digests pinned for one of them.
type pins struct {
	// SuiteSeeds are ccbench suite seeds on which every experiment of every
	// workload passes -check and which simulate nearly equal numbers of
	// cycles; see suiteSeed.
	SuiteSeeds []int64 `json:"suite_seeds"`
	// DigestSeed is the suite seed the digests were pinned at.
	DigestSeed int64 `json:"digest_seed"`
	// Digests maps workload → output name → md5.
	Digests map[string]map[string]string `json:"digests"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(baselineJSON, &p); err != nil {
		return p, fmt.Errorf("parsing baseline.json: %w", err)
	}
	if len(p.SuiteSeeds) == 0 {
		return p, fmt.Errorf("baseline.json lists no suite seeds")
	}
	return p, nil
}

// suiteSeed maps the harness seed to the ccbench suite seed the workload
// runs with: the seed itself when it is vetted, otherwise a vetted seed
// picked by it. Some suite seeds make a paper-shape check fail (fig10's
// calibration, noise-sweep's monotonicity); the benchmark measures speed and
// output stability, so it runs only seeds on which the model passes.
func suiteSeed(seed int64, vetted []int64) int64 {
	for _, s := range vetted {
		if s == seed {
			return s
		}
	}
	i := seed % int64(len(vetted))
	if i < 0 {
		i += int64(len(vetted))
	}
	return vetted[i]
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and failures; every failure keeps its reason.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

// fail records n failed operations for the given reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// result is everything one workload run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	SuiteSeed int64             `json:"suite_seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Passes    []passRecord      `json:"passes,omitempty"`
}

// passRecord is one timed pass: a ccbench child, or the server's cold phase.
type passRecord struct {
	WallS     float64 `json:"wall_s"`
	SimCycles uint64  `json:"sim_cycles"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// setMetrics fills r.Metrics from values, in the units defs gives. A value
// the run could not produce (NaN, ±Inf) is reported as 0.
func (r *result) setMetrics(defs []metricDef, values map[string]float64) {
	r.Metrics = map[string]metric{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

// printLines writes one "workload metric value unit" line per metric, in
// definition order.
func (r *result) printLines(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, d.name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "# %s %s n=%d\n", r.Workload, name, r.Samples[name])
	}
	fmt.Fprintf(w, "# %s attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	flag.StringVar(&opt.root, "root", ".", "repository root: the tree whose ccbench and gpunoc-server are measured")
	flag.StringVar(&opt.work, "work", "", "work directory for binaries, scratch files and results (default ROOT/.bench_build/gpunoc-bench.d)")
	name := flag.String("workload", "", "workload to run: suite-small, volta-dense, volta-observed or server-jobs (empty = all four)")
	flag.Int64Var(&opt.seed, "seed", 5, "workload seed; 5 is the seed the output digests are pinned at")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring time: ccbench passes repeat while another fits in it; the server's warm phase runs until it is spent")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&opt.traceDir, "trace-dir", "", "where a traced run writes trace.jsonl and cpu.pprof (default WORK/trace/WORKLOAD-seedN)")
	flag.Parse()
	opt.trace = *trace == 1

	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "gpunoc-bench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "gpunoc-bench: -seconds must be positive\n")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || w.name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "gpunoc-bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	results, err := runAll(opt, selected, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-bench: %v\n", err)
		os.Exit(2)
	}
	line := summaryLine{Metrics: map[string]metric{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "gpunoc-bench: %s: %s\n", r.Workload, f)
		}
		for k, m := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			line.Metrics[k] = m
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpunoc-bench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// options are the harness flags.
type options struct {
	root, work string
	seed       int64
	seconds    float64
	trace      bool
	traceDir   string
}

// runAll builds the binaries once, runs each workload, prints its metric
// lines to out, and writes each result as JSON into the work directory.
func runAll(opt options, selected []workload, out io.Writer) ([]*result, error) {
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return nil, err
	}
	opt.root = root
	if opt.work == "" {
		opt.work = filepath.Join(root, ".bench_build", "gpunoc-bench.d")
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# host %s\n", b.host)
	var results []*result
	for _, w := range selected {
		r, err := b.run(w, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		defs := e2eMetrics
		if opt.trace {
			defs = perLayerMetrics()
		}
		r.printLines(out, defs)
		if err := writeResult(opt.work, r); err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// writeResult stores r as WORK/results/WORKLOAD-seedN[-trace].json.
func writeResult(work string, r *result) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		name += "-trace"
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(blob, '\n'), 0o644)
}

// digestMismatch compares got with the digest pinned for workload/output. It
// returns the mismatch, or nothing when the digests agree or the run did not
// use the digest seed.
func digestMismatch(p pins, suite int64, workload, output, got string) []string {
	want, ok := p.Digests[workload][output]
	if suite != p.DigestSeed || !ok || got == want {
		return nil
	}
	return []string{fmt.Sprintf("%s digest %s, pinned %s at seed %d", output, got, want, p.DigestSeed)}
}

// tail returns at most the last n bytes of s, for error messages.
func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

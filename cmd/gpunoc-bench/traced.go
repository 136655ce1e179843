package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/experiments"
	"gpunoc/internal/probe"
	"gpunoc/internal/server"
	"gpunoc/internal/telemetry"
)

// span is one traced interval; times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs call the same code.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// duration is the length of closed span id in seconds.
func (l *spanLog) duration(id int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// processCPU is this process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeCost samples the allocation and GC counters the runtime layer
// reports.
type runtimeCost struct {
	allocBytes uint64
	gcCPU      float64
	cpu        float64
}

func readRuntimeCost() runtimeCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	c := runtimeCost{allocBytes: ms.TotalAlloc, cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	return c
}

// traced runs workload w once end to end (for the report comparison and the
// overhead base) and once in-process under a CPU profile with spans, and
// derives the per-layer metrics.
func (b *bench) traced(w workload, p pins, seed int64, tmp string, t *tally) (map[string]float64, error) {
	dir := b.opt.traceDir
	if dir == "" {
		dir = filepath.Join(b.opt.work, "trace", fmt.Sprintf("%s-seed%d", w.name, b.opt.seed))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()

	// The end-to-end reference run, tracing off.
	var refCPU float64
	var ref ccPass
	var refJobs jobRun
	if w.server {
		run, ps, err := b.serverRun(w, seed, tmp, t)
		if err != nil {
			return nil, err
		}
		checkJobs(t, p, w, seed, run)
		refJobs, refCPU = run, cpuSeconds(ps)
	} else {
		if ref, err = b.ccbenchPass(w, seed, tmp); err != nil {
			return nil, err
		}
		checkPass(t, p, w, seed, &ref, &ref)
		refCPU = ref.cpu
	}

	spans := newSpanLog()
	values := map[string]float64{}
	before := readRuntimeCost()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	if w.server {
		err = b.traceServer(w, seed, tmp, t, spans, refJobs, values)
	} else {
		err = traceCCBench(w, seed, t, spans, ref, values)
	}
	pprof.StopCPUProfile()
	after := readRuntimeCost()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(dir, "trace.jsonl")); err != nil {
		return nil, err
	}

	top, err := pprofTop(profPath)
	if err != nil {
		return nil, err
	}
	for k, v := range profileMetrics(top) {
		values[k] = v
	}
	values["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	values["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
	values["trace.cpu_overhead"] = (after.cpu - before.cpu) / refCPU
	perTick := []struct{ metric, secs, count string }{
		{"engine.ns_per_stepped_cycle", "engine.step_s", "engine.cycles_stepped"},
		{"sm.ns_per_tick", "sm.tick_s", "sm.ticks"},
		{"noc.ns_per_link_tick", "noc.tick_s", "noc.link_ticks"},
		{"mem.ns_per_slice_tick", "mem.tick_s", "mem.slice_ticks"},
	}
	for _, pt := range perTick {
		if values[pt.count] > 0 {
			values[pt.metric] = values[pt.secs] * 1e9 / values[pt.count]
		}
	}
	return values, nil
}

// configFor returns the base configuration a workload names.
func configFor(name string) config.Config {
	if name == "volta" {
		return config.Volta()
	}
	return config.Small()
}

// traceCCBench runs a ccbench workload in-process: the same config, seed and
// -check through experiments.Runner at Parallel 1 with probe metrics on
// (and telemetry for an observed workload), one span per experiment. It
// checks the rendered report and observer files against the reference pass.
func traceCCBench(w workload, seed int64, t *tally, spans *spanLog, ref ccPass, values map[string]float64) error {
	cfg := configFor(w.config)
	runner := experiments.Runner{
		Parallel: 1,
		Options:  experiments.Options{Scale: experiments.Quick, Seed: seed, Metrics: true, Telemetry: w.observed},
		Check:    true,
	}
	root := spans.start("workload/"+w.name, 0)
	var results []experiments.Result
	for _, id := range w.experimentIDs() {
		s := spans.start("experiment/"+id, root)
		res, err := runner.Run(&cfg, []string{id})
		spans.end(s)
		if err != nil {
			return err
		}
		values["experiments."+id+".wall_s"] = spans.duration(s)
		results = append(results, res...)
	}
	spans.end(root)

	t.attempted += len(results)
	var snaps []probe.Snapshot
	for _, res := range results {
		values["engine.sim_cycles"] += float64(res.Cycles)
		snaps = append(snaps, res.Metrics)
		if res.Err != nil {
			t.fail(1, "traced %s: %v", res.Experiment.ID, res.Err)
		}
	}
	for k, v := range probeMetrics(snaps) {
		values[k] = v
	}

	report := fmt.Sprintf("gpunoc ccbench: config=%s scale=quick seed=%d\n\n", cfg.Name, seed) + experiments.Report(results)
	if report != string(ref.stdout) {
		t.fail(len(results), "traced report differs from the end-to-end report")
	}
	if w.observed {
		files, err := observerFiles(results)
		if err != nil {
			return err
		}
		if digestFiles(files) != digestFiles(ref.files) {
			t.fail(len(results), "traced metrics/telemetry files differ from the end-to-end ones")
		}
	}
	return nil
}

// observerFiles renders the -metrics and -telemetry files ccbench writes for
// a result set.
func observerFiles(results []experiments.Result) (map[string][]byte, error) {
	files := map[string][]byte{}
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		id := res.Experiment.ID
		blob, err := json.MarshalIndent(res.Metrics, "", "  ")
		if err != nil {
			return nil, err
		}
		files[id+".metrics.json"] = append(blob, '\n')
		files[id+".metrics.csv"] = []byte(res.Metrics.CSV())
		var wb, eb bytes.Buffer
		if err := telemetry.WriteWindowsJSONL(&wb, res.TelemetryWindows); err != nil {
			return nil, err
		}
		if err := telemetry.WriteEventsJSONL(&eb, res.TelemetryEvents); err != nil {
			return nil, err
		}
		files[id+".windows.jsonl"] = wb.Bytes()
		files[id+".events.jsonl"] = eb.Bytes()
	}
	return files, nil
}

// traceServer runs the server workload against an in-process server (the
// same internal/server handler gpunoc-server serves, on a loopback port),
// with client-side spans per job phase, and checks the cold reports against
// the end-to-end run's.
func (b *bench) traceServer(w workload, seed int64, tmp string, t *tally, spans *spanLog, ref jobRun, values map[string]float64) error {
	cache, err := os.MkdirTemp(tmp, "trace-cache-")
	if err != nil {
		return err
	}
	s, err := server.New(server.Config{Cache: &experiments.Cache{Dir: cache}, Workers: clients})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	ids := w.experimentIDs()
	d := newJobClients("http://"+ln.Addr().String(), seed, ids, t, spans)
	run := d.run(time.Duration(b.opt.seconds * float64(time.Second)))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	<-served
	s.Close()
	if shutErr != nil {
		return fmt.Errorf("stopping the traced server: %w", shutErr)
	}

	t.attempted += run.attempted
	if !bytes.Equal(run.coldReports(ids), ref.coldReports(ids)) {
		t.fail(len(ids), "traced cold reports differ from the end-to-end ones")
	}
	var submit, queue, poll []float64
	for _, jt := range run.jobs {
		if jt.done.IsZero() {
			continue
		}
		submit = append(submit, float64(jt.submitEnd.Sub(jt.submitted))/float64(time.Millisecond))
		queue = append(queue, jt.running.Sub(jt.submitEnd).Seconds())
		runS := jt.done.Sub(jt.running).Seconds()
		values["server.run_s"] += runS
		values["experiments."+jt.id+".wall_s"] = runS
		for _, p := range jt.polls {
			poll = append(poll, float64(p)/float64(time.Millisecond))
		}
	}
	values["server.submit_ms"] = median(submit)
	values["server.queue_wait_s"] = median(queue)
	values["server.poll_ms"] = median(poll)
	values["server.sim_cycles"] = float64(run.cycles)
	values["engine.sim_cycles"] = float64(run.cycles)
	values["server.hit_p50_ms"], _ = percentile(run.warm, 50)
	values["server.hit_p99_ms"], _ = percentile(run.warm, 99)
	return nil
}

// pprofTop runs `go tool pprof -top` over every node of a CPU profile.
func pprofTop(path string) (profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %v: %s", err, tail(stderr.String(), 400))
	}
	return parsePprofTop(stdout.String())
}

// selfGroups maps a self-time metric to the module packages whose flat time
// it sums.
var selfGroups = map[string][]string{
	"engine.self_s":    {"engine", "sched", "tbsched"},
	"sm.self_s":        {"sm", "warp", "device"},
	"noc.self_s":       {"noc", "link", "arb", "ring", "packet"},
	"mem.self_s":       {"mem", "cache"},
	"probe.self_s":     {"probe"},
	"telemetry.self_s": {"telemetry"},
}

// entryPoints maps an inclusive-time metric to the functions whose
// cumulative time it sums.
var entryPoints = map[string][]string{
	"engine.new_s":     {"gpunoc/internal/engine.New"},
	"engine.step_s":    {"gpunoc/internal/engine.(*GPU).step"},
	"sm.tick_s":        {"gpunoc/internal/sm.(*SM).Tick"},
	"noc.tick_s":       {"gpunoc/internal/noc.(*Network).Tick"},
	"mem.tick_s":       {"gpunoc/internal/mem.(*Partition).Tick"},
	"dram.tick_s":      {"gpunoc/internal/dram.(*Controller).Tick"},
	"probe.snapshot_s": {"gpunoc/internal/probe.(*Registry).Snapshot"},
	"core.calibrate_s": {"gpunoc/internal/core.Calibrate", "gpunoc/internal/core.CalibrateRemote"},
	"mesh.step_s":      {"gpunoc/internal/mesh.(*Mesh).stepCycle"},
}

// profileMetrics attributes a profile to layers: self time per package group
// (runtime and the rest of the standard library apart), inclusive time per
// named entry point, and the calibration share of all sampled time.
func profileMetrics(p profile) map[string]float64 {
	group := map[string]string{}
	for metric, pkgs := range selfGroups {
		for _, pkg := range pkgs {
			group["gpunoc/internal/"+pkg] = metric
		}
	}
	out := map[string]float64{"trace.profile_s": p.total}
	for fn, row := range p.funcs {
		pkg := packageOf(fn)
		switch {
		case group[pkg] != "":
			out[group[pkg]] += row.flat
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
			out["runtime.self_s"] += row.flat
		case !strings.HasPrefix(pkg, "gpunoc"):
			out["stdlib.self_s"] += row.flat
		}
	}
	for metric, fns := range entryPoints {
		for _, fn := range fns {
			out[metric] += p.funcs[fn].cum
		}
	}
	if p.total > 0 {
		out["core.calibrate_share"] = out["core.calibrate_s"] / p.total
	}
	return out
}

// probeMetrics sums the simulated counts of the probe snapshots.
func probeMetrics(snaps []probe.Snapshot) map[string]float64 {
	sched := map[string]string{
		"sched/cycles":      "engine.cycles_stepped",
		"sched/ffwd_cycles": "engine.ffwd_cycles",
		"sched/sm_ticks":    "sm.ticks",
		"sched/link_ticks":  "noc.link_ticks",
		"sched/slice_ticks": "mem.slice_ticks",
		"sched/mc_ticks":    "dram.mc_ticks",
	}
	out := map[string]float64{}
	for _, s := range snaps {
		for _, c := range s.Counters {
			v := float64(c.Value)
			switch {
			case sched[c.Name] != "":
				out[sched[c.Name]] += v
			case strings.HasPrefix(c.Name, "sm") && strings.HasSuffix(c.Name, "/lsu_stalls"):
				out["sm.lsu_stalls"] += v
			case strings.HasPrefix(c.Name, "mem/slice") && strings.HasSuffix(c.Name, "/hits"):
				out["mem.l2_hits"] += v
			case strings.HasPrefix(c.Name, "mem/slice") && strings.HasSuffix(c.Name, "/misses"):
				out["mem.l2_misses"] += v
			case strings.HasPrefix(c.Name, "mem/slice") && strings.HasSuffix(c.Name, "/stalls"):
				out["mem.l2_stalls"] += v
			case strings.HasPrefix(c.Name, "dram/") && strings.HasSuffix(c.Name, "/row_hits"):
				out["dram.row_hits"] += v
			case strings.HasPrefix(c.Name, "dram/") && strings.HasSuffix(c.Name, "/row_misses"):
				out["dram.row_misses"] += v
			}
		}
		for _, h := range s.Hists {
			if strings.HasPrefix(h.Name, "noc/") && strings.HasSuffix(h.Name, "/queue_wait") {
				out["noc.queue_wait_cycles"] += float64(h.Sum)
			}
		}
		for _, o := range s.Occupancy {
			if g := linkGroup(o.Name); g != "" && o.Units > 0 {
				out["noc."+g+".busy"] += float64(o.Busy) / float64(o.Units)
			}
		}
	}
	return out
}

// linkGroup names the NoC link group of an occupancy metric: tpc_req,
// gpc_req, xbar, gpc_rep or tpc_rep ("" for anything else).
func linkGroup(name string) string {
	rest, ok := strings.CutPrefix(name, "noc/")
	if !ok {
		return ""
	}
	link, _, _ := strings.Cut(rest, "/")
	switch {
	case strings.HasPrefix(link, "xbar"):
		return "xbar"
	case strings.HasPrefix(link, "tpc") && strings.HasSuffix(link, "-req"):
		return "tpc_req"
	case strings.HasPrefix(link, "gpc") && strings.HasSuffix(link, "-req"):
		return "gpc_req"
	case strings.HasPrefix(link, "gpc") && strings.HasSuffix(link, "-rep"):
		return "gpc_rep"
	case strings.HasPrefix(link, "tpc") && strings.HasSuffix(link, "-rep"):
		return "tpc_rep"
	}
	return ""
}

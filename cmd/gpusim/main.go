// Command gpusim runs ad-hoc workloads on the simulated GPU: streaming
// read/write kernels with configurable placement, warp counts, and
// arbitration policy. It is the generic entry point for exploring the
// contention behaviour of the NoC model outside the canned experiments.
//
// Usage:
//
//	gpusim [-config volta|small] [-arb rr|crr|srr|age] [-sms 0,1] \
//	       [-ops 20] [-warps 4] [-read] [-seed N] \
//	       [-trace out.json] [-watch N] [-gpus N] [-topology full|ring|nvswitch]
//
// -gpus N (N >= 2) builds an N-device NVLink mesh (internal/mesh) instead of
// a single GPU and points the streamers on device 0 at a window owned by
// device 1, so every access crosses the fabric; the report adds one line per
// NVLink link with its packet/flit/queue statistics. -topology selects the
// fabric wiring. Mesh runs do not support -trace or -watch.
//
// -warps must be at least 1 and -ops at least 0; other values exit 1 before
// any engine is built.
//
// -trace writes a Chrome trace-event JSON file of the run: one track per
// instrumented NoC link (spans are packets occupying the channel, from
// enqueue to delivery) plus a "kernels" track with one span per kernel.
// Open it at https://ui.perfetto.dev or chrome://tracing; timestamps are
// simulated cycles, not microseconds.
//
// -watch N prints one human-readable line per N-cycle telemetry window to
// stderr — the window's bounds and every NoC link's occupancy rate — while
// the run executes. It is the interactive face of internal/telemetry's
// windowed sampler; like -trace it implies probe instrumentation. Windows
// with no link activity are not printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/mesh"
	"gpunoc/internal/probe"
	"gpunoc/internal/reveng"
	"gpunoc/internal/telemetry"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gpusim: %v\n", err)
	os.Exit(1)
}

// watchPrinter is the -watch Watcher: one stderr line per window that saw
// any link activity, occupancy rates in sorted link order.
type watchPrinter struct{}

func (watchPrinter) ObserveWindow(w telemetry.Window) {
	names := telemetry.SortedOccNames(w)
	if len(names) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "watch [%d,%d)", w.Start, w.End)
	for _, name := range names {
		short := strings.TrimSuffix(strings.TrimPrefix(name, "noc/"), "/occupancy")
		fmt.Fprintf(&b, " %s=%.2f", short, w.Occ[name].Rate)
	}
	fmt.Fprintln(os.Stderr, b.String())
}

func main() {
	cfgName := flag.String("config", "volta", "GPU configuration: volta or small")
	arbName := flag.String("arb", "rr", "NoC arbitration: rr, crr, srr, age")
	smsFlag := flag.String("sms", "0,1", "comma-separated SM ids to activate")
	ops := flag.Int("ops", 20, "streamer memory operations per warp")
	warps := flag.Int("warps", 4, "warps per activated SM")
	read := flag.Bool("read", false, "issue reads instead of writes")
	seed := flag.Int64("seed", 1, "deterministic seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-compatible) to this path")
	watch := flag.Uint64("watch", 0, "print one NoC occupancy line per N-cycle telemetry window to stderr (0 = off)")
	gpus := flag.Int("gpus", 0, "build an N-GPU NVLink mesh and stream from device 0 into device 1's memory (0/1 = single GPU)")
	topology := flag.String("topology", "", "NVLink mesh topology: full, ring, or nvswitch (empty = config default)")
	flag.Parse()

	if *warps < 1 {
		fail(fmt.Errorf("-warps must be at least 1, got %d", *warps))
	}
	if *ops < 0 {
		fail(fmt.Errorf("-ops must not be negative, got %d", *ops))
	}

	var cfg config.Config
	switch *cfgName {
	case "volta":
		cfg = config.Volta()
	case "small":
		cfg = config.Small()
	default:
		fail(fmt.Errorf("unknown config %q", *cfgName))
	}
	cfg.Seed = *seed
	switch *arbName {
	case "rr":
		cfg.NoC.Arbitration = config.ArbRR
	case "crr":
		cfg.NoC.Arbitration = config.ArbCRR
	case "srr":
		cfg.NoC.Arbitration = config.ArbSRR
	case "age":
		cfg.NoC.Arbitration = config.ArbAge
	default:
		fail(fmt.Errorf("unknown arbitration %q", *arbName))
	}

	targets := map[int]bool{}
	for _, tok := range strings.Split(*smsFlag, ",") {
		sm, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || sm < 0 || sm >= cfg.NumSMs() {
			fail(fmt.Errorf("bad SM id %q", tok))
		}
		targets[sm] = true
	}

	if *topology != "" {
		topo, err := config.ParseTopology(*topology)
		if err != nil {
			fail(err)
		}
		cfg.NVLink.Topology = topo
	}

	var acts []reveng.Activation
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if targets[sm] {
			acts = append(acts, reveng.Activation{SM: sm, Ops: *ops, Warps: *warps, Write: !*read})
		}
	}
	kind := "write"
	if *read {
		kind = "read"
	}

	if *gpus >= 2 {
		if *tracePath != "" || *watch > 0 {
			fail(fmt.Errorf("-trace and -watch are not supported with -gpus"))
		}
		runMesh(cfg, *gpus, acts, *ops, *warps, kind, *smsFlag)
		return
	}

	if *tracePath != "" {
		cfg.Probes = probe.NewRegistry()
		cfg.Probes.EnableTrace(0)
	}
	if *watch > 0 {
		if cfg.Probes == nil {
			cfg.Probes = probe.NewRegistry()
		}
		cfg.Telemetry = telemetry.NewSampler(*watch, watchPrinter{})
	}

	g, err := engine.New(cfg)
	if err != nil {
		fail(err)
	}
	times := stream(&cfg, "gpusim", acts, reveng.WarpLayout(0, *warps), g, g, g)

	fmt.Printf("gpusim: %s, arbitration=%s, %d %s ops x %d warps on SMs %v\n",
		cfg.Name, cfg.NoC.Arbitration, *ops, kind, *warps, *smsFlag)
	report(&cfg, times)
	l2 := g.Partition().Stats()
	fmt.Printf("  L2: %d served, %d hits, %d misses\n", l2.Served, l2.Hits, l2.Misses)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		tr := g.Probes().Tracer()
		if err := probe.WriteChrome(f, tr); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("  trace: %d events on %d tracks -> %s (open at ui.perfetto.dev)\n",
			len(tr.Events()), len(tr.Tracks()), *tracePath)
	}
}

// stream runs reveng's Algorithm 1 kernel for acts under the given kernel
// name (it names the kernel's span in -trace output): launched on dev,
// streaming into mem's windows laid out by lay, and run on r. It returns
// each activated SM's slowest-warp time.
func stream(cfg *config.Config, name string, acts []reveng.Activation, lay reveng.Layout,
	dev, mem *engine.GPU, r engine.KernelRunner) map[int]uint64 {
	b, err := reveng.NewBench(cfg, acts, lay)
	if err != nil {
		fail(err)
	}
	b.Spec.Name = name
	times, err := b.Run(dev, mem, r)
	if err != nil {
		fail(err)
	}
	return times
}

// report prints one line per activated SM: the longest run time of its
// warps.
func report(cfg *config.Config, times map[int]uint64) {
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if d, ok := times[sm]; ok {
			fmt.Printf("  SM%-3d TPC%-2d GPC%d: %8d cycles (%.2f us at %dMHz)\n",
				sm, cfg.TPCOfSM(sm), cfg.GPCOfSM(sm), d,
				cfg.CyclesToSeconds(d)*1e6, cfg.CoreClockMHz)
		}
	}
}

// runMesh is the -gpus mode: an N-device NVLink mesh where the target SMs of
// device 0 stream into a window owned by device 1, so every memory op
// crosses the fabric, followed by a per-link statistics report.
func runMesh(cfg config.Config, gpus int, acts []reveng.Activation, ops, warps int, kind, smsFlag string) {
	m, err := mesh.New(cfg, gpus)
	if err != nil {
		fail(err)
	}
	times := stream(&cfg, "gpusim-mesh", acts, reveng.WarpLayout(mesh.DevBase(1), warps), m.GPU(0), m.GPU(1), m)

	topo := cfg.NVLink.WithDefaults().Topology
	fmt.Printf("gpusim: %s mesh of %d GPUs (%s), %d remote %s ops x %d warps on device-0 SMs %v\n",
		cfg.Name, gpus, topo, ops, kind, warps, smsFlag)
	report(&cfg, times)
	l2 := m.GPU(1).Partition().Stats()
	fmt.Printf("  remote L2 (device 1): %d served, %d hits, %d misses\n", l2.Served, l2.Hits, l2.Misses)
	for _, l := range m.Links() {
		s := l.Stats()
		fmt.Printf("  %-24s %8d packets %10d flits  queue-wait %10d  max-queue %4d\n",
			l.Name(), s.Packets, s.Flits, s.QueueWait, s.MaxQueueLen)
	}
}

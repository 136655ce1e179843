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
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/mesh"
	"gpunoc/internal/probe"
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

	smList := make([]int, 0, len(targets))
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		if targets[sm] {
			smList = append(smList, sm)
		}
	}
	st := &stream{cfg: &cfg, sms: smList, warps: *warps, ops: *ops, read: *read}

	if *gpus >= 2 {
		if *tracePath != "" || *watch > 0 {
			fail(fmt.Errorf("-trace and -watch are not supported with -gpus"))
		}
		runMesh(cfg, *gpus, st, *smsFlag)
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
	g.Preload(0, st.windowBytes())
	if _, err := g.Launch(st.kernel("gpusim")); err != nil {
		fail(err)
	}
	if err := g.RunKernels(100_000_000); err != nil {
		fail(err)
	}

	fmt.Printf("gpusim: %s, arbitration=%s, %d %s ops x %d warps on SMs %v\n",
		cfg.Name, cfg.NoC.Arbitration, *ops, st.kind(), *warps, *smsFlag)
	st.report()
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

// span is the address window of one streaming warp.
const span = 8192

// stream is gpusim's workload: one device.MaskedStreamer per warp on the
// target SMs, streaming from base. progs collects every instance the kernel
// builds, so report can read their clocks back after the run.
type stream struct {
	cfg   *config.Config
	sms   []int
	warps int
	ops   int
	read  bool
	base  uint64
	progs []*device.MaskedStreamer
}

// windowBytes is the size of the address range, from base, that the
// streamers of every SM would cover.
func (s *stream) windowBytes() uint64 { return uint64(s.cfg.NumSMs()*s.warps) * span }

func (s *stream) kind() string {
	if s.read {
		return "read"
	}
	return "write"
}

// kernel returns the streaming kernel: one block per SM, so the mask
// decides which SMs actually stream.
func (s *stream) kernel(name string) device.KernelSpec {
	return device.KernelSpec{
		Name:          name,
		Blocks:        s.cfg.NumSMs(),
		WarpsPerBlock: s.warps,
		New: func(b, w int) device.Program {
			m := &device.MaskedStreamer{
				SMs:         s.sms,
				Base:        s.base,
				Warp:        w,
				WarpsPerSM:  s.warps,
				SpanBytes:   span,
				LineBytes:   s.cfg.L2LineBytes,
				Write:       !s.read,
				Count:       s.ops,
				Uncoalesced: true,
				WrapBytes:   span / 2,
			}
			s.progs = append(s.progs, m)
			return m
		},
	}
}

// report prints one line per target SM: the longest run time of its warps.
func (s *stream) report() {
	perSM := map[int]uint64{}
	for _, m := range s.progs {
		if m.Active() && m.EndClock > m.StartClock {
			if d := m.EndClock - m.StartClock; d > perSM[m.SMID] {
				perSM[m.SMID] = d
			}
		}
	}
	for sm := 0; sm < s.cfg.NumSMs(); sm++ {
		if d, ok := perSM[sm]; ok {
			fmt.Printf("  SM%-3d TPC%-2d GPC%d: %8d cycles (%.2f us at %dMHz)\n",
				sm, s.cfg.TPCOfSM(sm), s.cfg.GPCOfSM(sm), d,
				s.cfg.CyclesToSeconds(d)*1e6, s.cfg.CoreClockMHz)
		}
	}
}

// runMesh is the -gpus mode: an N-device NVLink mesh where the target SMs of
// device 0 stream into a window owned by device 1, so every memory op
// crosses the fabric, followed by a per-link statistics report.
func runMesh(cfg config.Config, gpus int, st *stream, smsFlag string) {
	m, err := mesh.New(cfg, gpus)
	if err != nil {
		fail(err)
	}
	st.base = mesh.DevBase(1)
	m.GPU(1).Preload(st.base, st.windowBytes())
	if _, err := m.GPU(0).Launch(st.kernel("gpusim-mesh")); err != nil {
		fail(err)
	}
	if err := m.RunKernels(100_000_000); err != nil {
		fail(err)
	}

	topo := cfg.NVLink.WithDefaults().Topology
	fmt.Printf("gpusim: %s mesh of %d GPUs (%s), %d remote %s ops x %d warps on device-0 SMs %v\n",
		cfg.Name, gpus, topo, st.ops, st.kind(), st.warps, smsFlag)
	st.report()
	l2 := m.GPU(1).Partition().Stats()
	fmt.Printf("  remote L2 (device 1): %d served, %d hits, %d misses\n", l2.Served, l2.Hits, l2.Misses)
	for _, l := range m.Links() {
		s := l.Stats()
		fmt.Printf("  %-24s %8d packets %10d flits  queue-wait %10d  max-queue %4d\n",
			l.Name(), s.Packets, s.Flits, s.QueueWait, s.MaxQueueLen)
	}
}

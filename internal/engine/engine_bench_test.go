package engine

import (
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// tickWorkload is one BenchmarkEngineTick entry: build returns a Volta GPU,
// jitter off, already run into steady state. TestTickPathAllocatesNothing
// runs the same builders, so the allocation gate covers what the benchmark
// times.
type tickWorkload struct {
	name  string
	build func(tb testing.TB) *GPU
}

// tickWorkloads span the sparse end the activity scheduler targets — a
// completely idle device (fast-forwarded in O(1)) and 2 of 80 SMs busy —
// to the dense end, all 80 SMs streaming at once, plus an L2-missing
// stream that keeps DRAM busy.
var tickWorkloads = []tickWorkload{
	{"idle", func(tb testing.TB) *GPU { return benchGPU(tb, config.Volta()) }},
	{"sparse-2sm", func(tb testing.TB) *GPU { return residentStream(tb, benchGPU(tb, config.Volta()), 2) }},

	// The sparse workload again with full observability attached: a probe
	// registry plus a windowed telemetry sampler feeding the covert-channel
	// detector. The delta against sparse-2sm prices the whole telemetry
	// stack: the per-event probe updates in the components, and once per
	// window the sampler's pass over the registry's instruments and the
	// detector's scoring of the resulting window.
	{"sparse-telemetry", func(tb testing.TB) *GPU {
		cfg := config.Volta()
		cfg.Probes = probe.NewRegistry()
		cfg.Telemetry = telemetry.NewSampler(telemetry.DefaultWindowCycles,
			telemetry.NewDetector(telemetry.DetectorConfig{}))
		return residentStream(tb, benchGPU(tb, cfg), 2)
	}},

	{"saturated", func(tb testing.TB) *GPU {
		g := benchGPU(tb, config.Volta())
		return residentStream(tb, g, g.Config().NumSMs())
	}},

	// Every SM streams writes, cold, over its own 256 KB window: 20 MB in
	// all, over 4x the 4.5 MB L2. Every access misses, so the run exercises
	// what the L2-resident entries never reach: DRAM fetches and fills,
	// dirty evictions and their writebacks, and fetches retried while the
	// controller queues are full.
	{"l2-miss", func(tb testing.TB) *GPU {
		g := benchGPU(tb, config.Volta())
		const window = 256 << 10
		n := g.Config().NumSMs()
		spec := device.KernelSpec{Name: "bench", Blocks: n, WarpsPerBlock: 1,
			New: func(b, _ int) device.Program {
				return &quietStreamer{device.Streamer{
					Base:        uint64(b) * window,
					LineBytes:   g.Config().L2LineBytes,
					Write:       true,
					Count:       1 << 30,
					Uncoalesced: true,
					WrapBytes:   window,
				}}
			}}
		if _, err := g.Launch(spec); err != nil {
			tb.Fatal(err)
		}
		g.RunFor(100_000) // past the cold fill of the whole L2
		return g
	}},
}

// BenchmarkEngineTick measures the per-cycle cost of the engine on the full
// Volta topology (80 SMs, 48 slices) for each of the tickWorkloads.
func BenchmarkEngineTick(b *testing.B) {
	for _, w := range tickWorkloads {
		b.Run(w.name, func(b *testing.B) {
			g := w.build(b)
			b.ResetTimer()
			g.RunFor(uint64(b.N))
		})
	}
}

// benchGPU builds a GPU for cfg with both jitter sources off.
func benchGPU(tb testing.TB, cfg config.Config) *GPU {
	cfg.WarpIssueJitter = 0
	cfg.L2ServiceJitter = 0
	g, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// residentStream launches one L2-resident, never-ending write streamer on
// each of the first sms SMs and runs past dispatch jitter into steady state.
func residentStream(tb testing.TB, g *GPU, sms int) *GPU {
	preloadStreamers(g, sms)
	spec, _ := streamerKernel("bench", sms, 1, 1<<30, true, false, g.Config().L2LineBytes)
	inner := spec.New
	spec.New = func(b, w int) device.Program {
		return &quietStreamer{*inner(b, w).(*device.Streamer)}
	}
	if _, err := g.Launch(spec); err != nil {
		tb.Fatal(err)
	}
	g.RunFor(10_000)
	return g
}

// quietStreamer is a device.Streamer that records no latencies, so the
// program itself never allocates: whatever a steady-state cycle allocates is
// the simulator's.
type quietStreamer struct{ device.Streamer }

// Step implements device.Program. It withholds the last op's latency, the
// only thing the inner Streamer records.
func (q *quietStreamer) Step(ctx *device.Ctx) device.Op {
	c := *ctx
	c.LastLatency = 0
	return q.Streamer.Step(&c)
}

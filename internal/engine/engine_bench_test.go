package engine

import (
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// BenchmarkEngineTick measures the per-cycle cost of the engine on the full
// Volta topology (80 SMs, 48 slices) from the sparse end the activity
// scheduler targets — a completely idle device (fast-forwarded in O(1)) and
// a workload keeping 2 of 80 SMs busy — to the dense end, all 80 SMs
// streaming at once.
func BenchmarkEngineTick(b *testing.B) {
	mk := func(b *testing.B) *GPU {
		cfg := config.Volta()
		cfg.WarpIssueJitter = 0
		cfg.L2ServiceJitter = 0
		g, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.Run("idle", func(b *testing.B) {
		g := mk(b)
		b.ResetTimer()
		g.RunFor(uint64(b.N))
	})

	b.Run("sparse-2sm", func(b *testing.B) {
		g := mk(b)
		preloadStreamers(g, 2)
		spec, _ := streamerKernel("bench", 2, 1, 1<<30, true, false, g.Config().L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			b.Fatal(err)
		}
		g.RunFor(10_000) // past dispatch jitter and into steady state
		b.ResetTimer()
		g.RunFor(uint64(b.N))
	})

	// The sparse workload again with full observability attached: a probe
	// registry plus a windowed telemetry sampler feeding the covert-channel
	// detector. The delta against sparse-2sm prices the whole telemetry
	// stack: the per-event probe updates in the components, and once per
	// window the sampler's pass over the registry's instruments and the
	// detector's scoring of the resulting window.
	b.Run("sparse-telemetry", func(b *testing.B) {
		cfg := config.Volta()
		cfg.WarpIssueJitter = 0
		cfg.L2ServiceJitter = 0
		cfg.Probes = probe.NewRegistry()
		cfg.Telemetry = telemetry.NewSampler(telemetry.DefaultWindowCycles,
			telemetry.NewDetector(telemetry.DetectorConfig{}))
		g, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		preloadStreamers(g, 2)
		spec, _ := streamerKernel("bench", 2, 1, 1<<30, true, false, g.Config().L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			b.Fatal(err)
		}
		g.RunFor(10_000) // past dispatch jitter and into steady state
		b.ResetTimer()
		g.RunFor(uint64(b.N))
	})

	b.Run("saturated", func(b *testing.B) {
		g := mk(b)
		n := g.Config().NumSMs()
		preloadStreamers(g, n)
		spec, _ := streamerKernel("bench", n, 1, 1<<30, true, false, g.Config().L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			b.Fatal(err)
		}
		g.RunFor(10_000) // past dispatch jitter and into steady state
		b.ResetTimer()
		g.RunFor(uint64(b.N))
	})
}

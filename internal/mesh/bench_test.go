package mesh

import (
	"fmt"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
)

// BenchmarkEngineTick extends the engine's per-cycle benchmark to the mesh:
// two Volta GPUs saturating the NVLink fabric in both directions (every SM of
// each device streams uncoalesced writes into the other device's window), in
// steady state. The number prices a whole global cycle — both devices' ticks
// plus the remote outbox/inbox hand-off and the fabric links — so it is
// compared against the single-GPU "saturated" entry to see what meshing
// costs. Gated nightly against BENCH_tick.json like the engine's entries.
func BenchmarkEngineTick(b *testing.B) {
	b.Run("mesh-2gpu", func(b *testing.B) {
		cfg := config.Volta()
		cfg.WarpIssueJitter = 0
		cfg.L2ServiceJitter = 0
		m, err := New(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		const window = uint64(8192)
		for d := 0; d < 2; d++ {
			peer := 1 - d
			base := DevBase(peer) + 0x200000 + uint64(d)*0x40000
			m.GPU(peer).Preload(base, window*uint64(cfg.NumSMs()))
			spec := device.KernelSpec{
				Name:          fmt.Sprintf("bench-cross%d", d),
				Blocks:        cfg.NumSMs(),
				WarpsPerBlock: 2,
				New: func(bk, w int) device.Program {
					return &device.Streamer{
						Base:        base + uint64(bk)*window,
						LineBytes:   cfg.L2LineBytes,
						Write:       true,
						Count:       1 << 30,
						Uncoalesced: true,
						WrapBytes:   window,
					}
				},
			}
			if _, err := m.GPU(d).Launch(spec); err != nil {
				b.Fatal(err)
			}
		}
		m.RunFor(10_000) // past dispatch jitter and into steady state
		b.ResetTimer()
		m.RunFor(uint64(b.N))
	})
}

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
		m := saturatedMesh(b)
		b.ResetTimer()
		m.RunFor(uint64(b.N))
	})
}

// TestMeshTickPathAllocatesNothing is the mesh's allocation gate, the
// counterpart of the engine's TestTickPathAllocatesNothing: once the
// mesh-2gpu workload is warm, 1000 more global cycles allocate nothing.
// Cross-GPU replies end at their issuing SM like local ones, so packets
// recycle across the fabric too.
//
// This workload runs in waves of about 25,000 cycles: every SM fills its
// LSU budget, and the write acks then queue on the NVLink behind the peer's
// write requests, arriving around cycles 20,000-25,000 of each wave. So the
// gate first runs past the first wave, when every free list holds a full
// budget of packets, then measures 25 windows of 1000 cycles: one whole
// wave, its reply burst included.
func TestMeshTickPathAllocatesNothing(t *testing.T) {
	m := saturatedMesh(t)
	m.RunFor(20_000)
	if n := testing.AllocsPerRun(25, func() { m.RunFor(1000) }); n != 0 {
		t.Errorf("%v allocations per 1000 steady-state cycles, want 0", n)
	}
}

// saturatedMesh builds the mesh-2gpu workload and runs it past dispatch
// jitter into steady state.
func saturatedMesh(tb testing.TB) *Mesh {
	cfg := config.Volta()
	cfg.WarpIssueJitter = 0
	cfg.L2ServiceJitter = 0
	m, err := New(cfg, 2)
	if err != nil {
		tb.Fatal(err)
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
				return &quietStreamer{device.Streamer{
					Base:        base + uint64(bk)*window,
					LineBytes:   cfg.L2LineBytes,
					Write:       true,
					Count:       1 << 30,
					Uncoalesced: true,
					WrapBytes:   window,
				}}
			},
		}
		if _, err := m.GPU(d).Launch(spec); err != nil {
			tb.Fatal(err)
		}
	}
	m.RunFor(10_000)
	return m
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

package engine

import (
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
)

// TestEngineDeterminismSameConfig pins the engine-level determinism contract
// that gpunoc-lint guards statically: two GPUs built from the same
// config.Config (same Seed, jitters enabled so every noise source is
// exercised) must evolve identically — same partition stats and clock
// readings at every checkpoint over a few thousand cycles, compared in
// lockstep, and identical per-warp latency traces and kernel durations at
// the end.
func TestEngineDeterminismSameConfig(t *testing.T) {
	cfg := config.Small() // keeps the Volta jitters: noise must derive from Seed alone
	cfg.Seed = 42

	type instance struct {
		g     *GPU
		progs map[[2]int]*device.Streamer
		k     *Kernel
	}
	build := func() instance {
		g := mkGPU(t, cfg)
		preloadStreamers(g, 8)
		spec, progs := streamerKernel("det", 4, 2, 25, true, true, cfg.L2LineBytes)
		k, err := g.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		return instance{g: g, progs: progs, k: k}
	}
	a, b := build(), build()

	const step, checkpoints = 250, 20 // 5000 cycles, compared in lockstep
	for i := 1; i <= checkpoints; i++ {
		a.g.RunFor(step)
		b.g.RunFor(step)
		if a.g.Now() != b.g.Now() {
			t.Fatalf("checkpoint %d: clocks diverged: %d vs %d", i, a.g.Now(), b.g.Now())
		}
		if a.g.Idle() != b.g.Idle() {
			t.Fatalf("cycle %d: idle state diverged", a.g.Now())
		}
		sa, sb := a.g.Partition().Stats(), b.g.Partition().Stats()
		if sa != sb {
			t.Fatalf("cycle %d: partition stats diverged: %+v vs %+v", a.g.Now(), sa, sb)
		}
		for sm := 0; sm < cfg.NumSMs(); sm++ {
			ca, cb := a.g.Clocks().Read(sm, a.g.Now()), b.g.Clocks().Read(sm, b.g.Now())
			if ca != cb {
				t.Fatalf("cycle %d: SM %d clock register diverged: %d vs %d", a.g.Now(), sm, ca, cb)
			}
		}
	}

	traced := 0
	for key, s := range a.progs {
		o, ok := b.progs[key]
		if !ok {
			t.Fatalf("warp %v missing from the second run", key)
		}
		if len(s.Latencies) != len(o.Latencies) {
			t.Fatalf("warp %v: latency trace lengths diverged: %d vs %d", key, len(s.Latencies), len(o.Latencies))
		}
		for i := range s.Latencies {
			if s.Latencies[i] != o.Latencies[i] {
				t.Fatalf("warp %v: latency %d diverged: %d vs %d", key, i, s.Latencies[i], o.Latencies[i])
			}
		}
		traced += len(s.Latencies)
	}
	if traced == 0 {
		t.Fatal("no latencies recorded; the workload never exercised the memory path")
	}

	if a.k.Running() != b.k.Running() {
		t.Fatalf("kernel completion diverged: running=%v vs %v", a.k.Running(), b.k.Running())
	}
	if !a.k.Running() && a.k.Duration() != b.k.Duration() {
		t.Fatalf("kernel durations diverged: %d vs %d", a.k.Duration(), b.k.Duration())
	}
}

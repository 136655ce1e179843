package engine

// Tests for the activity-driven tick scheduler: idle components really are
// skipped (observed through the sched/* probe counters), and the skipping is
// invisible — every simulation observable is bit-identical to the
// exhaustive-tick reference engine (config.ExhaustiveTick).

import (
	"math/rand"
	"reflect"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/link"
	"gpunoc/internal/mem"
	"gpunoc/internal/probe"
	"gpunoc/internal/sm"
)

// TestSparseTrafficSkipsIdleComponents runs a single-warp kernel on the
// small (8-SM, 20-link, 8-slice, 4-MC) topology and checks the scheduler's
// tick counters: only the one busy SM ever ticks, and links/slices/MCs tick
// far below the exhaustive component-count × cycles product.
func TestSparseTrafficSkipsIdleComponents(t *testing.T) {
	cfg := testCfg()
	cfg.Probes = probe.NewRegistry()
	g := mkGPU(t, cfg)
	preloadStreamers(g, 1)
	spec, _ := streamerKernel("sparse", 1, 1, 200, true, false, cfg.L2LineBytes)
	if _, err := g.Launch(spec); err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernels(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !g.RunUntil(g.Idle, 100_000) {
		t.Fatal("GPU did not drain")
	}

	load := func(name string) uint64 { return cfg.Probes.Counter(name).Load() }
	cycles := load("sched/cycles")
	smTicks := load("sched/sm_ticks")
	linkTicks := load("sched/link_ticks")
	sliceTicks := load("sched/slice_ticks")
	mcTicks := load("sched/mc_ticks")
	if cycles == 0 {
		t.Fatal("no cycles stepped")
	}

	// One block, one warp: exactly one SM is ever woken, so at most one SM
	// tick per stepped cycle — the other 7 SMs are never simulated.
	if smTicks == 0 || smTicks > cycles {
		t.Errorf("sm_ticks = %d, want in [1, %d] (one busy SM)", smTicks, cycles)
	}

	numLinks := uint64(g.Config().NumTPCs()*2 + g.Config().NumGPCs*2 + g.Config().NumL2Slices)
	numSlices := uint64(g.Config().NumL2Slices)
	numMCs := uint64(g.Config().NumMCs)
	if linkTicks == 0 || linkTicks*2 >= cycles*numLinks {
		t.Errorf("link_ticks = %d of %d exhaustive, want >0 and <50%%", linkTicks, cycles*numLinks)
	}
	if sliceTicks == 0 || sliceTicks*2 >= cycles*numSlices {
		t.Errorf("slice_ticks = %d of %d exhaustive, want >0 and <50%%", sliceTicks, cycles*numSlices)
	}
	// The working set is preloaded and writes hit in L2, so the memory
	// controllers should see (almost) nothing.
	if mcTicks*2 >= cycles*numMCs {
		t.Errorf("mc_ticks = %d of %d exhaustive, want <50%%", mcTicks, cycles*numMCs)
	}

	// Once drained with no kernel running, RunFor must fast-forward rather
	// than step idle silicon.
	ffwdBefore, nowBefore := load("sched/ffwd_cycles"), g.Now()
	g.RunFor(5000)
	if g.Now() != nowBefore+5000 {
		t.Errorf("RunFor advanced to %d, want %d", g.Now(), nowBefore+5000)
	}
	if got := load("sched/ffwd_cycles") - ffwdBefore; got != 5000 {
		t.Errorf("fast-forwarded %d cycles, want 5000", got)
	}
}

// TestRandomTrafficMatchesExhaustiveTick is the bit-identity regression for
// the scheduler: randomized multi-kernel workloads (random seeds, jitters,
// shapes, launch offsets, warm or cold L2) are run with every component
// ticked every cycle (the reference) and under the activity scheduler, and
// every observable — final cycle, kernel timestamps, per-SM clock registers
// and counters, per-warp latency traces, slice totals, and the stats of
// every NoC link — must match exactly.
func TestRandomTrafficMatchesExhaustiveTick(t *testing.T) {
	type launch struct {
		at                   uint64
		blocks, warps, count int
		write, unco          bool
	}
	type observed struct {
		Now       uint64
		Launched  []uint64
		Finished  []uint64
		Durations []uint64
		Clocks    []uint32
		SMs       []sm.Stats
		Slices    mem.SliceStats
		Links     []link.Stats
		Latencies [][]uint64
	}

	rng := rand.New(rand.NewSource(20260805))
	for round := 0; round < 6; round++ {
		base := testCfg()
		base.Seed = rng.Int63n(1 << 30)
		base.WarpIssueJitter = rng.Intn(60)
		base.L2ServiceJitter = rng.Intn(5)

		var plan []launch
		at, maxWarps := uint64(0), 0
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			at += uint64(rng.Intn(3000))
			l := launch{
				at:     at,
				blocks: 1 + rng.Intn(3),
				warps:  1 + rng.Intn(3),
				count:  1 + rng.Intn(12),
				write:  rng.Intn(2) == 0,
				unco:   rng.Intn(2) == 0,
			}
			if w := l.blocks * l.warps; w > maxWarps {
				maxWarps = w
			}
			plan = append(plan, l)
		}
		preload := rng.Intn(2) == 0 // cold L2 exercises the DRAM/fill/retry paths

		run := func(exhaustive bool) observed {
			t.Helper()
			cfg := base
			cfg.ExhaustiveTick = exhaustive
			g := mkGPU(t, cfg)
			if preload {
				preloadStreamers(g, maxWarps)
			}
			var progs []map[[2]int]*device.Streamer
			for _, l := range plan {
				spec, pr := streamerKernel("rnd", l.blocks, l.warps, l.count, l.write, l.unco, cfg.L2LineBytes)
				if _, err := g.LaunchAt(l.at, spec); err != nil {
					t.Fatal(err)
				}
				progs = append(progs, pr)
			}
			if err := g.RunKernels(5_000_000); err != nil {
				t.Fatal(err)
			}
			if !g.RunUntil(g.Idle, 200_000) {
				t.Fatal("GPU did not drain")
			}
			g.RunFor(2000) // covers the post-drain fast-forward path

			var o observed
			o.Now = g.Now()
			for _, k := range g.Kernels() {
				o.Launched = append(o.Launched, k.LaunchedAt)
				o.Finished = append(o.Finished, k.FinishedAt)
				o.Durations = append(o.Durations, k.Duration())
			}
			for i := 0; i < cfg.NumSMs(); i++ {
				o.Clocks = append(o.Clocks, g.SM(i).Clock(g.Now()))
				o.SMs = append(o.SMs, g.SM(i).Stats())
			}
			o.Slices = g.Partition().Stats()
			for i := 0; i < cfg.NumTPCs(); i++ {
				o.Links = append(o.Links, g.Network().TPCRequestLink(i).Stats(),
					g.Network().TPCReplyLink(i).Stats())
			}
			for i := 0; i < cfg.NumGPCs; i++ {
				o.Links = append(o.Links, g.Network().GPCRequestLink(i).Stats(),
					g.Network().GPCReplyLink(i).Stats())
			}
			for _, pr := range progs {
				for b := 0; b < 4; b++ {
					for w := 0; w < 4; w++ {
						if s, ok := pr[[2]int{b, w}]; ok {
							o.Latencies = append(o.Latencies, s.Latencies)
						}
					}
				}
			}
			return o
		}

		exhaustive, got := run(true), run(false)
		if !reflect.DeepEqual(got, exhaustive) {
			t.Fatalf("round %d (seed %d, jitters %d/%d, preload %v, %d kernels): activity-driven run diverges from exhaustive reference\ngot:        %+v\nexhaustive: %+v",
				round, base.Seed, base.WarpIssueJitter, base.L2ServiceJitter, preload, len(plan), got, exhaustive)
		}
	}
}

// TestSaturatedAllToAllMatchesExhaustiveTick checks the scheduler against
// its reference under the densest traffic the device supports: every Volta
// SM streams uncoalesced writes, so all 80 SMs, all 40 TPC muxes, every GPC
// channel, all 48 crossbar ports, every slice, and the reply subnet carry
// traffic at once. 10k activity-driven cycles must match the exhaustive
// engine on every observable.
func TestSaturatedAllToAllMatchesExhaustiveTick(t *testing.T) {
	type observed struct {
		Now    uint64
		SMs    []sm.Stats
		Slices mem.SliceStats
		Links  []link.Stats
	}
	run := func(exhaustive bool) observed {
		cfg := config.Volta()
		cfg.Seed = 7
		cfg.ExhaustiveTick = exhaustive
		g := mkGPU(t, cfg)
		warps := 2
		preloadStreamers(g, cfg.NumSMs()*warps)
		// Enough ops that no warp finishes within the measured window.
		spec, _ := streamerKernel("sat", cfg.NumSMs(), warps, 1<<20, true, true, cfg.L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			t.Fatal(err)
		}
		g.RunFor(10_000)

		var o observed
		o.Now = g.Now()
		for i := 0; i < cfg.NumSMs(); i++ {
			o.SMs = append(o.SMs, g.SM(i).Stats())
		}
		o.Slices = g.Partition().Stats()
		for i := 0; i < cfg.NumTPCs(); i++ {
			o.Links = append(o.Links, g.Network().TPCRequestLink(i).Stats(),
				g.Network().TPCReplyLink(i).Stats())
		}
		for i := 0; i < cfg.NumGPCs; i++ {
			o.Links = append(o.Links, g.Network().GPCRequestLink(i).Stats(),
				g.Network().GPCReplyLink(i).Stats())
		}
		return o
	}

	want, got := run(true), run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("saturated activity-driven run diverges from the exhaustive engine")
	}
	if want.Slices.Served < 1000 {
		t.Fatalf("only %d slice requests served in 10k cycles; workload is not saturating", want.Slices.Served)
	}
}

package engine

import (
	"strings"
	"testing"

	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// TestTelemetryRequiresProbes pins the construction contract: a sampler
// with no registry to aggregate is a configuration error, not a silent
// no-op.
func TestTelemetryRequiresProbes(t *testing.T) {
	cfg := testCfg()
	cfg.Telemetry = telemetry.NewSampler(0)
	if _, err := New(cfg); err == nil {
		t.Fatal("telemetry without probes should fail New")
	}
	cfg.Probes = probe.NewRegistry()
	if _, err := New(cfg); err != nil {
		t.Fatalf("telemetry with probes failed: %v", err)
	}
}

// TestTelemetrySecondRegistryPanics pins the one-registry-per-sampler
// contract at the engine seam: a sampler already reading one registry, put
// on a config with another, fails loudly at its first window rather than
// diffing a foreign registry's instruments against its own state.
func TestTelemetrySecondRegistryPanics(t *testing.T) {
	const W = 64
	cfg := testCfg()
	cfg.Probes = probe.NewRegistry()
	cfg.Telemetry = telemetry.NewSampler(W)
	mkGPU(t, cfg).RunFor(W)

	cfg.Probes = probe.NewRegistry()
	g := mkGPU(t, cfg)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "telemetry: ") {
			t.Fatalf("second registry: recovered %q, want a telemetry panic", msg)
		}
	}()
	g.RunFor(W)
}

// TestTelemetryFreedom is the telemetry bit-identity regression: the same
// contention workload untelemetried and with a full sampler + detector
// attached must produce identical simulation outcomes — the sampler only
// observes the registry, never the simulation.
func TestTelemetryFreedom(t *testing.T) {
	bare := testCfg()
	gBare, dBare := contentionRun(t, bare, true)

	tel := testCfg()
	tel.Probes = probe.NewRegistry()
	rec := &telemetry.Recorder{}
	det := telemetry.NewDetector(telemetry.DetectorConfig{WindowCycles: 256})
	tel.Telemetry = telemetry.NewSampler(256, rec, det)
	gTel, dTel := contentionRun(t, tel, true)

	if dBare != dTel {
		t.Errorf("receiver duration diverged: bare %d vs telemetered %d", dBare, dTel)
	}
	if gBare.Now() != gTel.Now() {
		t.Errorf("final cycle diverged: bare %d vs telemetered %d", gBare.Now(), gTel.Now())
	}
	if a, b := gBare.Partition().Stats(), gTel.Partition().Stats(); a != b {
		t.Errorf("partition stats diverged: bare %+v vs telemetered %+v", a, b)
	}
	for i := 0; i < bare.NumSMs(); i++ {
		if a, b := gBare.SM(i).Stats(), gTel.SM(i).Stats(); a != b {
			t.Errorf("SM%d stats diverged: bare %+v vs telemetered %+v", i, a, b)
		}
	}
	// Sanity: the telemetered run actually produced windows that saw the
	// contention.
	if len(rec.Windows()) == 0 {
		t.Fatal("no windows recorded")
	}
	sawBusy := false
	for _, w := range rec.Windows() {
		for _, ow := range w.Occ {
			if ow.Rate > 0 {
				sawBusy = true
			}
		}
	}
	if !sawBusy {
		t.Error("windows never saw a busy link under a saturating workload")
	}
}

// TestTelemetryWindowStream checks the stream's structural invariants on a
// real engine run that includes an idle fast-forward stretch (LaunchAt
// skew): windows are contiguous with the configured width, occupancy rates
// stay in [0, 1], the quiet stretch still emits its (empty) windows, and
// the per-window counter deltas sum back to the registry totals over the
// completed span.
func TestTelemetryWindowStream(t *testing.T) {
	const W = 128
	cfg := testCfg()
	cfg.Probes = probe.NewRegistry()
	rec := &telemetry.Recorder{}
	cfg.Telemetry = telemetry.NewSampler(W, rec)

	g := mkGPU(t, cfg)
	preloadStreamers(g, 2)
	spec, _ := streamerKernel("t", 2, 1, 40, true, true, cfg.L2LineBytes)
	// A 20k-cycle launch skew forces RunFor's quiet fast-forward before any
	// traffic exists.
	if _, err := g.LaunchAt(20_000, spec); err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernels(5_000_000); err != nil {
		t.Fatal(err)
	}

	ws := rec.Windows()
	if len(ws) < 20_000/W {
		t.Fatalf("only %d windows for a %d-cycle run", len(ws), g.Now())
	}
	grants := map[string]uint64{}
	for i, w := range ws {
		if w.Index != uint64(i) {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.End-w.Start != W || w.Start != uint64(i)*W {
			t.Fatalf("window %d bounds [%d, %d), want width %d", i, w.Start, w.End, W)
		}
		for name, ow := range w.Occ {
			if ow.Rate < 0 || ow.Rate > 1 {
				t.Fatalf("window %d: %s rate %v outside [0,1]", i, name, ow.Rate)
			}
		}
		for name, d := range w.Counters {
			grants[name] += d
		}
		// The pre-launch stretch is quiet: no functional deltas before
		// cycle 20000 (the scheduler's own fast-forward accounting is the
		// one counter that legitimately moves).
		if w.End <= 20_000 {
			for name := range w.Counters {
				if !strings.HasPrefix(name, "sched/") {
					t.Fatalf("pre-launch window %d saw traffic: %+v", i, w)
				}
			}
			if len(w.Occ) != 0 {
				t.Fatalf("pre-launch window %d saw occupancy: %+v", i, w)
			}
		}
	}
	// Deltas over completed windows must match a snapshot taken at the last
	// emitted boundary... which we can't rewind to; but the registry only
	// grew after it, so every summed delta must be ≤ the final total, and
	// for counters that stopped moving before the last boundary, equal.
	final := g.ProbeSnapshot()
	for _, c := range final.Counters {
		if got := grants[c.Name]; got > c.Value {
			t.Errorf("windowed deltas of %s sum to %d > final total %d", c.Name, got, c.Value)
		}
	}
}

// TestTelemetryContinuousAcrossEngines pins the cumulative-clock design:
// two engine instances built from one config produce one uninterrupted
// window timeline, the same way the shared registry accumulates metrics.
func TestTelemetryContinuousAcrossEngines(t *testing.T) {
	const W = 64
	cfg := testCfg()
	cfg.Probes = probe.NewRegistry()
	rec := &telemetry.Recorder{}
	cfg.Telemetry = telemetry.NewSampler(W, rec)

	for run := 0; run < 2; run++ {
		g := mkGPU(t, cfg)
		g.RunFor(1000)
	}
	ws := rec.Windows()
	if want := (2 * 1000) / W; len(ws) != want {
		t.Fatalf("2×1000 cycles at W=%d: %d windows, want %d", W, len(ws), want)
	}
	for i, w := range ws {
		if w.Start != uint64(i)*W {
			t.Fatalf("window %d starts at %d; timeline broke across instances", i, w.Start)
		}
	}
}

// TestTelemetryExhaustiveTickIdentical runs the window stream under the
// exhaustive reference scheduler and the activity scheduler: the streams
// must be identical, because the schedulers are state-identical by
// construction and the sampler sees only registry state.
func TestTelemetryExhaustiveTickIdentical(t *testing.T) {
	run := func(exhaustive bool) []telemetry.Window {
		cfg := testCfg()
		cfg.ExhaustiveTick = exhaustive
		cfg.Probes = probe.NewRegistry()
		rec := &telemetry.Recorder{}
		cfg.Telemetry = telemetry.NewSampler(256, rec)
		g := mkGPU(t, cfg)
		preloadStreamers(g, 4)
		spec, _ := streamerKernel("x", 2, 2, 30, true, false, cfg.L2LineBytes)
		if _, err := g.Launch(spec); err != nil {
			t.Fatal(err)
		}
		if err := g.RunKernels(5_000_000); err != nil {
			t.Fatal(err)
		}
		return rec.Windows()
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("window counts diverged: activity %d vs exhaustive %d", len(a), len(b))
	}
	// The schedulers' own accounting (sched/sm_ticks and friends) is
	// mode-specific by design; every functional metric must agree.
	functional := func(m map[string]uint64) map[string]uint64 {
		out := map[string]uint64{}
		for name, d := range m {
			if !strings.HasPrefix(name, "sched/") {
				out[name] = d
			}
		}
		return out
	}
	for i := range a {
		wa, wb := a[i], b[i]
		if wa.Index != wb.Index || wa.Start != wb.Start || wa.End != wb.End ||
			len(wa.Occ) != len(wb.Occ) {
			t.Fatalf("window %d diverged:\nactivity:   %+v\nexhaustive: %+v", i, wa, wb)
		}
		ca, cb := functional(wa.Counters), functional(wb.Counters)
		if len(ca) != len(cb) {
			t.Fatalf("window %d functional counters diverged:\nactivity:   %v\nexhaustive: %v", i, ca, cb)
		}
		for name, d := range ca {
			if cb[name] != d {
				t.Fatalf("window %d counter %s diverged: %d vs %d", i, name, d, cb[name])
			}
		}
		for name, ow := range wa.Occ {
			if wb.Occ[name] != ow {
				t.Fatalf("window %d occ %s diverged: %+v vs %+v", i, name, ow, wb.Occ[name])
			}
		}
	}
}

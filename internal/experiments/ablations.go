package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/reveng"
	"gpunoc/internal/stats"
	"gpunoc/internal/warp"
)

// The §5 noise / side-channel studies and the beyond-the-paper ablations
// register themselves with the experiment registry.
func init() {
	MustRegister(Experiment{
		ID: "noise", Order: 170,
		Title:   "Channel quality under a third kernel's L2 traffic",
		Section: "§5 (impact of noise)",
		Run:     NoiseExperiment,
		Check:   func(_ *config.Config, f *Figure) error { return CheckNoise(f) },
	})
	MustRegister(Experiment{
		ID: "ablation-warps", Order: 180,
		Title:   "Sender warp count sweep (why the paper uses 5 warps)",
		Section: "beyond the paper (§4.4 operating point)",
		Run:     SenderWarpsAblation,
		Check: func(_ *config.Config, f *Figure) error {
			s, ok := f.seriesByName("error rate")
			if !ok {
				return fmt.Errorf("ablation-warps: missing error-rate series")
			}
			for i, x := range s.X {
				if x == 5 && s.Y[i] > 0.1 {
					return fmt.Errorf("ablation-warps: 5-warp sender error %.3f", s.Y[i])
				}
			}
			return nil
		},
	})
	MustRegister(Experiment{
		ID: "ablation-slot", Order: 190,
		Title:   "Timing-slot length sweep (the §4.4 slot guidance)",
		Section: "beyond the paper (§4.4 slot length)",
		Run:     SlotAblation,
		Check:   func(_ *config.Config, f *Figure) error { return CheckSlotAblation(f) },
	})
	MustRegister(Experiment{
		ID: "ablation-speedup", Order: 200,
		Title:   "GPC reply-channel speedup sweep (the Fig 5b calibration surface)",
		Section: "beyond the paper (calibration)",
		Run:     SpeedupAblation,
		Check:   func(_ *config.Config, f *Figure) error { return CheckSpeedupAblation(f) },
	})
	MustRegister(Experiment{
		ID: "clock-fuzz", Order: 210,
		Title:   "Clock fuzzing degrades the channel; a wider slot recovers it",
		Section: "§6 (clock fuzzing)",
		Run:     ClockFuzzExperiment,
		Check:   func(_ *config.Config, f *Figure) error { return CheckClockFuzz(f) },
	})
	MustRegister(Experiment{
		ID: "side-channel", Order: 220,
		Title:   "Linear correlation between victim L2 traffic and spy NoC latency",
		Section: "§5 (side channel)",
		Run:     SideChannelExperiment,
		Check:   func(_ *config.Config, f *Figure) error { return CheckSideChannel(f) },
	})
}

// NoiseExperiment examines the §5 "Impact of Noise" analysis: a third
// kernel streams reads through the L2 while a single-TPC covert channel
// runs. Placement decides everything. A third kernel confined to other GPCs
// is absorbed — its traffic rides other GPC reply links, the channel's hot
// preloaded window stays MRU in the 16-way L2, and DRAM bounds its eviction
// rate. The same kernel co-located in the receiver's GPC saturates the
// shared GPC reply channel and collapses the covert channel. This is the
// quantitative basis for §5's advice that the attacker claim all cores: a
// full-GPU multi-TPC transmission leaves the intruder nowhere harmful to
// land.
func NoiseExperiment(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "noise",
		Title:  "Covert channel error rate under third-kernel L2 noise",
		XLabel: "noise mode (0=none, 1=other GPCs, 2=receiver's GPC)",
		YLabel: "error rate",
		Header: []string{"noise placement", "error rate", "kbps"},
	}
	bits := opt.pick(64, 200)
	payload := core.AlternatingPayload(bits, 2)
	p, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	durLimit := uint64(bits+64) * p.SlotCycles * 3
	channelGPC := cfg.GPCOfTPC(0)
	// Small, L2-resident per-warp windows keep the noise kernel's read rate
	// LSU-bound (like the sender's own traffic), so the contention it
	// causes is NoC contention, not DRAM-throughput-bound eviction.
	const noiseWS = uint64(4096)
	const noiseBase = uint64(1) << 28

	mkNoise := func(inChannelGPC bool) device.KernelSpec {
		return device.KernelSpec{
			Name:   "noise",
			Blocks: cfg.NumSMs(), // both SM slots of every TPC
			// Enough warps to keep each noise SM's LSU pipeline full
			// despite every access missing to DRAM.
			WarpsPerBlock: 6,
			New: func(b, w int) device.Program {
				started := false
				var startClock uint64
				opIdx := 0
				return device.StepFunc(func(ctx *device.Ctx) device.Op {
					if !started {
						started = true
						if cfg.TPCOfSM(ctx.SMID) == 0 {
							return device.Done() // never share the channel's TPC
						}
						if (cfg.GPCOfSM(ctx.SMID) == channelGPC) != inChannelGPC {
							return device.Done()
						}
						startClock = ctx.Clock64
					}
					if ctx.Clock64-startClock > durLimit {
						return device.Done()
					}
					off := uint64(opIdx) * 1024 % noiseWS
					opIdx++
					base := noiseBase + uint64(ctx.SMID*6+w)*noiseWS + off
					return device.Mem(warp.UncoalescedOp(base, false, cfg.L2LineBytes))
				})
			},
		}
	}

	modes := []struct {
		name  string
		noise bool
		inGPC bool
	}{
		{"none", false, false},
		{"streaming, other GPCs only", true, false},
		{"streaming, receiver's GPC", true, true},
	}
	results, err := fanOut(cfg, len(modes), func(i int) (core.Result, error) {
		mode := modes[i]
		tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
		if err != nil {
			return core.Result{}, err
		}
		g, err := engine.New(*cfg)
		if err != nil {
			return core.Result{}, err
		}
		if err := tr.Launch(g, 0); err != nil {
			return core.Result{}, err
		}
		if mode.noise {
			g.Preload(noiseBase, uint64(cfg.NumSMs()*6)*noiseWS)
			if _, err := g.Launch(mkNoise(mode.inGPC)); err != nil {
				return core.Result{}, err
			}
		}
		res, err := tr.Finish(g)
		if err != nil {
			return res, fmt.Errorf("noise run (%s): %w", mode.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, mode := range modes {
		res := results[i]
		xs = append(xs, float64(i))
		ys = append(ys, res.ErrorRate)
		f.Rows = append(f.Rows, []string{
			mode.name,
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
	}
	f.addSeries("error rate", xs, ys)
	f.note("third-kernel noise outside the channel's GPC is absorbed (its traffic " +
		"rides other GPC reply links); noise inside the receiver's GPC contends on " +
		"the shared reply channel — a steady shift the threshold can survive at " +
		"small scale, a collapse when enough co-located SMs saturate the link " +
		"(Volta) — hence the §5 advice that the attacker claim all cores")
	return f, nil
}

// CheckNoise asserts the placement-dependent structure: the clean channel
// works, other-GPC noise is absorbed, and noise in the receiver's GPC never
// hurts less than remote noise. How much same-GPC noise hurts is
// scale-dependent: on the small topology its steady contention shifts both
// latency levels together and the threshold separation survives, while on
// the Volta topology the larger co-located noise saturates the shared reply
// channel and collapses the channel (error -> ~50%).
func CheckNoise(f *Figure) error {
	s, ok := f.seriesByName("error rate")
	if !ok || len(s.Y) != 3 {
		return fmt.Errorf("noise: malformed series")
	}
	clean, farNoise, nearNoise := s.Y[0], s.Y[1], s.Y[2]
	switch {
	case clean > 0.05:
		return fmt.Errorf("noise: clean-run error %.3f, channel should work", clean)
	case farNoise > 0.2:
		return fmt.Errorf("noise: other-GPC noise collapsed the channel (error %.3f)", farNoise)
	case nearNoise+0.02 < farNoise:
		return fmt.Errorf("noise: same-GPC noise (%.3f) hurt less than remote noise (%.3f)",
			nearNoise, farNoise)
	}
	return nil
}

// SenderWarpsAblation sweeps the sender's warp count (the paper uses 5 for
// the TPC channel): too few warps leave LSU pipeline gaps during which the
// receiver observes no contention, raising the error rate.
func SenderWarpsAblation(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-warps",
		Title:  "Sender warp count vs channel quality (paper uses 5)",
		XLabel: "sender warps",
		YLabel: "error rate",
		Header: []string{"warps", "error rate", "kbps"},
	}
	bits := opt.pick(64, 200)
	payload := core.AlternatingPayload(bits, 2)
	var xs, ys []float64
	for _, warps := range []int{1, 2, 5, 8} {
		p := core.Params{Kind: core.TPCChannel, Iterations: 4, SyncPeriod: 16,
			SenderWarps: warps, Seed: opt.seed()}
		p, err := core.Calibrate(cfg, p, 32)
		if err != nil {
			// A 1-warp sender may not even calibrate; record it as a
			// dead operating point.
			xs = append(xs, float64(warps))
			ys = append(ys, 0.5)
			f.Rows = append(f.Rows, []string{fmt.Sprintf("%d", warps), "uncalibratable", "-"})
			continue
		}
		tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run()
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(warps))
		ys = append(ys, res.ErrorRate)
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", warps),
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
	}
	f.addSeries("error rate", xs, ys)
	return f, nil
}

// SlotAblation sweeps the timing-slot length at fixed iterations: slots too
// short for the probe round trip collapse the channel, oversized slots only
// waste bandwidth — the "slightly larger than the L2 round trip" guidance of
// §4.4.
func SlotAblation(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-slot",
		Title:  "Timing slot length vs channel quality at 4 iterations",
		XLabel: "slot length (fraction of default T)",
		YLabel: "error rate / kbps",
		Header: []string{"slot scale", "slot (cycles)", "error rate", "kbps"},
	}
	bits := opt.pick(64, 200)
	payload := core.AlternatingPayload(bits, 2)
	base := core.DefaultSlot(core.TPCChannel, 4)
	var xs, errs, rates []float64
	for _, scale := range []float64{0.5, 0.75, 1.0, 1.5, 2.0} {
		slot := uint64(float64(base) * scale)
		p := core.Params{Kind: core.TPCChannel, Iterations: 4, SyncPeriod: 16,
			SlotCycles: slot, Seed: opt.seed()}
		p, err := core.Calibrate(cfg, p, 32)
		if err != nil {
			xs = append(xs, scale)
			errs = append(errs, 0.5)
			rates = append(rates, 0)
			f.Rows = append(f.Rows, []string{
				fmt.Sprintf("%.2f", scale), fmt.Sprintf("%d", slot), "uncalibratable", "-"})
			continue
		}
		tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run()
		if err != nil {
			return nil, err
		}
		xs = append(xs, scale)
		errs = append(errs, res.ErrorRate)
		rates = append(rates, res.BitsPerSecond/1e3)
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%.2f", scale), fmt.Sprintf("%d", slot),
			fmt.Sprintf("%.4f", res.ErrorRate), fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
	}
	f.addSeries("error rate", xs, errs)
	f.addSeries("kbps", xs, rates)
	return f, nil
}

// CheckSlotAblation asserts that oversizing the slot costs bandwidth without
// helping error, i.e. the default sits near the paper's guidance.
func CheckSlotAblation(f *Figure) error {
	rates, ok := f.seriesByName("kbps")
	if !ok {
		return fmt.Errorf("ablation-slot: missing kbps")
	}
	errs, _ := f.seriesByName("error rate")
	n := len(rates.Y)
	if rates.Y[n-1] >= rates.Y[n-2] {
		return fmt.Errorf("ablation-slot: doubling the slot did not cost bandwidth")
	}
	// The default (scale 1.0, index 2) should already be near error-free.
	if errs.Y[2] > 0.08 {
		return fmt.Errorf("ablation-slot: default slot error %.3f", errs.Y[2])
	}
	return nil
}

// SpeedupAblation sweeps the GPC reply-channel speedup and reports the
// 7-TPC read slowdown of Fig 5b — the calibration surface behind the 2.14x
// figure, showing how the concentration factor controls GPC-channel
// leakage (§2.3, §4.5).
func SpeedupAblation(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "ablation-speedup",
		Title:  "GPC reply speedup vs full-GPC read slowdown (calibration surface)",
		XLabel: "GPC reply rate (flits/cycle)",
		YLabel: "full-GPC read slowdown (x)",
		Header: []string{"reply rate", "slowdown"},
	}
	warps := 4
	ops := opt.pick(8, 20)
	gpcTPCs := cfg.TPCsOfGPC(0)
	base := float64(cfg.NoC.GPCRepRateNum) / float64(cfg.NoC.GPCRepRateDen)
	var xs, ys []float64
	for _, scale := range []float64{0.6, 0.8, 1.0, 1.4, 2.0} {
		c := *cfg
		c.NoC.GPCRepRateNum = int(base * scale * 100)
		c.NoC.GPCRepRateDen = 100
		ref := gpcTPCs[0]
		measure := func(n int) (uint64, error) {
			var acts []reveng.Activation
			for _, tpc := range gpcTPCs[:n] {
				for _, sm := range c.SMsOfTPC(tpc) {
					o := ops
					if tpc != ref {
						o = ops * 3
					}
					acts = append(acts, reveng.Activation{SM: sm, Ops: o, Warps: warps, Write: false})
				}
			}
			times, err := reveng.Measure(&c, acts, reveng.WarpLayout(0, warps))
			if err != nil {
				return 0, err
			}
			var t uint64
			for _, sm := range c.SMsOfTPC(ref) {
				if times[sm] > t {
					t = times[sm]
				}
			}
			return t, nil
		}
		solo, err := measure(1)
		if err != nil {
			return nil, err
		}
		full, err := measure(len(gpcTPCs))
		if err != nil {
			return nil, err
		}
		slow := float64(full) / float64(solo)
		rate := base * scale
		xs = append(xs, rate)
		ys = append(ys, slow)
		f.Rows = append(f.Rows, []string{fmt.Sprintf("%.2f", rate), fmt.Sprintf("%.2fx", slow)})
	}
	f.addSeries("slowdown", xs, ys)
	f.note("lower speedup -> stronger GPC contention; the shipped calibration "+
		"(%.2f flits/cycle) reproduces the paper's 2.14x at 7 TPCs on the Volta topology", base)
	return f, nil
}

// CheckSpeedupAblation asserts monotonicity: more reply bandwidth means less
// GPC contention.
func CheckSpeedupAblation(f *Figure) error {
	s, ok := f.seriesByName("slowdown")
	if !ok {
		return fmt.Errorf("ablation-speedup: missing series")
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]+0.05 {
			return fmt.Errorf("ablation-speedup: slowdown not monotone in reply rate: %v", s.Y)
		}
	}
	if s.Y[0] < s.Y[len(s.Y)-1]+0.3 {
		return fmt.Errorf("ablation-speedup: sweep shows no sensitivity: %v", s.Y)
	}
	return nil
}

// ClockFuzzExperiment reproduces the §6 clock-fuzzing discussion: quantizing
// the clock registers (TimeWarp-style) degrades the clock-based
// synchronization and raises the error rate, but — unlike strict round-robin
// arbitration — it does not remove the covert channel: widening the timing
// slot to swallow the quantization error restores communication at reduced
// bandwidth.
func ClockFuzzExperiment(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "clock-fuzz",
		Title:  "Clock fuzzing vs the covert channel (degrades, does not remove)",
		Header: []string{"fuzz (bits)", "slot", "error rate", "kbps"},
	}
	bits := opt.pick(64, 200)
	payload := core.AlternatingPayload(bits, 2)
	run := func(fuzzBits, iters int, slotScale float64) (core.Result, error) {
		c := *cfg
		c.ClockFuzzBits = fuzzBits
		p := core.Params{Kind: core.TPCChannel, Iterations: iters, SyncPeriod: 16, Seed: opt.seed()}
		p.SlotCycles = uint64(float64(core.DefaultSlot(core.TPCChannel, iters)) * slotScale)
		p, err := core.Calibrate(&c, p, 32)
		if err != nil {
			return core.Result{}, err
		}
		tr, err := core.NewTransmission(&c, payload, []int{0}, p)
		if err != nil {
			return core.Result{}, err
		}
		return tr.Run()
	}
	type point struct {
		name      string
		fuzz      int
		iters     int
		slotScale float64
	}
	var xs, ys []float64
	for i, pt := range []point{
		{"no fuzz", 0, 4, 1},
		{"10-bit fuzz, same operating point", 10, 4, 1},
		// The attacker's counter: a denser flood (more iterations) inside
		// a 3x slot swallows the fuzz-induced misalignment.
		{"10-bit fuzz, 8 iterations, 3x slot", 10, 8, 3},
	} {
		res, err := run(pt.fuzz, pt.iters, pt.slotScale)
		if err != nil {
			// Calibration may fail outright under fuzzing at the original
			// slot: record the channel as dead at that operating point.
			f.Rows = append(f.Rows, []string{
				fmt.Sprintf("%d", pt.fuzz), fmt.Sprintf("%.0fx", pt.slotScale), "dead (uncalibratable)", "0"})
			xs = append(xs, float64(i))
			ys = append(ys, 0.5)
			continue
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", pt.fuzz), fmt.Sprintf("%.0fx", pt.slotScale),
			fmt.Sprintf("%.4f", res.ErrorRate), fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
		xs = append(xs, float64(i))
		ys = append(ys, res.ErrorRate)
	}
	f.addSeries("error rate", xs, ys)
	f.note("clock fuzzing does not necessarily remove the covert channel (§6): " +
		"the attacker recovers by widening the timing slot at a bandwidth cost")
	return f, nil
}

// CheckClockFuzz asserts the §6 claim: fuzzing hurts at the original slot
// but the widened-slot attacker communicates again.
func CheckClockFuzz(f *Figure) error {
	s, ok := f.seriesByName("error rate")
	if !ok || len(s.Y) != 3 {
		return fmt.Errorf("clock-fuzz: malformed series")
	}
	clean, fuzzed, recovered := s.Y[0], s.Y[1], s.Y[2]
	switch {
	case clean > 0.05:
		return fmt.Errorf("clock-fuzz: baseline error %.3f", clean)
	case fuzzed < clean+0.03:
		return fmt.Errorf("clock-fuzz: fuzzing did not degrade the channel (%.3f vs %.3f)", fuzzed, clean)
	case recovered > 0.15:
		return fmt.Errorf("clock-fuzz: widened slot did not recover the channel (%.3f)", recovered)
	}
	return nil
}

// SideChannelExperiment reproduces the §5 side-channel sketch: a spy
// co-located in a victim's TPC continuously writes and measures its own
// latency; because the TPC channel is directly shared, the spy's latency
// rises linearly with the victim's L2 access rate — i.e. with the victim's
// L1 miss rate, leaking a classic cache-attack signal without touching the
// victim's caches.
func SideChannelExperiment(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "side-channel",
		Title:  "NoC contention as an L1-miss-rate probe (§5 side-channel sketch)",
		XLabel: "victim L2 accesses per 100 cycles (proxy for L1 miss rate)",
		YLabel: "spy-observed write time (normalized)",
	}
	warps := 4
	ops := opt.pick(10, 25)
	solo, err := soloTime(cfg, 1, ops, warps, true)
	if err != nil {
		return nil, err
	}
	// The victim runs on SM0 with a varying amount of L2 traffic (its
	// L1-resident fraction does not reach the NoC); the spy writes from
	// SM1, the other SM of TPC0.
	var xs, ys []float64
	for _, victimOps := range []int{0, ops / 4, ops / 2, 3 * ops / 4, ops} {
		acts := []reveng.Activation{{SM: 1, Ops: ops, Warps: warps, Write: true}}
		if victimOps > 0 {
			acts = append(acts, reveng.Activation{SM: 0, Ops: victimOps, Warps: warps, Write: false})
		}
		times, err := reveng.Measure(cfg, acts, reveng.WarpLayout(0, warps))
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(victimOps)/float64(ops))
		ys = append(ys, float64(times[1])/float64(solo))
	}
	f.addSeries("spy latency", xs, ys)
	_, slope, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	f.note("linear correlation between victim L2 traffic and spy latency: slope %.3f, r2 %.3f "+
		"(§5: \"a linear correlation between the NoC channel contention and the amount of L2 accesses\")",
		slope, r2)
	return f, nil
}

// CheckSideChannel asserts the §5 claim: the spy's latency correlates
// linearly and positively with the victim's L2 traffic.
func CheckSideChannel(f *Figure) error {
	s, ok := f.seriesByName("spy latency")
	if !ok {
		return fmt.Errorf("side-channel: missing series")
	}
	_, slope, r2, err := stats.LinearFit(s.X, s.Y)
	if err != nil {
		return err
	}
	if slope <= 0.1 || r2 < 0.85 {
		return fmt.Errorf("side-channel: no linear leakage (slope %.3f, r2 %.3f)", slope, r2)
	}
	return nil
}

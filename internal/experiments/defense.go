package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/reveng"
	"gpunoc/internal/stats"
)

// The countermeasure artifacts (§6) register themselves with the experiment
// registry.
func init() {
	MustRegister(Experiment{
		ID: "fig15", Order: 130,
		Title:   "SM0's time under RR/CRR/SRR arbitration as SM1's traffic grows",
		Section: "§6, Figure 15",
		Run:     Fig15,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig15(f) },
	})
	MustRegister(Experiment{
		ID: "srr-defeat", Order: 140,
		Title:   "The channel works under RR and collapses under SRR",
		Section: "§6 (channel under SRR)",
		Run:     SRRChannelDefeat,
		Check:   func(_ *config.Config, f *Figure) error { return CheckSRRChannelDefeat(f) },
	})
	MustRegister(Experiment{
		ID: "srr-tradeoff", Order: 150,
		Title:   "SRR cost on memory-bound vs compute-bound kernels",
		Section: "§6 (SRR performance cost)",
		Run:     SRRTradeoff,
		Check:   func(_ *config.Config, f *Figure) error { return CheckSRRTradeoff(f) },
	})
}

// Fig15 regenerates Figure 15 (the §6 simulation): SM0 and SM1 each run two
// warps of continuous write traffic; SM1's traffic volume sweeps from 0 to
// 100% of SM0's, under RR, CRR, and SRR arbitration. Each curve is
// normalized to its own zero-contention baseline, matching the paper's
// presentation (SRR holds SM0 constant; RR and CRR rise linearly).
func Fig15(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig15",
		Title:  "Simulation comparison of arbitration algorithms",
		XLabel: "fraction of memory access for SM1 (%)",
		YLabel: "SM0 time normalized to same-arbitration solo",
	}
	warps := 2 // §6: "each SM has 2 warps allocated"
	ops := opt.pick(10, 25)
	fractions := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, pol := range []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR} {
		c := *cfg
		c.NoC.Arbitration = pol
		solo, err := soloTime(&c, 0, ops, warps, true)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for _, frac := range fractions {
			acts := []reveng.Activation{{SM: 0, Ops: ops, Warps: warps, Write: true}}
			if contOps := int(frac * float64(ops)); contOps > 0 {
				acts = append(acts, reveng.Activation{SM: 1, Ops: contOps, Warps: warps, Write: true})
			}
			times, err := reveng.Measure(&c, acts, reveng.WarpLayout(0, warps))
			if err != nil {
				return nil, err
			}
			xs = append(xs, frac*100)
			ys = append(ys, float64(times[0])/float64(solo))
		}
		f.addSeries(pol.String(), xs, ys)
	}
	f.note("curves are normalized per arbitration policy; see the SRR trade-off " +
		"experiment for the absolute cost SRR imposes on solo workloads")
	return f, nil
}

// CheckFig15 asserts the countermeasure result: RR and CRR rise roughly
// linearly toward ~2x while SRR stays flat.
func CheckFig15(f *Figure) error {
	for _, name := range []string{"RR", "CRR"} {
		s, ok := f.seriesByName(name)
		if !ok {
			return fmt.Errorf("fig15: missing series %q", name)
		}
		_, slope, r2, err := stats.LinearFit(s.X, s.Y)
		if err != nil {
			return err
		}
		if slope <= 0.004 || r2 < 0.8 {
			return fmt.Errorf("fig15: %s not linear-increasing (slope %.4f/%%, r2 %.2f)", name, slope, r2)
		}
		if final := s.Y[len(s.Y)-1]; final < 1.6 {
			return fmt.Errorf("fig15: %s reaches only %.2fx at full contention", name, final)
		}
	}
	srr, ok := f.seriesByName("SRR")
	if !ok {
		return fmt.Errorf("fig15: missing SRR series")
	}
	lo, _ := stats.Min(srr.Y)
	hi, _ := stats.Max(srr.Y)
	if hi-lo > 0.08 {
		return fmt.Errorf("fig15: SRR varies by %.3f across the sweep; the channel is not closed", hi-lo)
	}
	return nil
}

// SRRChannelDefeat demonstrates the countermeasure end-to-end: the TPC
// covert channel that works under RR collapses to coin-flipping under SRR.
func SRRChannelDefeat(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "srr-defeat",
		Title:  "Covert channel error rate under baseline vs secure arbitration",
		Header: []string{"arbitration", "error rate", "kbps"},
	}
	bits := opt.pick(64, 256)
	payload := core.AlternatingPayload(bits, 2)
	// Calibrate once under RR; the attacker cannot recalibrate around SRR
	// because there is no latency difference left to find.
	p, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	for _, pol := range []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR} {
		c := *cfg
		c.NoC.Arbitration = pol
		tr, err := core.NewTransmission(&c, payload, []int{0}, p)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run()
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			pol.String(),
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
		f.addSeries(pol.String(), []float64{0}, []float64{res.ErrorRate})
	}
	return f, nil
}

// CheckSRRChannelDefeat asserts that RR and CRR still leak while SRR pushes
// the error rate toward 50% (no channel).
func CheckSRRChannelDefeat(f *Figure) error {
	get := func(name string) (float64, error) {
		s, ok := f.seriesByName(name)
		if !ok {
			return 0, fmt.Errorf("srr-defeat: missing %q", name)
		}
		return s.Y[0], nil
	}
	rr, err := get("RR")
	if err != nil {
		return err
	}
	crr, err := get("CRR")
	if err != nil {
		return err
	}
	srr, err := get("SRR")
	if err != nil {
		return err
	}
	switch {
	case rr > 0.05:
		return fmt.Errorf("srr-defeat: RR channel error %.3f, want working channel", rr)
	case crr > 0.15:
		return fmt.Errorf("srr-defeat: CRR should NOT stop the channel (error %.3f)", crr)
	case srr < 0.3:
		return fmt.Errorf("srr-defeat: SRR error %.3f, want ~0.5 (channel closed)", srr)
	}
	return nil
}

// SRRTradeoff quantifies the §6 cost of the countermeasure: a solo
// memory-intensive kernel loses up to ~2x bandwidth under SRR while a
// compute-intensive kernel is unaffected.
func SRRTradeoff(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "srr-tradeoff",
		Title:  "Performance cost of strict round-robin arbitration",
		Header: []string{"workload", "arbitration", "time (cycles)", "slowdown vs RR"},
	}
	ops := opt.pick(10, 30)

	memTime := func(pol config.ArbPolicy) (uint64, error) {
		c := *cfg
		c.NoC.Arbitration = pol
		return soloTime(&c, 0, ops, 4, true)
	}
	compTime := func(pol config.ArbPolicy) (uint64, error) {
		c := *cfg
		c.NoC.Arbitration = pol
		g, err := engine.New(c)
		if err != nil {
			return 0, err
		}
		spec := device.KernelSpec{
			Name:          "compute",
			Blocks:        1,
			WarpsPerBlock: 4,
			New: func(b, w int) device.Program {
				return &device.ComputeLoop{Count: ops * 40, IterCost: 8}
			},
		}
		k, err := g.Launch(spec)
		if err != nil {
			return 0, err
		}
		if err := g.RunKernels(50_000_000); err != nil {
			return 0, err
		}
		return k.Duration(), nil
	}

	for _, wl := range []struct {
		name string
		run  func(config.ArbPolicy) (uint64, error)
	}{
		{"memory-intensive", memTime},
		{"compute-intensive", compTime},
	} {
		base, err := wl.run(config.ArbRR)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for i, pol := range []config.ArbPolicy{config.ArbRR, config.ArbCRR, config.ArbSRR} {
			t, err := wl.run(pol)
			if err != nil {
				return nil, err
			}
			slow := float64(t) / float64(base)
			f.Rows = append(f.Rows, []string{
				wl.name, pol.String(), fmt.Sprintf("%d", t), fmt.Sprintf("%.2fx", slow),
			})
			xs = append(xs, float64(i))
			ys = append(ys, slow)
		}
		f.addSeries(wl.name, xs, ys)
	}
	return f, nil
}

// CheckSRRTradeoff asserts the trade-off: SRR costs the memory-bound kernel
// dearly (>=1.5x; the paper reports up to 2x bandwidth loss / 60% slowdown)
// and the compute-bound kernel nothing.
func CheckSRRTradeoff(f *Figure) error {
	mem, ok := f.seriesByName("memory-intensive")
	if !ok {
		return fmt.Errorf("srr-tradeoff: missing memory series")
	}
	comp, ok := f.seriesByName("compute-intensive")
	if !ok {
		return fmt.Errorf("srr-tradeoff: missing compute series")
	}
	srrMem := mem.Y[len(mem.Y)-1]
	srrComp := comp.Y[len(comp.Y)-1]
	if srrMem < 1.5 {
		return fmt.Errorf("srr-tradeoff: SRR slows memory workload only %.2fx, want >=1.5x", srrMem)
	}
	if srrComp > 1.05 {
		return fmt.Errorf("srr-tradeoff: SRR slows compute workload %.2fx, want ~1x", srrComp)
	}
	return nil
}

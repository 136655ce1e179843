package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/noise"
)

// The noise-robustness studies (beyond the paper; §7 frames co-runner noise
// as the channel's practical limit) register themselves with the registry.
func init() {
	MustRegister(Experiment{
		ID: "noise-sweep", Order: 240,
		Title:   "Error rate vs background-traffic intensity, TPC and GPC channels",
		Section: "beyond the paper (§7 noise robustness)",
		Run:     NoiseSweep,
		Check:   CheckNoiseSweep,
	})
	MustRegister(Experiment{
		ID: "coded-vs-uncoded", Order: 250,
		Title:   "Protocol hardening under noise: recalibration and coding vs the raw channel",
		Section: "beyond the paper (§7 noise robustness)",
		Run:     CodedVsUncoded,
		Check:   func(_ *config.Config, f *Figure) error { return CheckCodedVsUncoded(f) },
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("error rate"); ok && len(s.Y) == 4 {
				m["uncoded-error"] = s.Y[0]
				m["hamming-error"] = s.Y[3]
			}
			if s, ok := f.seriesByName("kbps"); ok && len(s.Y) == 4 && s.Y[0] > 0 {
				m["coding-bandwidth-cost"] = 1 - s.Y[3]/s.Y[0]
			}
			return m
		},
	})
}

// channelGPCSMs lists every SM of the GPC that unit 0 of the channel lives
// in, including the channel's own TPC: an oblivious co-runner scheduled
// across the whole GPC, the way a real workload lands on whatever SMs the
// hardware hands it. Its traffic contends with the transmission at every
// level — LSU issue slots on the channel's own SMs, the TPC write mux, and
// the GPC read mux whose 7:1 concentration aggregates the whole GPC's
// offered load onto the link the receiver probes.
func channelGPCSMs(cfg *config.Config) []int {
	var sms []int
	for _, tpc := range cfg.TPCsOfGPC(cfg.GPCOfTPC(0)) {
		sms = append(sms, cfg.SMsOfTPC(tpc)...)
	}
	return sms
}

// noiseSpec builds the standard sweep co-runner: a streaming generator on
// every SM of the channel's GPC, alive for the whole transmission.
func noiseSpec(cfg *config.Config, intensity float64, slots int, slotCycles uint64, seed int64) noise.Spec {
	return noise.Spec{
		Kind:           noise.Stream,
		SMs:            channelGPCSMs(cfg),
		Intensity:      intensity,
		DurationCycles: uint64(slots+96) * slotCycles * 2,
		Seed:           seed,
	}
}

// noisySend runs one single-unit transmission with the given background
// traffic co-scheduled (silent specs launch nothing).
func noisySend(cfg *config.Config, payload []core.Symbol, p core.Params, specs ...noise.Spec) (core.Result, error) {
	tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
	if err != nil {
		return core.Result{}, err
	}
	ks, err := noise.Kernels(cfg, specs...)
	if err != nil {
		return core.Result{}, err
	}
	return tr.Run(ks...)
}

// NoiseSweep sweeps the intensity of a streaming co-runner placed across the
// channel's GPC and measures the covert channel's error rate, for both
// channel kinds. The generators are ordinary kernels (internal/noise), so
// their traffic shares the LSUs, the TPC write muxes, and the GPC read
// channel with the transmission — the §7 co-runner scenario. Thresholds are
// calibrated on a quiet GPU, so the sweep shows the raw protocol degrading
// monotonically with offered load.
//
// Which channel collapses first depends on the GPC fan-in, because the GPC
// mux aggregates signal and noise alike. On a small 2-TPC GPC the receiver's
// probes share the mux with the whole GPC's co-runner traffic while the
// sender's flood comes from a single TPC, so the GPC channel degrades first
// (the intuition behind calling the GPC channel noise-fragile). On Volta's
// 7-TPC GPCs the same aggregation works for the sender: twelve SMs flood the
// mux during a 1-slot, which out-shouts co-runner traffic that is already
// enough to disturb the TPC pair's co-located LSUs — there the TPC channel
// breaks first. CheckNoiseSweep asserts the ordering per topology.
func NoiseSweep(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "noise-sweep",
		Title:  "Covert channel error rate vs background-traffic intensity",
		XLabel: "noise intensity (offered load fraction)",
		YLabel: "error rate",
		Header: []string{"channel", "intensity", "error rate", "kbps"},
	}
	bits := opt.pick(48, 160)
	// Intensities are small fractions of each SM's peak issue rate: the GPC
	// mux concentrates every SM of the GPC onto one link, so even a few
	// percent of offered load per SM is heavy aggregate traffic there, and
	// by ~10-15% the raw protocol is into coin-flip territory.
	intensities := []float64{0, 0.02, 0.05, 0.1, 0.15}
	if opt.Scale == Full {
		intensities = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2}
	}
	payload := core.AlternatingPayload(bits, 2)
	kinds := []core.Kind{core.TPCChannel, core.GPCChannel}
	// Each kind calibrates and then sends at every intensity; the sends
	// depend on the calibration, so the intensities fan out inside it.
	sweeps, err := fanOut(cfg, len(kinds), func(k int) ([]core.Result, error) {
		kind := kinds[k]
		p, err := calibratedParams(cfg, kind, 4, 1, opt.seed())
		if err != nil {
			return nil, fmt.Errorf("noise-sweep: calibrate %v: %w", kind, err)
		}
		return fanOut(cfg, len(intensities), func(i int) (core.Result, error) {
			spec := noiseSpec(cfg, intensities[i], len(payload), p.SlotCycles, opt.seed())
			res, err := noisySend(cfg, payload, p, spec)
			if err != nil {
				return res, fmt.Errorf("noise-sweep: %v at %.2f: %w", kind, intensities[i], err)
			}
			return res, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for k, kind := range kinds {
		var xs, ys []float64
		for i, res := range sweeps[k] {
			in := intensities[i]
			xs = append(xs, in)
			ys = append(ys, res.ErrorRate)
			f.Rows = append(f.Rows, []string{
				kind.String(),
				fmt.Sprintf("%.3f", in),
				fmt.Sprintf("%.4f", res.ErrorRate),
				fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
			})
		}
		f.addSeries(kind.String()+" error rate", xs, ys)
	}
	f.note("streaming co-runner across the channel's GPC; quiet-GPU thresholds — " +
		"the raw protocol degrades monotonically with offered load; which channel " +
		"collapses first tracks the GPC fan-in (the mux aggregates signal and noise alike)")
	return f, nil
}

// CheckNoiseSweep asserts the sweep's shape: both channels work clean,
// degrade (near-)monotonically as intensity rises, and are clearly broken by
// the top of the sweep. The channel ordering is topology-dependent (see
// NoiseSweep): on a 2-TPC GPC the GPC channel must accumulate at least as
// much error as the TPC channel; with a larger fan-in the aggregation
// shields the GPC channel, and the TPC channel must degrade at least as
// much.
func CheckNoiseSweep(cfg *config.Config, f *Figure) error {
	tpc, ok1 := f.seriesByName("TPC error rate")
	gpc, ok2 := f.seriesByName("GPC error rate")
	if !ok1 || !ok2 || len(tpc.Y) != len(gpc.Y) || len(tpc.Y) < 3 {
		return fmt.Errorf("noise-sweep: malformed series")
	}
	var sums [2]float64
	for si, s := range []Series{tpc, gpc} {
		if s.Y[0] > 0.05 {
			return fmt.Errorf("noise-sweep: %s starts at %.3f on a quiet GPU", s.Name, s.Y[0])
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+0.05 < s.Y[i-1] {
				return fmt.Errorf("noise-sweep: %s not monotone: %v", s.Name, s.Y)
			}
			sums[si] += s.Y[i]
		}
		if last := s.Y[len(s.Y)-1]; last < s.Y[0]+0.10 {
			return fmt.Errorf("noise-sweep: peak-intensity noise barely degraded %s (%.3f)", s.Name, last)
		}
	}
	fanIn := len(cfg.TPCsOfGPC(cfg.GPCOfTPC(0)))
	if fanIn <= 2 {
		if sums[1]+0.02 < sums[0] {
			return fmt.Errorf("noise-sweep: TPC degraded before GPC on a %d-TPC GPC (sums %.3f vs %.3f)",
				fanIn, sums[0], sums[1])
		}
	} else if sums[0]+0.02 < sums[1] {
		return fmt.Errorf("noise-sweep: GPC degraded before TPC despite %d-TPC aggregation (sums %.3f vs %.3f)",
			fanIn, sums[1], sums[0])
	}
	return nil
}

// CodedVsUncoded holds the noise intensity fixed at a moderate level that
// breaks the raw protocol and walks through the hardening layers: noise-aware
// recalibration (Calibrate with the generator co-scheduled, so thresholds
// move to the noisy latency distribution) and the coding schemes of
// core/coding.go on top of it. Hamming(7,4) with a resync preamble restores
// near-zero error; the kbps column quantifies what the wire overhead costs.
func CodedVsUncoded(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "coded-vs-uncoded",
		Title:  "Hardened vs raw channel at moderate background noise",
		XLabel: "scheme (0=uncoded, 1=+recalibration, 2=+repetition, 3=+hamming)",
		YLabel: "error rate",
		Header: []string{"scheme", "error rate", "kbps"},
	}
	const intensity = 0.1
	bits := opt.pick(48, 160)
	payload := core.AlternatingPayload(bits, 2)
	base := core.Params{Kind: core.TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: opt.seed()}

	clean, err := core.Calibrate(cfg, base, 32)
	if err != nil {
		return nil, fmt.Errorf("coded-vs-uncoded: quiet calibrate: %w", err)
	}
	calSpec := noiseSpec(cfg, intensity, 32, clean.SlotCycles, opt.seed())
	calKernels, err := noise.Kernels(cfg, calSpec)
	if err != nil {
		return nil, err
	}
	aware, err := core.Calibrate(cfg, base, 32, calKernels...)
	if err != nil {
		return nil, fmt.Errorf("coded-vs-uncoded: noise-aware calibrate: %w", err)
	}

	schemes := []struct {
		name   string
		params core.Params
	}{
		{"uncoded, quiet-GPU thresholds", clean},
		{"uncoded, noise-aware thresholds", aware},
		{"repetition x3, noise-aware", withCoding(aware, core.CodingRepetition, 0, 0)},
		{"hamming(7,4)+preamble, noise-aware", withCoding(aware, core.CodingHamming74, 16, 2)},
	}
	results, err := fanOut(cfg, len(schemes), func(i int) (core.Result, error) {
		sc := schemes[i]
		spec := noiseSpec(cfg, intensity, sc.params.WireLen(len(payload)), sc.params.SlotCycles, opt.seed())
		res, err := noisySend(cfg, payload, sc.params, spec)
		if err != nil {
			return res, fmt.Errorf("coded-vs-uncoded: %s: %w", sc.name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, errRates, rates []float64
	for i, sc := range schemes {
		res := results[i]
		xs = append(xs, float64(i))
		errRates = append(errRates, res.ErrorRate)
		rates = append(rates, res.BitsPerSecond/1e3)
		f.Rows = append(f.Rows, []string{
			sc.name,
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
	}
	f.addSeries("error rate", xs, errRates)
	f.addSeries("kbps", xs, rates)
	f.note("same streaming co-runner for every row; hardening stacks noise-aware " +
		"thresholds and coding — the error returns to ~0 and the kbps column prices " +
		"the wire overhead (repetition 1/3, hamming 4/7 plus preamble)")
	return f, nil
}

// CheckCodedVsUncoded asserts the hardening story: the raw channel breaks at
// this noise level (>10% symbol error), the fully hardened channel
// (Hamming + noise-aware thresholds) recovers to <=1%, and the recovery is
// paid for in bandwidth (the coded kbps is strictly below the uncoded kbps).
func CheckCodedVsUncoded(f *Figure) error {
	errs, ok1 := f.seriesByName("error rate")
	rates, ok2 := f.seriesByName("kbps")
	if !ok1 || !ok2 || len(errs.Y) != 4 || len(rates.Y) != 4 {
		return fmt.Errorf("coded-vs-uncoded: malformed series")
	}
	uncoded, recal, rep, ham := errs.Y[0], errs.Y[1], errs.Y[2], errs.Y[3]
	switch {
	case uncoded <= 0.10:
		return fmt.Errorf("coded-vs-uncoded: raw channel survived the noise (%.3f), no hardening story", uncoded)
	case recal > uncoded+0.02:
		return fmt.Errorf("coded-vs-uncoded: recalibration made things worse (%.3f vs %.3f)", recal, uncoded)
	case rep > 0.05:
		return fmt.Errorf("coded-vs-uncoded: repetition coding left %.3f error", rep)
	case ham > 0.01:
		return fmt.Errorf("coded-vs-uncoded: hamming-coded error %.3f, want <=0.01", ham)
	case rates.Y[3] >= rates.Y[0]:
		return fmt.Errorf("coded-vs-uncoded: coding shows no bandwidth cost (%.1f vs %.1f kbps)",
			rates.Y[3], rates.Y[0])
	}
	return nil
}

// withCoding returns p with the given coding scheme layered on.
func withCoding(p core.Params, c core.Coding, preamble, guard int) core.Params {
	p.Coding = c
	p.PreambleSymbols = preamble
	p.ResyncGuardSlots = guard
	return p
}

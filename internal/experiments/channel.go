package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/engine"
)

// The covert-channel artifacts (§4–§5) register themselves with the
// experiment registry.
func init() {
	MustRegister(Experiment{
		ID: "fig9", Order: 80,
		Title:   "'0101...' latency trace, slot-only vs slot+synchronization",
		Section: "§4.2, Figure 9",
		Run:     Fig9,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig9(f) },
	})
	MustRegister(Experiment{
		ID: "fig10", Order: 90,
		Title:   "Bitrate and error rate over the iteration sweep, all channel variants",
		Section: "§4.5, Figure 10",
		Run:     Fig10,
		Check: func(cfg *config.Config, f *Figure) error {
			return CheckFig10(f, cfg.NumTPCs())
		},
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("multi-TPC bitrate (kbps)"); ok && len(s.Y) > 3 {
				m["multi-tpc-Mbps"] = s.Y[3] * 1e3 / 1e6
			}
			if s, ok := f.seriesByName("TPC bitrate (kbps)"); ok && len(s.Y) > 3 {
				m["tpc-kbps"] = s.Y[3]
			}
			if s, ok := f.seriesByName("multi-GPC bitrate (kbps)"); ok && len(s.Y) > 3 {
				m["multi-gpc-Mbps"] = s.Y[3] * 1e3 / 1e6
			}
			return m
		},
	})
	MustRegister(Experiment{
		ID: "fig13", Order: 110,
		Title:   "Error rate across the sender/receiver coalescing combinations",
		Section: "§5, Figure 13",
		Run:     Fig13,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig13(f) },
	})
	MustRegister(Experiment{
		ID: "fig14", Order: 120,
		Title:   "2-bit multi-level channel trace and bandwidth gain",
		Section: "§5, Figure 14",
		Run:     Fig14,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig14(f) },
		Metrics: func(f *Figure) map[string]float64 {
			if s, ok := f.seriesByName("bandwidth gain"); ok && len(s.Y) > 0 {
				return map[string]float64{"gain-x": s.Y[0]}
			}
			return nil
		},
	})
	MustRegister(Experiment{
		ID: "mps", Order: 160,
		Title:   "MPS-style launch skew: one-time synchronization overhead only",
		Section: "§2.2 (MPS launch skew)",
		Run:     MPSOverhead,
		Check: func(_ *config.Config, f *Figure) error {
			if len(f.Rows) != 3 {
				return fmt.Errorf("mps: %d rows, want 3", len(f.Rows))
			}
			for _, s := range f.Series {
				if len(s.Y) > 0 && s.Y[0] > 0.1 {
					return fmt.Errorf("mps: %s error rate %.3f", s.Name, s.Y[0])
				}
			}
			return nil
		},
	})
}

// calibratedParams runs the §4.4 empirical threshold determination once per
// (kind, iterations) pair.
func calibratedParams(cfg *config.Config, kind core.Kind, iterations, bitsPerSymbol int, seed int64) (core.Params, error) {
	p := core.Params{
		Kind:          kind,
		Iterations:    iterations,
		SyncPeriod:    16,
		BitsPerSymbol: bitsPerSymbol,
		Seed:          seed,
	}
	return core.Calibrate(cfg, p, 32*bitsPerSymbol)
}

// Fig9 regenerates Figure 9: the receiver's per-slot latency while a
// '0101...' sequence is transmitted, (a) with timing slots only and (b) with
// periodic clock synchronization.
func Fig9(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig9",
		Title:  "Receiver timing for a '0101...' sequence, slot-only vs slot+sync",
		XLabel: "bit sequence index",
		YLabel: "mean slot latency (cycles)",
	}
	// The model's busy-wait drift random-walks more slowly than the real
	// GPU's, so the slot-only divergence needs a longer sequence than the
	// paper's 30 bits to become visible.
	bits := opt.pick(120, 240)
	payload := core.AlternatingPayload(bits, 2)
	p, err := calibratedParams(cfg, core.TPCChannel, 2, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		name string
		sync int
	}{
		{"timing slot only", 0},
		{"slot + local synchronization", 8},
	} {
		pm := p
		pm.SyncPeriod = mode.sync
		tr, err := core.NewTransmission(cfg, payload, []int{0}, pm)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run()
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for i, st := range res.Pairs[0].Trace {
			xs = append(xs, float64(i+1))
			ys = append(ys, st.MeanLatency)
		}
		f.addSeries(mode.name, xs, ys)
		half := res.SymbolsSent / 2
		lateErrs := 0
		pair := res.Pairs[0]
		for i := half; i < len(pair.Sent); i++ {
			if i >= len(pair.Received) || pair.Received[i] != pair.Sent[i] {
				lateErrs++
			}
		}
		f.note("%s: error rate %.3f (%.3f over the second half)",
			mode.name, res.ErrorRate, float64(lateErrs)/float64(res.SymbolsSent-half))
	}
	return f, nil
}

// CheckFig9 asserts the Fig 9 contrast: the synchronized run decodes the
// alternating pattern while the slot-only run accumulates errors.
func CheckFig9(f *Figure) error {
	synced, ok := f.seriesByName("slot + local synchronization")
	if !ok {
		return fmt.Errorf("fig9: missing synchronized series")
	}
	var sum0, sum1 float64
	var n0, n1 int
	for i, y := range synced.Y {
		if i%2 == 0 {
			sum0 += y
			n0++
		} else {
			sum1 += y
			n1++
		}
	}
	if n0 == 0 || n1 == 0 {
		return fmt.Errorf("fig9: empty trace")
	}
	if sum1/float64(n1) <= sum0/float64(n0) {
		return fmt.Errorf("fig9: synchronized '1' slots (%.1f) not slower than '0' slots (%.1f)",
			sum1/float64(n1), sum0/float64(n0))
	}
	return nil
}

// Fig10Point is one operating point of Fig 10.
type Fig10Point struct {
	Iterations int
	Kbps       float64
	ErrorRate  float64
}

// fig10Point recalibrates one channel variant at the given iteration count
// (§4.4) and transmits an alternating payload over it.
func fig10Point(cfg *config.Config, kind core.Kind, units []int, bitsTotal, iters int, seed int64) (Fig10Point, error) {
	p, err := calibratedParams(cfg, kind, iters, 1, seed)
	if err != nil {
		return Fig10Point{}, err
	}
	tr, err := core.NewTransmission(cfg, core.AlternatingPayload(bitsTotal, 2), units, p)
	if err != nil {
		return Fig10Point{}, err
	}
	res, err := tr.Run()
	if err != nil {
		return Fig10Point{}, err
	}
	return Fig10Point{
		Iterations: iters,
		Kbps:       res.BitsPerSecond / 1e3,
		ErrorRate:  res.ErrorRate,
	}, nil
}

// Fig10 regenerates Figure 10: bitrate and error rate versus the number of
// iterations for (a) a single TPC channel, (b) the multi-TPC channel across
// all TPCs, (c) a single GPC channel and (d) the multi-GPC channel. Each
// (variant, iterations) point is its own calibration and transmission, so
// the 20 points fan out.
func Fig10(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig10",
		Title:  "Covert channel bitrate and error rate vs iterations",
		XLabel: "iterations (memory ops per bit)",
		YLabel: "kbps / error rate",
	}
	perUnit := opt.pick(48, 200)
	variants := []struct {
		name  string
		kind  core.Kind
		units []int
		bits  int
	}{
		{"TPC", core.TPCChannel, []int{0}, perUnit},
		{"multi-TPC", core.TPCChannel, nil, perUnit * cfg.NumTPCs()},
		{"GPC", core.GPCChannel, []int{0}, perUnit},
		{"multi-GPC", core.GPCChannel, nil, perUnit * cfg.NumGPCs},
	}
	const sweep = 5 // iterations 1..5
	points, err := fanOut(cfg, len(variants)*sweep, func(i int) (Fig10Point, error) {
		v := variants[i/sweep]
		pt, err := fig10Point(cfg, v.kind, v.units, v.bits, i%sweep+1, opt.seed())
		if err != nil {
			return pt, fmt.Errorf("fig10 %s: %w", v.name, err)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var xs, rate, errs []float64
		for _, p := range points[vi*sweep : (vi+1)*sweep] {
			xs = append(xs, float64(p.Iterations))
			rate = append(rate, p.Kbps)
			errs = append(errs, p.ErrorRate)
		}
		f.addSeries(v.name+" bitrate (kbps)", xs, rate)
		f.addSeries(v.name+" error rate", xs, errs)
		f.note("%s at 4 iterations: %.0f kbps, %.3f error", v.name, rate[3], errs[3])
	}
	return f, nil
}

// CheckFig10 asserts the headline shapes: bitrate falls with iterations,
// error falls to near zero by 4-5 iterations, multi-TPC is roughly NumTPCs
// times the single channel, and the GPC channel is slower than the TPC
// channel.
func CheckFig10(f *Figure, numTPCs int) error {
	get := func(name string) ([]float64, error) {
		s, ok := f.seriesByName(name)
		if !ok {
			return nil, fmt.Errorf("fig10: missing series %q", name)
		}
		return s.Y, nil
	}
	tpcRate, err := get("TPC bitrate (kbps)")
	if err != nil {
		return err
	}
	tpcErr, err := get("TPC error rate")
	if err != nil {
		return err
	}
	multiRate, err := get("multi-TPC bitrate (kbps)")
	if err != nil {
		return err
	}
	gpcRate, err := get("GPC bitrate (kbps)")
	if err != nil {
		return err
	}
	for i := 1; i < len(tpcRate); i++ {
		if tpcRate[i] >= tpcRate[i-1] {
			return fmt.Errorf("fig10: TPC bitrate not decreasing with iterations: %v", tpcRate)
		}
	}
	if tpcErr[len(tpcErr)-1] > 0.05 {
		return fmt.Errorf("fig10: TPC error at 5 iterations %.3f, want ~0", tpcErr[len(tpcErr)-1])
	}
	if tpcErr[0] < tpcErr[len(tpcErr)-1] {
		return fmt.Errorf("fig10: error should fall with iterations: %v", tpcErr)
	}
	scale := multiRate[3] / tpcRate[3]
	if scale < float64(numTPCs)*0.6 {
		return fmt.Errorf("fig10: multi-TPC scales only %.1fx over single TPC (want ~%dx)", scale, numTPCs)
	}
	if gpcRate[3] >= tpcRate[3] {
		return fmt.Errorf("fig10: GPC channel (%.0f kbps) should be slower than TPC (%.0f kbps)",
			gpcRate[3], tpcRate[3])
	}
	return nil
}

// Fig13 regenerates Figure 13: the channel error rate across the four
// combinations of coalesced/uncoalesced sender and receiver.
func Fig13(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig13",
		Title:  "Impact of memory coalescing on the error rate",
		Header: []string{"sender", "receiver", "error rate"},
	}
	bits := opt.pick(64, 400)
	payload := core.AlternatingPayload(bits, 2)
	// Calibrate on the fully-uncoalesced channel; the other combos reuse
	// the same threshold (a coalesced sender cannot be calibrated at all).
	base, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	combos := []struct {
		senderCoal, receiverCoal bool
	}{
		{true, true}, {true, false}, {false, true}, {false, false},
	}
	name := func(coal bool) string {
		if coal {
			return "coalesced"
		}
		return "uncoalesced"
	}
	for _, c := range combos {
		p := base
		p.SenderCoalesced = c.senderCoal
		p.ReceiverCoalesced = c.receiverCoal
		tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run()
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			name(c.senderCoal), name(c.receiverCoal), fmt.Sprintf("%.4f", res.ErrorRate),
		})
		f.addSeries(fmt.Sprintf("sender %s / receiver %s", name(c.senderCoal), name(c.receiverCoal)),
			[]float64{0}, []float64{res.ErrorRate})
	}
	return f, nil
}

// CheckFig13 asserts the Fig 13 shape: a coalesced sender breaks the channel
// (error near 50%), while the fully-uncoalesced pair is near zero.
func CheckFig13(f *Figure) error {
	get := func(name string) (float64, error) {
		s, ok := f.seriesByName(name)
		if !ok {
			return 0, fmt.Errorf("fig13: missing %q", name)
		}
		return s.Y[0], nil
	}
	coalSender, err := get("sender coalesced / receiver uncoalesced")
	if err != nil {
		return err
	}
	bothUn, err := get("sender uncoalesced / receiver uncoalesced")
	if err != nil {
		return err
	}
	unSenderCoalRecv, err := get("sender uncoalesced / receiver coalesced")
	if err != nil {
		return err
	}
	switch {
	case coalSender < 0.25:
		return fmt.Errorf("fig13: coalesced sender still communicates (%.3f error)", coalSender)
	case bothUn > 0.05:
		return fmt.Errorf("fig13: uncoalesced pair error %.3f, want ~0", bothUn)
	case unSenderCoalRecv < bothUn:
		return fmt.Errorf("fig13: coalesced receiver (%.3f) should not beat uncoalesced (%.3f)",
			unSenderCoalRecv, bothUn)
	}
	return nil
}

// Fig14 regenerates Figure 14: the receiver's latency trace for the
// multi-level sequence '010203...' plus the bandwidth comparison against the
// binary channel (§5: ~1.6x at higher error).
func Fig14(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig14",
		Title:  "Multi-level (2-bit) channel: latency trace and bandwidth gain",
		XLabel: "bit sequence index",
		YLabel: "mean slot latency (cycles)",
	}
	p2, err := calibratedParams(cfg, core.TPCChannel, 4, 2, opt.seed())
	if err != nil {
		return nil, err
	}
	// '0102030102...' — every other symbol is 0, the rest cycle 1,2,3.
	n := opt.pick(32, 64)
	payload := make([]core.Symbol, n)
	level := 1
	for i := range payload {
		if i%2 == 1 {
			payload[i] = core.Symbol(level)
			level = level%3 + 1
		}
	}
	tr, err := core.NewTransmission(cfg, payload, []int{0}, p2)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run()
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, st := range res.Pairs[0].Trace {
		xs = append(xs, float64(i+1))
		ys = append(ys, st.MeanLatency)
	}
	f.addSeries("multi-level latency", xs, ys)
	f.note("multi-level: %.1f kbps at %.3f symbol error (thresholds %v)",
		res.BitsPerSecond/1e3, res.ErrorRate, p2.Thresholds)

	// Binary reference at identical slot parameters.
	p1, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	trBin, err := core.NewTransmission(cfg, core.AlternatingPayload(n, 2), []int{0}, p1)
	if err != nil {
		return nil, err
	}
	resBin, err := trBin.Run()
	if err != nil {
		return nil, err
	}
	gain := res.BitsPerSecond / resBin.BitsPerSecond
	f.note("bandwidth gain over binary: %.2fx (paper: ~1.6x); binary error %.3f vs multi-level %.3f",
		gain, resBin.ErrorRate, res.ErrorRate)
	f.addSeries("bandwidth gain", []float64{0}, []float64{gain})
	f.addSeries("error rates (binary, multilevel)", []float64{0, 1},
		[]float64{resBin.ErrorRate, res.ErrorRate})
	return f, nil
}

// CheckFig14 asserts the §5 multi-level trade-off: meaningful bandwidth gain
// (>1.2x) at an error rate that may exceed (but not collapse relative to)
// the binary channel.
func CheckFig14(f *Figure) error {
	gain, ok := f.seriesByName("bandwidth gain")
	if !ok {
		return fmt.Errorf("fig14: missing gain series")
	}
	if gain.Y[0] < 1.2 {
		return fmt.Errorf("fig14: multi-level gain %.2fx, want >1.2x", gain.Y[0])
	}
	errs, ok := f.seriesByName("error rates (binary, multilevel)")
	if !ok {
		return fmt.Errorf("fig14: missing error series")
	}
	if errs.Y[1] > 0.5 {
		return fmt.Errorf("fig14: multi-level error %.3f no better than random", errs.Y[1])
	}
	return nil
}

// MPSOverhead quantifies the §2.2 observation: launching the receiver with a
// large cross-process skew (the MPS case) only costs the one-time initial
// synchronization; bitrate and error are otherwise unchanged.
func MPSOverhead(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "mps",
		Title:  "cudaStream vs MPS-style launch skew (one-time sync overhead)",
		Header: []string{"launch skew (cycles)", "error rate", "kbps"},
	}
	p, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, err
	}
	payload := core.AlternatingPayload(opt.pick(48, 200), 2)
	// MPS co-processes coordinate launches on the CPU, so the device-side
	// skew is bounded well below the initial synchronization window.
	for _, skew := range []uint64{0, 2000, 6000} {
		tr, err := core.NewTransmission(cfg, payload, []int{0}, p)
		if err != nil {
			return nil, err
		}
		g, err := engine.New(*cfg)
		if err != nil {
			return nil, err
		}
		if err := tr.Launch(g, skew); err != nil {
			return nil, err
		}
		res, err := tr.Finish(g)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", skew),
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
		})
		f.addSeries(fmt.Sprintf("skew %d", skew), []float64{0, 1},
			[]float64{res.ErrorRate, res.BitsPerSecond / 1e3})
	}
	return f, nil
}

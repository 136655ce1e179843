// The detection arm of the §6 defense discussion: experiments that point the
// internal/telemetry detector at the live channel. detect-latency measures
// how long the detector needs to flag senders of different rates;
// detector-roc sweeps the detection threshold against background noise and
// tabulates true/false positives, with noise-only runs producing the
// false-positive column.

package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/engine"
	"gpunoc/internal/noise"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

func init() {
	MustRegister(Experiment{
		ID: "detect-latency", Order: 260,
		Title:   "Online detection latency vs channel rate",
		Section: "beyond the paper (§6 defense: detection)",
		Run:     DetectLatency,
		Check:   func(_ *config.Config, f *Figure) error { return CheckDetectLatency(f) },
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("cycles to first detection"); ok && len(s.Y) > 0 {
				m["fastest-sender-latency-cycles"] = s.Y[0]
				m["slowest-sender-latency-cycles"] = s.Y[len(s.Y)-1]
			}
			return m
		},
	})
	MustRegister(Experiment{
		ID: "detector-roc", Order: 270,
		Title:   "Detector operating points: TP/FP across thresholds under noise",
		Section: "beyond the paper (§6 defense: detection)",
		Run:     DetectorROC,
		Check:   CheckDetectorROC,
	})
}

// detectorWindow picks the sampler window for a channel of the given slot
// period: a quarter slot, so the detector's lag grid lands exactly on the
// slot (lag = 4 windows) and an alternating payload's occupancy square wave
// is sampled well above Nyquist.
func detectorWindow(slotCycles uint64) uint64 {
	w := slotCycles / 4
	if w == 0 {
		w = 1
	}
	return w
}

// newDetector returns an online detector tuned to the given slot period
// and to the windows attachSampler cuts for it (threshold 0 selects the
// default).
func newDetector(slotCycles uint64, threshold float64) *telemetry.Detector {
	return telemetry.NewDetector(telemetry.DetectorConfig{
		SlotCycles:   slotCycles,
		WindowCycles: detectorWindow(slotCycles),
		Threshold:    threshold,
	})
}

// attachSampler equips the config copy with a fresh registry and a
// quarter-slot sampler feeding the given watchers. Every engine built from
// c afterwards feeds the same window stream.
func attachSampler(c *config.Config, slotCycles uint64, watchers ...telemetry.Watcher) {
	c.Probes = probe.NewRegistry()
	c.Telemetry = telemetry.NewSampler(detectorWindow(slotCycles), watchers...)
}

// occRecorder retains, of each window, only what a replayed detector reads:
// its index, its cycle span and its link occupancies. The counter, gauge and
// histogram maps are dropped, so a replayed event's Denies reads 0.
type occRecorder []telemetry.Window

// ObserveWindow appends the window's index, span and occupancies.
func (r *occRecorder) ObserveWindow(w telemetry.Window) {
	*r = append(*r, telemetry.Window{Index: w.Index, Start: w.Start, End: w.End, Occ: w.Occ})
}

// replayDetector replays a recorded window stream through a fresh detector
// at the given threshold. The detector is pure over the stream, so the
// replay reproduces what an online detector at that threshold would have
// emitted — detector-roc scores one simulation at many thresholds this way.
func replayDetector(rec occRecorder, slotCycles uint64, threshold float64) []telemetry.Event {
	det := newDetector(slotCycles, threshold)
	for _, w := range rec {
		det.ObserveWindow(w)
	}
	return det.Events()
}

// noiseOnlyRun executes the background generators with no transmission —
// the detector's null hypothesis.
func noiseOnlyRun(cfg *config.Config, specs ...noise.Spec) error {
	g, err := engine.New(*cfg)
	if err != nil {
		return err
	}
	ks, err := noise.Kernels(cfg, specs...)
	if err != nil {
		return err
	}
	var budget uint64 = 1_000_000
	for _, spec := range specs {
		budget += spec.DurationCycles * 4
	}
	for _, k := range ks {
		if _, err := g.Launch(k); err != nil {
			return err
		}
	}
	return g.RunKernels(budget)
}

// DetectLatency transmits an alternating payload over the TPC channel at
// several sender rates (delay iterations widen the timing slot) with the
// online detector watching, and reports the cycles from the link first
// going active to the first detection event. The detector needs a full ring
// of windows — 6 slot periods' worth — before it can score, so slower
// senders (wider slots) take proportionally longer to flag.
func DetectLatency(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "detect-latency",
		Title:  "Cycles to first detection vs channel rate",
		XLabel: "slot cycles (slower sender →)",
		YLabel: "cycles from first activity to first detection",
		Header: []string{"iterations", "slot cycles", "kbps", "error rate", "events", "since-active (cycles)"},
	}
	iters := []int{2, 4, 8}
	if opt.Scale == Full {
		iters = []int{2, 3, 4, 6, 8}
	}
	bits := opt.pick(48, 96)
	payload := core.AlternatingPayload(bits, 2)
	var xs, ys []float64
	for _, it := range iters {
		p, err := calibratedParams(cfg, core.TPCChannel, it, 1, opt.seed())
		if err != nil {
			return nil, fmt.Errorf("detect-latency: calibrate at %d iterations: %w", it, err)
		}
		c := *cfg
		det := newDetector(p.SlotCycles, 0)
		attachSampler(&c, p.SlotCycles, det)
		res, err := noisySend(&c, payload, p)
		if err != nil {
			return nil, fmt.Errorf("detect-latency: send at %d iterations: %w", it, err)
		}
		evs := det.Events()
		latency := -1.0
		if len(evs) > 0 {
			latency = float64(evs[0].SinceActive)
		}
		xs = append(xs, float64(p.SlotCycles))
		ys = append(ys, latency)
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", it),
			fmt.Sprintf("%d", p.SlotCycles),
			fmt.Sprintf("%.1f", res.BitsPerSecond/1e3),
			fmt.Sprintf("%.4f", res.ErrorRate),
			fmt.Sprintf("%d", len(evs)),
			fmt.Sprintf("%.0f", latency),
		})
	}
	f.addSeries("cycles to first detection", xs, ys)
	f.note("quarter-slot windows, default threshold; the detector scores a 6-slot " +
		"ring of occupancy windows, so detection latency scales with the slot " +
		"period — slower senders take longer to flag")
	return f, nil
}

// CheckDetectLatency asserts the latency curve's shape: every sender rate
// was detected, latency never shrinks as the sender slows down, and even the
// slowest sender is flagged within 3 sync frames (48 slots) of the link
// going active.
func CheckDetectLatency(f *Figure) error {
	s, ok := f.seriesByName("cycles to first detection")
	if !ok || len(s.Y) < 3 {
		return fmt.Errorf("detect-latency: malformed series")
	}
	for i, y := range s.Y {
		if y < 0 {
			return fmt.Errorf("detect-latency: sender at %.0f-cycle slots never detected", s.X[i])
		}
		if frames := y / (16 * s.X[i]); frames > 3 {
			return fmt.Errorf("detect-latency: %.0f-cycle slots flagged after %.1f frames, want <= 3",
				s.X[i], frames)
		}
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			return fmt.Errorf("detect-latency: latency not monotone in slot period: %v", s.Y)
		}
	}
	return nil
}

// rocIntensities and rocThresholds return fresh copies of the detector-roc
// sweep grids (functions, not package vars, per the state-purity lint). The
// intensities bracket the noise-sweep's "channel still works" region; the
// thresholds bracket the default.
func rocIntensities() []float64 { return []float64{0.02, 0.05, 0.1} }

func rocThresholds() []float64 {
	return []float64{0.25, 0.40, telemetry.DefaultDetectorThreshold, 0.70, 0.85}
}

// rocSpec is noiseSpec with the generator switched to Random gaps: the
// detector's null hypothesis must be aperiodic traffic. The sweep's default
// Stream co-runner issues on a fixed inter-op gap — it is itself a periodic
// process, and its window-rate series shows genuine slot-scale oscillations
// (measured r ≈ +0.95 at a 2-slot lag at intensity 0.1) that any periodicity
// detector rightly flags. Random offers the same mean load at seeded random
// instants, which is the "innocent co-runner" a false-positive column is
// about.
func rocSpec(cfg *config.Config, intensity float64, slots int, slotCycles uint64, seed int64) noise.Spec {
	spec := noiseSpec(cfg, intensity, slots, slotCycles, seed)
	spec.Kind = noise.Random
	return spec
}

// DetectorROC runs the paper-rate TPC channel under aperiodic (Random-gap)
// background noise at several intensities, and the same noise with no
// transmission, recording each run's window stream once. Replaying the
// recordings through detectors across a threshold grid yields the operating
// table: true positives = noisy channel runs detected, false positives =
// events fired by noise-only runs. A third series reports, at the default
// threshold, how many sync frames (SyncPeriod slots) into each noisy
// transmission the first detection landed. See rocSpec for why the null is
// Random rather than the sweep's usual Stream co-runner.
func DetectorROC(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "detector-roc",
		Title:  "Detector TP/FP vs threshold under background noise",
		XLabel: "detection threshold (autocorrelation score)",
		YLabel: "count",
		Header: []string{"threshold", "true positives", "false positives"},
	}
	p, err := calibratedParams(cfg, core.TPCChannel, 4, 1, opt.seed())
	if err != nil {
		return nil, fmt.Errorf("detector-roc: calibrate: %w", err)
	}
	bits := opt.pick(48, 96)
	payload := core.AlternatingPayload(bits, 2)

	intensities := rocIntensities()
	specs := make([]noise.Spec, len(intensities))
	for i, in := range intensities {
		specs[i] = rocSpec(cfg, in, len(payload), p.SlotCycles, opt.seed())
	}
	// Two runs per intensity, each recording its own window stream: the
	// channel under the noise, then the noise alone.
	recs, err := fanOut(cfg, 2*len(intensities), func(i int) (occRecorder, error) {
		c := *cfg
		var rec occRecorder
		attachSampler(&c, p.SlotCycles, &rec)
		in, spec := intensities[i/2], specs[i/2]
		if i%2 == 0 {
			if _, err := noisySend(&c, payload, p, spec); err != nil {
				return nil, fmt.Errorf("detector-roc: channel at intensity %.2f: %w", in, err)
			}
		} else if err := noiseOnlyRun(&c, spec); err != nil {
			return nil, fmt.Errorf("detector-roc: noise-only at intensity %.2f: %w", in, err)
		}
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	var chanRecs, noiseRecs []occRecorder
	for i, rec := range recs {
		if i%2 == 0 {
			chanRecs = append(chanRecs, rec)
		} else {
			noiseRecs = append(noiseRecs, rec)
		}
	}

	var tps, fps []float64
	for _, th := range rocThresholds() {
		tp, fp := 0, 0
		for _, rec := range chanRecs {
			if len(replayDetector(rec, p.SlotCycles, th)) > 0 {
				tp++
			}
		}
		for _, rec := range noiseRecs {
			fp += len(replayDetector(rec, p.SlotCycles, th))
		}
		tps = append(tps, float64(tp))
		fps = append(fps, float64(fp))
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%.2f", th),
			fmt.Sprintf("%d", tp),
			fmt.Sprintf("%d", fp),
		})
	}
	f.addSeries("true positives", rocThresholds(), tps)
	f.addSeries("false positives", rocThresholds(), fps)

	// Detection earliness at the default threshold, in sync frames.
	frame := float64(uint64(p.SyncPeriod) * p.SlotCycles)
	var frames []float64
	for _, rec := range chanRecs {
		evs := replayDetector(rec, p.SlotCycles, telemetry.DefaultDetectorThreshold)
		if len(evs) == 0 {
			frames = append(frames, -1)
			continue
		}
		frames = append(frames, float64(evs[0].SinceActive)/frame)
	}
	f.addSeries("frames to detection (default threshold)", intensities, frames)
	f.note("TP counts noisy paper-rate transmissions detected (of %d); FP counts "+
		"events fired by noise-only runs at the same intensities; earliness is "+
		"first-event latency in %d-slot sync frames", len(intensities), p.SyncPeriod)
	f.note("background is the Random-gap co-runner: a fixed-gap Stream co-runner " +
		"is itself periodic at slot scale and the detector legitimately flags it, " +
		"so the false-positive null must be aperiodic")
	return f, nil
}

// CheckDetectorROC asserts the operating table: both columns shrink (weakly)
// as the threshold rises; at the default threshold every noisy channel run
// is detected within its first 3 sync frames while the noise-only runs fire
// nothing.
func CheckDetectorROC(_ *config.Config, f *Figure) error {
	tp, ok1 := f.seriesByName("true positives")
	fp, ok2 := f.seriesByName("false positives")
	fr, ok3 := f.seriesByName("frames to detection (default threshold)")
	if !ok1 || !ok2 || !ok3 || len(tp.Y) != len(fp.Y) || len(tp.Y) < 3 {
		return fmt.Errorf("detector-roc: malformed series")
	}
	for i := 1; i < len(tp.Y); i++ {
		if tp.Y[i] > tp.Y[i-1] {
			return fmt.Errorf("detector-roc: TP rises with threshold: %v", tp.Y)
		}
		if fp.Y[i] > fp.Y[i-1] {
			return fmt.Errorf("detector-roc: FP rises with threshold: %v", fp.Y)
		}
	}
	def := -1
	for i, x := range tp.X {
		if x == telemetry.DefaultDetectorThreshold {
			def = i
		}
	}
	if def < 0 {
		return fmt.Errorf("detector-roc: default threshold missing from sweep")
	}
	if fp.Y[def] != 0 {
		return fmt.Errorf("detector-roc: %d false positive(s) at the default threshold", int(fp.Y[def]))
	}
	if want := float64(len(fr.Y)); tp.Y[def] != want {
		return fmt.Errorf("detector-roc: %.0f/%.0f noisy transmissions detected at the default threshold",
			tp.Y[def], want)
	}
	for i, y := range fr.Y {
		if y < 0 || y > 3 {
			return fmt.Errorf("detector-roc: intensity %.2f first detected %.1f frames in, want (0, 3]",
				rocIntensities()[i], y)
		}
	}
	return nil
}

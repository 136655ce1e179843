package experiments

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/reveng"
	"gpunoc/internal/stats"
)

// The contention / reverse-engineering artifacts (§3) register themselves
// with the experiment registry; cmd/ccbench and bench_test.go discover them
// from there.
func init() {
	MustRegister(Experiment{
		ID: "fig2", Order: 20,
		Title:   "TPC pairing: SM0's execution time against every co-activated SM",
		Section: "§3.1, Figure 2",
		Run:     Fig2,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig2(f) },
		Metrics: func(f *Figure) map[string]float64 {
			peak := 0.0
			for _, y := range f.Series[0].Y {
				if y > peak {
					peak = y
				}
			}
			return map[string]float64{"peak-slowdown-x": peak}
		},
	})
	MustRegister(Experiment{
		ID: "fig3", Order: 30,
		Title:   "GPC grouping probe: reference TPC latency per probe TPC",
		Section: "§3.2, Figure 3",
		Run: func(cfg *config.Config, opt Options) (*Figure, error) {
			return Fig3(cfg, fig3Refs(cfg), opt)
		},
		Check: func(cfg *config.Config, f *Figure) error {
			if want := len(fig3Refs(cfg)); len(f.Series) != want {
				return fmt.Errorf("fig3: %d series, want %d", len(f.Series), want)
			}
			return nil
		},
	})
	MustRegister(Experiment{
		ID: "fig4", Order: 40,
		Title:   "Recovered TPC-to-GPC mapping",
		Section: "§3.3, Figure 4",
		Run:     Fig4,
		Metrics: func(f *Figure) map[string]float64 {
			return map[string]float64{"groups": float64(len(f.Rows))}
		},
	})
	MustRegister(Experiment{
		ID: "fig5", Order: 50,
		Title:   "Read/write contention asymmetry on the TPC and GPC channels",
		Section: "§3.4, Figure 5",
		Run:     Fig5,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig5(f) },
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("GPC read"); ok && len(s.Y) > 0 {
				m["gpc-read-slowdown-x"] = s.Y[len(s.Y)-1]
			}
			if s, ok := f.seriesByName("TPC write"); ok && len(s.Y) > 0 {
				m["tpc-write-slowdown-x"] = s.Y[len(s.Y)-1]
			}
			return m
		},
	})
	MustRegister(Experiment{
		ID: "fig6", Order: 60,
		Title:   "clock() survey and the §4.1 skew statistics",
		Section: "§4.1, Figure 6",
		Run:     Fig6,
	})
	MustRegister(Experiment{
		ID: "fig8", Order: 70,
		Title:   "Mux sharing: SM0's time versus contender traffic fraction",
		Section: "§3.4, Figure 8",
		Run:     Fig8,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig8(f) },
	})
	MustRegister(Experiment{
		ID: "fig11", Order: 100,
		Title:   "GPC-channel leakage slope, same-GPC vs different-GPC senders",
		Section: "§4.5, Figure 11",
		Run:     Fig11,
		Check:   func(_ *config.Config, f *Figure) error { return CheckFig11(f) },
	})
}

// fig3Refs picks the reference TPCs Fig 3 probes from: TPC0 always, plus
// TPC5 when the topology has one (the paper shows both).
func fig3Refs(cfg *config.Config) []int {
	refs := []int{0}
	if cfg.NumTPCs() > 5 {
		refs = append(refs, 5)
	}
	return refs
}

// Fig2 regenerates Figure 2: the Algorithm 1 write benchmark runs on SM0
// concurrently with each other SM; only the TPC mate (SM1) doubles SM0's
// execution time.
func Fig2(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig2",
		Title:  "Execution time of the synthetic benchmark on SM0 vs one other SM",
		XLabel: "other SM id",
		YLabel: "SM0 time normalized to solo",
	}
	warps := 4
	ops := opt.pick(8, 24)
	points, err := reveng.TPCSweep(cfg, 0, warps, ops)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, float64(p.OtherSM))
		ys = append(ys, p.Normalized)
	}
	f.addSeries("SM0 normalized time", xs, ys)
	if pair, err := reveng.PairedSM(points); err == nil {
		f.note("inferred TPC mate of SM0: SM%d (paper: SM1)", pair)
	} else {
		f.note("no TPC mate identified: %v", err)
	}
	return f, nil
}

// CheckFig2 asserts the Fig 2 shape: only SM1 degrades SM0 (by ~2x).
func CheckFig2(f *Figure) error {
	s, ok := f.seriesByName("SM0 normalized time")
	if !ok {
		return fmt.Errorf("fig2: missing series")
	}
	for i, x := range s.X {
		switch {
		case x == 1 && (s.Y[i] < 1.7 || s.Y[i] > 2.3):
			return fmt.Errorf("fig2: TPC mate contention %.2fx, want ~2x", s.Y[i])
		case x != 1 && s.Y[i] > 1.3:
			return fmt.Errorf("fig2: SM%d shows %.2fx contention", int(x), s.Y[i])
		}
	}
	return nil
}

// backgroundFor picks the number of random co-activated TPCs for the Fig 3
// protocol: the paper's 5 on a full GPU, a deterministic two-TPC probe when
// the topology is too small for randomized background to leave headroom.
func backgroundFor(cfg *config.Config) int {
	if cfg.NumTPCs() <= 8 {
		return -1
	}
	return 5
}

// Fig3 regenerates Figure 3 for the given reference TPCs (the paper shows
// TPC0 and TPC5): mean execution time of the reference under randomized
// co-activation, per probe TPC.
func Fig3(cfg *config.Config, refTPCs []int, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig3",
		Title:  "Performance measurements identifying SM/TPC placement across GPCs",
		XLabel: "probe TPC id",
		YLabel: "reference TPC mean execution time (cycles)",
	}
	probeOpt := reveng.GPCProbeOptions{
		Reps:       opt.pick(6, 200),
		Seed:       opt.seed(),
		Ops:        opt.pick(8, 12),
		Background: backgroundFor(cfg),
	}
	for _, ref := range refTPCs {
		points, err := reveng.GPCSweep(cfg, ref, probeOpt)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for _, p := range points {
			xs = append(xs, float64(p.ProbeTPC))
			ys = append(ys, p.MeanTime)
		}
		f.addSeries(fmt.Sprintf("ref TPC%d mean", ref), xs, ys)
		group := reveng.GroupFromSweep(ref, points, 0)
		f.note("TPC%d group (elevated probes): %v (ground truth GPC%d: %v)",
			ref, group, cfg.GPCOfTPC(ref), cfg.TPCsOfGPC(cfg.GPCOfTPC(ref)))
	}
	return f, nil
}

// Fig4 regenerates Figure 4: the full logical-to-physical TPC->GPC mapping
// recovered purely from timing, compared against ground truth.
func Fig4(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig4",
		Title:  "Logical to physical core mapping (recovered TPC->GPC groups)",
		Header: []string{"group", "recovered TPCs", "ground-truth GPC", "match"},
	}
	probeOpt := reveng.GPCProbeOptions{
		Reps:       opt.pick(6, 60),
		Seed:       opt.seed(),
		Ops:        opt.pick(8, 12),
		Background: backgroundFor(cfg),
	}
	// The adaptive quartet protocol recovers large topologies exactly with
	// a few hundred runs; it falls back to the statistical sweep wherever
	// the quartet test cannot apply (GPCs of fewer than four TPCs).
	groups, err := reveng.MapGPCsAdaptive(cfg, probeOpt)
	if err != nil {
		return nil, err
	}
	matched := 0
	for i, group := range groups {
		gt := cfg.GPCOfTPC(group[0])
		want := cfg.TPCsOfGPC(gt)
		match := len(group) == len(want)
		for j := range want {
			if j >= len(group) || group[j] != want[j] {
				match = false
			}
		}
		if match {
			matched++
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%v", group),
			fmt.Sprintf("GPC%d %v", gt, want),
			fmt.Sprintf("%v", match),
		})
	}
	f.note("%d/%d recovered groups match ground truth exactly", matched, len(groups))
	return f, nil
}

// Fig5 regenerates Figure 5: (a) read vs write contention on the TPC channel
// and (b) on the GPC channel as the number of activated TPCs grows.
func Fig5(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig5",
		Title:  "Performance impact of read and write accesses on TPC and GPC channels",
		XLabel: "activated TPCs (GPC series) / contention (TPC series)",
		YLabel: "normalized execution time",
	}
	warps := 4
	ops := opt.pick(8, 24)

	// (a) TPC channel: SM0 solo vs SM0+SM1, for writes and reads.
	for _, write := range []bool{true, false} {
		name := "TPC read"
		if write {
			name = "TPC write"
		}
		solo, err := soloTime(cfg, 0, ops, warps, write)
		if err != nil {
			return nil, err
		}
		times, err := reveng.Measure(cfg, []reveng.Activation{
			{SM: 0, Ops: ops, Warps: warps, Write: write},
			{SM: 1, Ops: ops * 3, Warps: warps, Write: write},
		}, reveng.WarpLayout(0, warps))
		if err != nil {
			return nil, err
		}
		f.addSeries(name, []float64{0, 1}, []float64{1, float64(times[0]) / float64(solo)})
	}

	// (b) GPC channel: activate 1..K TPCs of GPC0 (both SMs each) and
	// measure the first TPC's slowest SM. The series normalizes to the
	// N=1 point, so intra-TPC sharing (present at every N) cancels out
	// and only the GPC-channel effect remains — matching the paper's
	// presentation where 1 activated TPC sits at 1.0.
	gpcTPCs := cfg.TPCsOfGPC(0)
	for _, write := range []bool{true, false} {
		name := "GPC read"
		if write {
			name = "GPC write"
		}
		ref := gpcTPCs[0]
		var solo uint64
		var xs, ys []float64
		for n := 1; n <= len(gpcTPCs); n++ {
			var acts []reveng.Activation
			for _, tpc := range gpcTPCs[:n] {
				for _, sm := range cfg.SMsOfTPC(tpc) {
					o := ops
					if tpc != ref {
						o = ops * 3
					}
					acts = append(acts, reveng.Activation{SM: sm, Ops: o, Warps: warps, Write: write})
				}
			}
			times, err := reveng.Measure(cfg, acts, reveng.WarpLayout(0, warps))
			if err != nil {
				return nil, err
			}
			var refTime uint64
			for _, sm := range cfg.SMsOfTPC(ref) {
				if times[sm] > refTime {
					refTime = times[sm]
				}
			}
			if n == 1 {
				solo = refTime
			}
			xs = append(xs, float64(n))
			ys = append(ys, float64(refTime)/float64(solo))
		}
		f.addSeries(name, xs, ys)
	}
	return f, nil
}

// CheckFig5 asserts the §3.4 asymmetry: TPC writes ~2x, TPC reads ~1x;
// GPC writes mild (~1.2x) at full activation, GPC reads strong (~2x).
func CheckFig5(f *Figure) error {
	last := func(name string) (float64, error) {
		s, ok := f.seriesByName(name)
		if !ok || len(s.Y) == 0 {
			return 0, fmt.Errorf("fig5: missing series %q", name)
		}
		return s.Y[len(s.Y)-1], nil
	}
	tw, err := last("TPC write")
	if err != nil {
		return err
	}
	tr, err := last("TPC read")
	if err != nil {
		return err
	}
	gw, err := last("GPC write")
	if err != nil {
		return err
	}
	gr, err := last("GPC read")
	if err != nil {
		return err
	}
	switch {
	case tw < 1.7 || tw > 2.4:
		return fmt.Errorf("fig5: TPC write contention %.2fx, want ~2x", tw)
	case tr > 1.35:
		return fmt.Errorf("fig5: TPC read contention %.2fx, want ~1x", tr)
	case gw > 1.45:
		return fmt.Errorf("fig5: GPC write contention %.2fx, want mild (~1.2x)", gw)
	case gr < 1.5:
		return fmt.Errorf("fig5: GPC read contention %.2fx, want strong (~2x)", gr)
	case gr < gw:
		return fmt.Errorf("fig5: GPC reads (%.2fx) should contend more than writes (%.2fx)", gr, gw)
	}
	return nil
}

// Fig6 regenerates Figure 6: clock register values across all SMs, plus the
// repeated-run skew statistics of §4.1.
func Fig6(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig6",
		Title:  "Distribution of clock() return values across SMs",
		XLabel: "SM id",
		YLabel: "clock() value",
	}
	samples, err := reveng.ClockSurvey(cfg)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, s := range samples {
		xs = append(xs, float64(s.SM))
		ys = append(ys, float64(s.Value))
	}
	f.addSeries("clock()", xs, ys)
	st, err := reveng.MeasureSkew(cfg, opt.pick(5, 100))
	if err != nil {
		return nil, err
	}
	f.note("mean intra-TPC skew %.1f cycles (max %d); paper: <5", st.MeanTPCSkew, st.MaxTPCSkew)
	f.note("mean intra-GPC skew %.1f cycles (max %d); paper: <15", st.MeanGPCSkew, st.MaxGPCSkew)
	return f, nil
}

// Fig8 regenerates Figure 8: SM0's execution time as the amount of memory
// traffic from SM1 (same TPC) or SM12 (different TPC) grows.
func Fig8(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig8",
		Title:  "SM0 execution time vs fraction of memory access from SM1/SM12",
		XLabel: "contender traffic as fraction of SM0's",
		YLabel: "SM0 time normalized to solo",
	}
	warps := 4
	ops := opt.pick(10, 25)
	solo, err := soloTime(cfg, 0, ops, warps, true)
	if err != nil {
		return nil, err
	}
	otherTPC := 12
	if otherTPC >= cfg.NumSMs() {
		otherTPC = cfg.SMsOfTPC(1)[0]
	}
	fractions := []float64{0, 0.12, 0.24, 0.36, 0.48, 0.6, 0.72, 0.84, 0.96}
	for _, contender := range []int{1, otherTPC} {
		var xs, ys []float64
		for _, frac := range fractions {
			// Without contender traffic the run is the solo run.
			t := solo
			if c := int(frac * float64(ops)); c > 0 {
				times, err := reveng.Measure(cfg, []reveng.Activation{
					{SM: 0, Ops: ops, Warps: warps, Write: true},
					{SM: contender, Ops: c, Warps: warps, Write: true},
				}, reveng.WarpLayout(0, warps))
				if err != nil {
					return nil, err
				}
				t = times[0]
			}
			xs = append(xs, frac)
			ys = append(ys, float64(t)/float64(solo))
		}
		f.addSeries(fmt.Sprintf("SM %d", contender), xs, ys)
	}
	return f, nil
}

// CheckFig8 asserts the Fig 8 shape: the same-TPC contender degrades SM0
// roughly linearly toward ~2x while the different-TPC contender leaves it
// flat.
func CheckFig8(f *Figure) error {
	same, ok := f.seriesByName("SM 1")
	if !ok {
		return fmt.Errorf("fig8: missing SM 1 series")
	}
	_, slope, r2, err := stats.LinearFit(same.X, same.Y)
	if err != nil {
		return err
	}
	if slope < 0.6 || r2 < 0.85 {
		return fmt.Errorf("fig8: same-TPC series not linear-increasing (slope %.2f, r2 %.2f)", slope, r2)
	}
	if final := same.Y[len(same.Y)-1]; final < 1.6 {
		return fmt.Errorf("fig8: same-TPC contention only reaches %.2fx", final)
	}
	for _, s := range f.Series {
		if s.Name == "SM 1" {
			continue
		}
		for i := range s.Y {
			if s.Y[i] > 1.3 {
				return fmt.Errorf("fig8: different-TPC series rises to %.2fx", s.Y[i])
			}
		}
	}
	return nil
}

// Fig11 regenerates Figure 11: the GPC channel's information leakage — the
// reference TPC's execution time as read traffic from TPCs of the same vs a
// different GPC grows.
func Fig11(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig11",
		Title:  "GPC channel information leakage (read contention by traffic fraction)",
		XLabel: "sender traffic as fraction of reference's",
		YLabel: "reference TPC time normalized to solo",
	}
	warps := 4
	ops := opt.pick(10, 25)
	refTPC := cfg.TPCsOfGPC(0)[0]
	refSMs := cfg.SMsOfTPC(refTPC)

	var refActs []reveng.Activation
	for _, sm := range refSMs {
		refActs = append(refActs, reveng.Activation{SM: sm, Ops: ops, Warps: warps, Write: false})
	}
	baseTimes, err := reveng.Measure(cfg, refActs, reveng.WarpLayout(0, warps))
	if err != nil {
		return nil, err
	}
	var solo uint64
	for _, sm := range refSMs {
		if baseTimes[sm] > solo {
			solo = baseTimes[sm]
		}
	}

	sameGPC := cfg.TPCsOfGPC(0)[1:]
	otherGPC := cfg.TPCsOfGPC(1 % cfg.NumGPCs)
	fractions := []float64{0, 0.24, 0.48, 0.72, 0.96}
	for _, series := range []struct {
		name string
		tpcs []int
	}{
		{"TPCs from same GPC", sameGPC},
		{"TPCs from different GPC", otherGPC},
	} {
		var xs, ys []float64
		for _, frac := range fractions {
			// Without sender traffic the run is the solo run.
			refTime := solo
			if c := int(frac * float64(ops)); c > 0 {
				acts := append([]reveng.Activation(nil), refActs...)
				for _, tpc := range series.tpcs {
					for _, sm := range cfg.SMsOfTPC(tpc) {
						acts = append(acts, reveng.Activation{SM: sm, Ops: c, Warps: warps, Write: false})
					}
				}
				times, err := reveng.Measure(cfg, acts, reveng.WarpLayout(0, warps))
				if err != nil {
					return nil, err
				}
				refTime = 0
				for _, sm := range refSMs {
					refTime = max(refTime, times[sm])
				}
			}
			xs = append(xs, frac)
			ys = append(ys, float64(refTime)/float64(solo))
		}
		f.addSeries(series.name, xs, ys)
	}
	return f, nil
}

// CheckFig11 asserts that same-GPC senders raise the reference's latency
// while different-GPC senders do not, and that the same-GPC slope is far
// below the TPC channel's (the speedup effect of §4.5).
func CheckFig11(f *Figure) error {
	same, ok := f.seriesByName("TPCs from same GPC")
	if !ok {
		return fmt.Errorf("fig11: missing same-GPC series")
	}
	diff, ok := f.seriesByName("TPCs from different GPC")
	if !ok {
		return fmt.Errorf("fig11: missing different-GPC series")
	}
	sFinal := same.Y[len(same.Y)-1]
	dFinal := diff.Y[len(diff.Y)-1]
	if sFinal <= dFinal+0.03 {
		return fmt.Errorf("fig11: same-GPC final %.3f not above different-GPC %.3f", sFinal, dFinal)
	}
	if dFinal > 1.15 {
		return fmt.Errorf("fig11: different-GPC senders leaked %.3fx", dFinal)
	}
	return nil
}

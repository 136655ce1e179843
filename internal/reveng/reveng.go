// Package reveng implements the reverse-engineering methodology of §3: the
// Algorithm 1 memory-write benchmark that exposes which SMs share a TPC
// channel (Fig 2), the randomized co-activation protocol that groups TPCs
// into GPCs (Fig 3, Fig 4), the clock-register survey (Fig 6), and the
// thread-block scheduler probe (§4.3). The tools treat the GPU as a black
// box: they only launch kernels, read the %smid/clock() analogues, and
// measure execution time — exactly the interface the paper's attacker has.
//
// The Algorithm 1 kernel (NewBench, Measure) is built here once; the
// contention figures of internal/experiments and cmd/gpusim run it too.
package reveng

import (
	"fmt"
	"math/rand"
	"sort"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
)

// timeSMs runs the §3 Algorithm 1 benchmark on every SM in sms, each with
// warps warps of ops writes (or reads), and returns each SM's time in
// cycles. An SM's warps alternate between the two 4 KB halves of its 8 KB
// window.
func timeSMs(cfg *config.Config, sms []int, write bool, warps, ops int) (map[int]uint64, error) {
	acts := make([]Activation, len(sms))
	for i, sm := range sms {
		acts[i] = Activation{SM: sm, Ops: ops, Warps: warps, Write: write}
	}
	return Measure(cfg, acts, Layout{Slots: 2, Span: 4096})
}

// Fig2Point is one x-position of Fig 2.
type Fig2Point struct {
	OtherSM    int
	BaseTime   uint64  // SM0's execution time with OtherSM active
	Normalized float64 // relative to SM0 running alone
}

// TPCSweep reproduces Fig 2: the Algorithm 1 write benchmark runs on baseSM
// together with each other SM in turn; the co-located SM is the one that
// doubles baseSM's execution time.
func TPCSweep(cfg *config.Config, baseSM int, warps, ops int) ([]Fig2Point, error) {
	if baseSM < 0 || baseSM >= cfg.NumSMs() {
		return nil, fmt.Errorf("reveng: base SM %d out of range", baseSM)
	}
	solo, err := timeSMs(cfg, []int{baseSM}, true, warps, ops)
	if err != nil {
		return nil, err
	}
	base := solo[baseSM]
	if base == 0 {
		return nil, fmt.Errorf("reveng: solo run produced no measurement")
	}
	var points []Fig2Point
	for other := 0; other < cfg.NumSMs(); other++ {
		if other == baseSM {
			continue
		}
		times, err := timeSMs(cfg, []int{baseSM, other}, true, warps, ops)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig2Point{
			OtherSM:    other,
			BaseTime:   times[baseSM],
			Normalized: float64(times[baseSM]) / float64(base),
		})
	}
	return points, nil
}

// PairedSM returns the SM inferred to share baseSM's TPC: the unique SM
// whose co-activation degrades baseSM the most (and by at least 1.5x).
func PairedSM(points []Fig2Point) (int, error) {
	best := -1
	var bestNorm float64
	for _, p := range points {
		if p.Normalized > bestNorm {
			bestNorm = p.Normalized
			best = p.OtherSM
		}
	}
	if best < 0 || bestNorm < 1.5 {
		return -1, fmt.Errorf("reveng: no SM shows TPC-channel contention (max %.2fx)", bestNorm)
	}
	return best, nil
}

// Fig3Point is one x-position of Fig 3: the reference TPC's mean execution
// time when co-activated with a probe TPC plus random background TPCs.
type Fig3Point struct {
	ProbeTPC   int
	MeanTime   float64
	MaxTime    uint64
	Samples    []uint64
	Normalized float64 // mean relative to the overall minimum mean
}

// GPCProbeOptions tunes the Fig 3 protocol.
type GPCProbeOptions struct {
	Reps int // paper: 200
	// Background is the number of random extra TPCs per rep (paper: 5).
	// Zero selects the paper's default; use -1 for a deterministic
	// two-TPC probe (useful on small topologies).
	Background int
	Warps      int
	Ops        int
	Seed       int64
}

func (o *GPCProbeOptions) defaults() {
	if o.Reps == 0 {
		o.Reps = 40
	}
	if o.Background == 0 {
		o.Background = 5
	}
	if o.Warps == 0 {
		o.Warps = 2
	}
	if o.Ops == 0 {
		o.Ops = 12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// GPCSweep reproduces Fig 3 for one reference TPC: for every probe TPC, the
// reference and probe run the read benchmark together with Background
// randomly chosen extra TPCs, Reps times; probes in the reference's GPC
// occasionally push the shared GPC channel past its speedup and elevate the
// mean. Both SMs of every activated TPC run the benchmark (the model's
// per-SM injection cap means single-SM activation cannot reach the
// channel's saturation point; see DESIGN.md).
func GPCSweep(cfg *config.Config, refTPC int, opt GPCProbeOptions) ([]Fig3Point, error) {
	opt.defaults()
	if refTPC < 0 || refTPC >= cfg.NumTPCs() {
		return nil, fmt.Errorf("reveng: ref TPC %d out of range", refTPC)
	}
	if cfg.NumTPCs() < 2 {
		return nil, fmt.Errorf("reveng: %d TPC(s) leave no probe TPC beside reference TPC %d", cfg.NumTPCs(), refTPC)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var points []Fig3Point
	for probe := 0; probe < cfg.NumTPCs(); probe++ {
		if probe == refTPC {
			continue
		}
		pt := Fig3Point{ProbeTPC: probe}
		sum := 0.0
		for rep := 0; rep < opt.Reps; rep++ {
			background := opt.Background
			if background < 0 {
				background = 0 // -1 selects the deterministic two-TPC probe
			}
			active := map[int]bool{refTPC: true, probe: true}
			for len(active) < 2+background && len(active) < cfg.NumTPCs() {
				active[rng.Intn(cfg.NumTPCs())] = true
			}
			var tpcs []int
			for t := 0; t < cfg.NumTPCs(); t++ {
				if active[t] {
					tpcs = append(tpcs, t)
				}
			}
			seedCfg := *cfg
			seedCfg.Seed = cfg.Seed + int64(rep*1000+probe)
			t, err := refTime(&seedCfg, refTPC, tpcs, opt.Warps, opt.Ops)
			if err != nil {
				return nil, err
			}
			pt.Samples = append(pt.Samples, t)
			sum += float64(t)
			if t > pt.MaxTime {
				pt.MaxTime = t
			}
		}
		pt.MeanTime = sum / float64(opt.Reps)
		points = append(points, pt)
	}
	min := points[0].MeanTime
	for _, p := range points {
		if p.MeanTime < min {
			min = p.MeanTime
		}
	}
	for i := range points {
		points[i].Normalized = points[i].MeanTime / min
	}
	return points, nil
}

// GroupFromSweep extracts the TPCs inferred to share the reference's GPC.
// With margin > 0 it selects probes whose normalized mean exceeds 1+margin.
// With margin <= 0 it auto-thresholds at the midpoint between the lowest and
// highest probe means, which separates "always contended" group mates from
// probes that were only elevated by random background placement. If the
// spread between probes is inside the noise floor, the reference is reported
// as a singleton group.
func GroupFromSweep(refTPC int, points []Fig3Point, margin float64) []int {
	group := []int{refTPC}
	if len(points) == 0 {
		return group
	}
	cut := 1 + margin
	if margin <= 0 {
		lo, hi := points[0].Normalized, points[0].Normalized
		for _, p := range points {
			if p.Normalized < lo {
				lo = p.Normalized
			}
			if p.Normalized > hi {
				hi = p.Normalized
			}
		}
		if hi-lo < 0.01 {
			return group // no probe stands out: singleton GPC
		}
		cut = (lo + hi) / 2
	}
	for _, p := range points {
		if p.Normalized > cut {
			group = append(group, p.ProbeTPC)
		}
	}
	sort.Ints(group)
	return group
}

// MapGPCs reproduces Fig 4: it repeats the Fig 3 analysis from successive
// reference TPCs until every TPC is assigned to a group, and returns the
// groups sorted by their smallest member.
func MapGPCs(cfg *config.Config, opt GPCProbeOptions, margin float64) ([][]int, error) {
	assigned := make(map[int]bool)
	var groups [][]int
	for ref := 0; ref < cfg.NumTPCs(); ref++ {
		if assigned[ref] {
			continue
		}
		points, err := GPCSweep(cfg, ref, opt)
		if err != nil {
			return nil, err
		}
		group := GroupFromSweep(ref, points, margin)
		for _, t := range group {
			assigned[t] = true
		}
		groups = append(groups, group)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups, nil
}

// ClockSample is one SM's clock-register reading (Fig 6).
type ClockSample struct {
	SM    int
	Value uint32
}

// ClockSurvey launches the Fig 6 kernel: one block per SM, each reading its
// clock register once. The survey kernel reads clock() as its very first
// instruction, so warp-dispatch jitter is damped to a few cycles — the
// measured spread then reflects the register offsets themselves, matching
// the paper's methodology (§4.1).
func ClockSurvey(cfg *config.Config) ([]ClockSample, error) {
	c := *cfg
	if c.WarpIssueJitter > 3 {
		c.WarpIssueJitter = 3
	}
	g, err := engine.New(c)
	if err != nil {
		return nil, err
	}
	readers := make([]*device.ClockReader, 0, cfg.NumSMs())
	spec := device.KernelSpec{
		Name:          "clock-survey",
		Blocks:        cfg.NumSMs(),
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			r := &device.ClockReader{}
			readers = append(readers, r)
			return r
		},
	}
	if _, err := g.Launch(spec); err != nil {
		return nil, err
	}
	if err := g.RunKernels(1_000_000); err != nil {
		return nil, err
	}
	samples := make([]ClockSample, 0, len(readers))
	for _, r := range readers {
		samples = append(samples, ClockSample{SM: r.SMID, Value: r.Value})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].SM < samples[j].SM })
	return samples, nil
}

// SkewStats summarizes repeated clock surveys (§4.1: "we re-ran this kernel
// 100 times").
type SkewStats struct {
	MeanTPCSkew float64 // mean |clock difference| between TPC mates
	MaxTPCSkew  uint64
	MeanGPCSkew float64 // mean pairwise skew within GPCs
	MaxGPCSkew  uint64
}

// MeasureSkew runs the clock survey reps times and aggregates the intra-TPC
// and intra-GPC skews.
func MeasureSkew(cfg *config.Config, reps int) (SkewStats, error) {
	if reps <= 0 {
		reps = 100
	}
	var st SkewStats
	var tpcSum, gpcSum float64
	var tpcN, gpcN int
	for rep := 0; rep < reps; rep++ {
		c := *cfg
		c.Seed = cfg.Seed + int64(rep)
		samples, err := ClockSurvey(&c)
		if err != nil {
			return st, err
		}
		bySM := make(map[int]uint32, len(samples))
		for _, s := range samples {
			bySM[s.SM] = s.Value
		}
		diff := func(a, b int) uint64 {
			d := int64(bySM[a]) - int64(bySM[b])
			if d < 0 {
				d = -d
			}
			return uint64(d)
		}
		for t := 0; t < c.NumTPCs(); t++ {
			sms := c.SMsOfTPC(t)
			d := diff(sms[0], sms[1])
			tpcSum += float64(d)
			tpcN++
			if d > st.MaxTPCSkew {
				st.MaxTPCSkew = d
			}
		}
		for g := 0; g < c.NumGPCs; g++ {
			var sms []int
			for _, t := range c.TPCsOfGPC(g) {
				sms = append(sms, c.SMsOfTPC(t)...)
			}
			for i := 0; i < len(sms); i++ {
				for j := i + 1; j < len(sms); j++ {
					d := diff(sms[i], sms[j])
					gpcSum += float64(d)
					gpcN++
					if d > st.MaxGPCSkew {
						st.MaxGPCSkew = d
					}
				}
			}
		}
	}
	st.MeanTPCSkew = tpcSum / float64(tpcN)
	st.MeanGPCSkew = gpcSum / float64(gpcN)
	return st, nil
}

// TBProbe launches a marker kernel and reports which SM each block landed
// on, recovering the scheduling policy of §4.3.
func TBProbe(cfg *config.Config, blocks int) ([]int, error) {
	g, err := engine.New(*cfg)
	if err != nil {
		return nil, err
	}
	spec := device.KernelSpec{
		Name:          "tb-probe",
		Blocks:        blocks,
		WarpsPerBlock: 1,
		New:           func(b, w int) device.Program { return &device.ClockReader{} },
	}
	k, err := g.Launch(spec)
	if err != nil {
		return nil, err
	}
	if err := g.RunKernels(1_000_000); err != nil {
		return nil, err
	}
	out := make([]int, blocks)
	for _, bp := range k.Blocks {
		out[bp.Block] = bp.SM
	}
	return out, nil
}

// quadThreshold is the slowdown ratio above which the deterministic
// four-TPC co-activation test declares contention.
const quadThreshold = 1.08

// refTime runs the Algorithm 1 read benchmark on both SMs of every TPC in
// tpcs and returns ref's time: that of its slower SM.
func refTime(cfg *config.Config, ref int, tpcs []int, warps, ops int) (uint64, error) {
	var sms []int
	for _, t := range tpcs {
		sms = append(sms, cfg.SMsOfTPC(t)...)
	}
	times, err := timeSMs(cfg, sms, false, warps, ops)
	if err != nil {
		return 0, err
	}
	var t uint64
	for _, sm := range cfg.SMsOfTPC(ref) {
		t = max(t, times[sm])
	}
	return t, nil
}

// quadTest deterministically checks whether probe shares the reference's
// GPC, given two TPCs (helpers) already known to be in that GPC and base,
// ref's time beside the helpers alone: activating four same-GPC TPC pairs
// oversubscribes the GPC reply channel while three stay just under its
// speedup, so the reference's time jumps only when the probe completes the
// quartet.
func quadTest(cfg *config.Config, ref, h1, h2, probe int, base uint64, warps, ops int) (bool, error) {
	with, err := refTime(cfg, ref, []int{ref, h1, h2, probe}, warps, ops)
	if err != nil {
		return false, err
	}
	return float64(with)/float64(base) > quadThreshold, nil
}

// MapGPCsAdaptive recovers the TPC->GPC mapping with an adaptive,
// hypothesis-driven protocol that needs orders of magnitude fewer runs than
// the 200-repetition statistical sweep: GPUs assign TPCs to GPCs with strong
// regularity (the paper observes they are "mostly interleaved"), so for each
// reference the attacker first searches for a stride K such that the quartet
// {ref, ref+K, ref+2K, ref+3K} saturates a GPC reply channel together, then
// verifies every remaining TPC with one deterministic quartet test each.
// Irregular members (the spilled TPC39 of Fig 4) are caught by the
// exhaustive verification; topologies whose GPCs hold fewer than four TPCs
// fall back to the statistical grouping. Each group's {ref, h1, h2}
// baseline is timed once, by the stride test that found the helpers: runs
// are deterministic, so every verification reuses it.
func MapGPCsAdaptive(cfg *config.Config, opt GPCProbeOptions) ([][]int, error) {
	opt.defaults()
	assigned := make(map[int]bool)
	var groups [][]int
	n := cfg.NumTPCs()
	for ref := 0; ref < n; ref++ {
		if assigned[ref] {
			continue
		}
		var group []int
		// Phase A: stride hypothesis search for two groupmates.
		var h1, h2 int
		var base uint64
		found := false
		for k := 1; !found && k <= n/3; k++ {
			a, b, c := ref+k, ref+2*k, ref+3*k
			if c >= n || assigned[a] || assigned[b] || assigned[c] {
				continue
			}
			t, err := refTime(cfg, ref, []int{ref, a, b}, opt.Warps, opt.Ops)
			if err != nil {
				return nil, err
			}
			in, err := quadTest(cfg, ref, a, b, c, t, opt.Warps, opt.Ops)
			if err != nil {
				return nil, err
			}
			if in {
				h1, h2, base = a, b, t
				found = true
			}
		}
		if found {
			// Phase B: one deterministic quartet test per remaining TPC.
			group = []int{ref, h1, h2}
			for probe := 0; probe < n; probe++ {
				if assigned[probe] || probe == ref || probe == h1 || probe == h2 {
					continue
				}
				in, err := quadTest(cfg, ref, h1, h2, probe, base, opt.Warps, opt.Ops)
				if err != nil {
					return nil, err
				}
				if in {
					group = append(group, probe)
				}
			}
		} else {
			// No quartet found: the GPC is smaller than four TPCs (or
			// highly irregular); fall back to the statistical sweep. The
			// full probe set (including already-grouped TPCs) keeps the
			// relative normalization meaningful; already-grouped TPCs are
			// then dropped from the result.
			points, err := GPCSweep(cfg, ref, opt)
			if err != nil {
				return nil, err
			}
			group = group[:0]
			for _, t := range GroupFromSweep(ref, points, 0) {
				if t == ref || !assigned[t] {
					group = append(group, t)
				}
			}
		}
		sort.Ints(group)
		for _, t := range group {
			assigned[t] = true
		}
		groups = append(groups, group)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups, nil
}

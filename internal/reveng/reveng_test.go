package reveng

import (
	"testing"

	"gpunoc/internal/config"
)

func smallCfg() config.Config {
	c := config.Small()
	c.WarpIssueJitter = 0
	return c
}

// TestTPCSweepFindsPair reproduces the Fig 2 discovery on the small GPU: the
// only SM that doubles SM0's execution time is SM1, its TPC mate.
func TestTPCSweepFindsPair(t *testing.T) {
	cfg := smallCfg()
	points, err := TPCSweep(&cfg, 0, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != cfg.NumSMs()-1 {
		t.Fatalf("%d points", len(points))
	}
	pair, err := PairedSM(points)
	if err != nil {
		t.Fatal(err)
	}
	if pair != 1 {
		t.Errorf("paired SM = %d, want 1", pair)
	}
	for _, p := range points {
		if p.OtherSM == 1 {
			if p.Normalized < 1.6 {
				t.Errorf("TPC mate contention only %.2fx", p.Normalized)
			}
		} else if p.Normalized > 1.3 {
			t.Errorf("SM%d (different TPC) shows %.2fx contention", p.OtherSM, p.Normalized)
		}
	}
}

func TestTPCSweepValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := TPCSweep(&cfg, -1, 2, 5); err == nil {
		t.Error("negative base SM should fail")
	}
	if _, err := TPCSweep(&cfg, cfg.NumSMs(), 2, 5); err == nil {
		t.Error("out-of-range base SM should fail")
	}
}

func TestGroupFromSweepSingleton(t *testing.T) {
	points := []Fig3Point{
		{ProbeTPC: 1, Normalized: 1.001},
		{ProbeTPC: 2, Normalized: 1.002},
	}
	group := GroupFromSweep(0, points, 0)
	if len(group) != 1 || group[0] != 0 {
		t.Errorf("flat sweep should yield singleton, got %v", group)
	}
	if g := GroupFromSweep(5, nil, 0); len(g) != 1 || g[0] != 5 {
		t.Errorf("empty sweep should yield singleton, got %v", g)
	}
}

func TestPairedSMRejectsFlatSweep(t *testing.T) {
	points := []Fig2Point{{OtherSM: 1, Normalized: 1.02}, {OtherSM: 2, Normalized: 1.01}}
	if _, err := PairedSM(points); err == nil {
		t.Error("flat sweep should not identify a pair")
	}
}

// TestGPCSweepGroups: on the small GPU (GPC0 = {TPC0, TPC2}), probing from
// TPC0 elevates TPC2 above TPC1/TPC3.
func TestGPCSweepGroups(t *testing.T) {
	cfg := smallCfg()
	points, err := GPCSweep(&cfg, 0, GPCProbeOptions{Reps: 4, Background: -1, Ops: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byProbe := map[int]Fig3Point{}
	for _, p := range points {
		byProbe[p.ProbeTPC] = p
	}
	sameGPC := byProbe[2].MeanTime
	otherA := byProbe[1].MeanTime
	otherB := byProbe[3].MeanTime
	if sameGPC <= otherA || sameGPC <= otherB {
		t.Errorf("same-GPC probe (%.0f) not above other-GPC probes (%.0f, %.0f)",
			sameGPC, otherA, otherB)
	}
	group := GroupFromSweep(0, points, 0)
	if len(group) != 2 || group[0] != 0 || group[1] != 2 {
		t.Errorf("inferred group = %v, want [0 2]", group)
	}
}

// TestMapGPCsRecoversTopology runs the full Fig 4 mapping on the small GPU
// and compares against the ground-truth TPC->GPC assignment.
func TestMapGPCsRecoversTopology(t *testing.T) {
	cfg := smallCfg()
	groups, err := MapGPCs(&cfg, GPCProbeOptions{Reps: 4, Background: -1, Ops: 10, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != cfg.NumGPCs {
		t.Fatalf("found %d groups, want %d: %v", len(groups), cfg.NumGPCs, groups)
	}
	for _, group := range groups {
		want := cfg.GPCOfTPC(group[0])
		for _, tpc := range group {
			if cfg.GPCOfTPC(tpc) != want {
				t.Errorf("group %v mixes GPCs", group)
			}
		}
		if len(group) != len(cfg.TPCsOfGPC(want)) {
			t.Errorf("group %v incomplete for GPC %d (%v)", group, want, cfg.TPCsOfGPC(want))
		}
	}
}

// TestClockSurveyShape checks the Fig 6 structure: full coverage and near-
// identical values within a TPC.
func TestClockSurveyShape(t *testing.T) {
	cfg := smallCfg()
	samples, err := ClockSurvey(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != cfg.NumSMs() {
		t.Fatalf("%d samples", len(samples))
	}
	bySM := map[int]uint32{}
	for _, s := range samples {
		bySM[s.SM] = s.Value
	}
	for tpc := 0; tpc < cfg.NumTPCs(); tpc++ {
		sms := cfg.SMsOfTPC(tpc)
		d := int64(bySM[sms[0]]) - int64(bySM[sms[1]])
		if d < 0 {
			d = -d
		}
		if d > 40 {
			t.Errorf("TPC %d clock readings differ by %d", tpc, d)
		}
	}
}

// TestMeasureSkewBounds reproduces the §4.1 statistics: mean TPC skew under
// 5 cycles plus a small read-time offset, mean GPC skew under 15 plus the
// same allowance.
func TestMeasureSkewBounds(t *testing.T) {
	cfg := smallCfg()
	st, err := MeasureSkew(&cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The survey reads clocks a few scheduler cycles apart, so allow the
	// measurement overhead on top of the configured skew bounds.
	if st.MeanTPCSkew > float64(cfg.ClockSkewTPCMax)+20 {
		t.Errorf("mean TPC skew %.1f too large", st.MeanTPCSkew)
	}
	if st.MeanGPCSkew > float64(cfg.ClockSkewGPCMax)+20 {
		t.Errorf("mean GPC skew %.1f too large", st.MeanGPCSkew)
	}
	if st.MeanTPCSkew > st.MeanGPCSkew {
		t.Errorf("TPC skew (%.1f) should not exceed GPC skew (%.1f)", st.MeanTPCSkew, st.MeanGPCSkew)
	}
}

// TestTBProbeInterleave verifies the §4.3 observation end to end: the first
// NumTPCs blocks land on distinct TPCs; the next wave fills the second SMs.
func TestTBProbeInterleave(t *testing.T) {
	cfg := smallCfg()
	sms, err := TBProbe(&cfg, cfg.NumSMs())
	if err != nil {
		t.Fatal(err)
	}
	firstWave := map[int]bool{}
	for _, sm := range sms[:cfg.NumTPCs()] {
		tpc := cfg.TPCOfSM(sm)
		if firstWave[tpc] {
			t.Fatalf("first wave doubled up on TPC %d", tpc)
		}
		firstWave[tpc] = true
	}
	occupied := map[int]int{}
	for _, sm := range sms {
		occupied[sm]++
	}
	for sm, n := range occupied {
		if n != 1 {
			t.Errorf("SM %d hosts %d blocks", sm, n)
		}
	}
}

// TestMapGPCsAdaptiveVolta recovers the full 40-TPC Fig 4 mapping with the
// adaptive quartet protocol. Takes ~a minute; skipped under -short.
func TestMapGPCsAdaptiveVolta(t *testing.T) {
	if testing.Short() {
		t.Skip("volta-scale mapping")
	}
	cfg := config.Volta()
	groups, err := MapGPCsAdaptive(&cfg, GPCProbeOptions{Reps: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != cfg.NumGPCs {
		t.Fatalf("found %d groups: %v", len(groups), groups)
	}
	for _, group := range groups {
		gt := cfg.GPCOfTPC(group[0])
		want := cfg.TPCsOfGPC(gt)
		if len(group) != len(want) {
			t.Errorf("group %v vs ground truth %v", group, want)
			continue
		}
		for i := range want {
			if group[i] != want[i] {
				t.Errorf("group %v vs ground truth %v", group, want)
				break
			}
		}
	}
}

// TestMapGPCsAdaptiveSmallFallsBack: on a 2-TPC-per-GPC topology the quartet
// protocol cannot apply and the statistical fallback must still recover the
// mapping.
func TestMapGPCsAdaptiveSmallFallsBack(t *testing.T) {
	cfg := smallCfg()
	groups, err := MapGPCsAdaptive(&cfg, GPCProbeOptions{Reps: 4, Background: -1, Ops: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != cfg.NumGPCs {
		t.Fatalf("found %d groups: %v", len(groups), groups)
	}
	for _, g := range groups {
		want := cfg.GPCOfTPC(g[0])
		for _, tpc := range g {
			if cfg.GPCOfTPC(tpc) != want {
				t.Errorf("group %v mixes GPCs", g)
			}
		}
	}
}

// TestGPCSweepNeedsTwoTPCs: a one-TPC topology passes Validate but leaves
// no probe TPC, so the sweep and both mappers return an error instead of
// panicking on an empty point list.
func TestGPCSweepNeedsTwoTPCs(t *testing.T) {
	cfg := config.Small()
	cfg.NumGPCs, cfg.MaxTPCsPerGPC = 1, 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("one-TPC config rejected: %v", err)
	}
	opt := GPCProbeOptions{Reps: 1, Background: -1}
	if _, err := GPCSweep(&cfg, 0, opt); err == nil {
		t.Error("GPCSweep: no error")
	}
	if _, err := MapGPCs(&cfg, opt, 0); err == nil {
		t.Error("MapGPCs: no error")
	}
	if _, err := MapGPCsAdaptive(&cfg, opt); err == nil {
		t.Error("MapGPCsAdaptive: no error")
	}
}

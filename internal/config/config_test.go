package config

import (
	"testing"
	"testing/quick"
)

func TestVoltaValidates(t *testing.T) {
	c := Volta()
	if err := c.Validate(); err != nil {
		t.Fatalf("Volta config invalid: %v", err)
	}
	if c.NumSMs() != 80 {
		t.Errorf("NumSMs = %d, want 80", c.NumSMs())
	}
	if c.SlicesPerMC() != 2 {
		t.Errorf("SlicesPerMC = %d, want 2", c.SlicesPerMC())
	}
}

func TestSmallValidates(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small config invalid: %v", err)
	}
	if c.NumSMs() != 8 {
		t.Errorf("NumSMs = %d, want 8", c.NumSMs())
	}
}

func TestTPCOfSM(t *testing.T) {
	c := Volta()
	cases := []struct{ sm, tpc int }{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {78, 39}, {79, 39}}
	for _, cse := range cases {
		if got := c.TPCOfSM(cse.sm); got != cse.tpc {
			t.Errorf("TPCOfSM(%d) = %d, want %d", cse.sm, got, cse.tpc)
		}
	}
	sms := c.SMsOfTPC(3)
	if len(sms) != 2 || sms[0] != 6 || sms[1] != 7 {
		t.Errorf("SMsOfTPC(3) = %v", sms)
	}
}

// TestFig4Mapping checks the reverse-engineered TPC->GPC mapping of Fig 4:
// TPCs are interleaved across GPCs, but because GPC4 and GPC5 have only six
// TPCs each, the last TPCs spill: GPC5 = {5,11,17,23,29,39} (TPC35 missing,
// TPC39 present), as the paper reports.
func TestFig4Mapping(t *testing.T) {
	c := Volta()
	got := c.TPCsOfGPC(5)
	want := []int{5, 11, 17, 23, 29, 39}
	if len(got) != len(want) {
		t.Fatalf("GPC5 TPCs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GPC5 TPCs = %v, want %v", got, want)
		}
	}
	// GPC0 keeps a full interleave plus one spilled TPC.
	g0 := c.TPCsOfGPC(0)
	if len(g0) != 7 {
		t.Fatalf("GPC0 has %d TPCs, want 7: %v", len(g0), g0)
	}
	for _, tpc := range []int{0, 6, 12, 18, 24, 30} {
		if c.GPCOfTPC(tpc) != 0 {
			t.Errorf("GPCOfTPC(%d) = %d, want 0", tpc, c.GPCOfTPC(tpc))
		}
	}
}

func TestMappingIsPartition(t *testing.T) {
	for _, c := range []Config{Volta(), Small()} {
		seen := make(map[int]bool)
		for g := 0; g < c.NumGPCs; g++ {
			tpcs := c.TPCsOfGPC(g)
			if len(tpcs) != c.TPCsPerGPC()[g] {
				t.Errorf("%s: GPC%d has %d TPCs, want %d", c.Name, g, len(tpcs), c.TPCsPerGPC()[g])
			}
			for _, tpc := range tpcs {
				if seen[tpc] {
					t.Errorf("%s: TPC%d assigned twice", c.Name, tpc)
				}
				seen[tpc] = true
			}
		}
		if len(seen) != c.NumTPCs() {
			t.Errorf("%s: %d TPCs mapped, want %d", c.Name, len(seen), c.NumTPCs())
		}
	}
}

func TestGPCOfTPCOutOfRange(t *testing.T) {
	c := Volta()
	if c.GPCOfTPC(40) != -1 || c.GPCOfTPC(-1) != -1 {
		t.Error("out-of-range TPC should map to -1")
	}
}

func TestBitsPerSecond(t *testing.T) {
	c := Volta()
	// 1200 cycles per bit at 1200 MHz = 1 Mbps, the paper's single-TPC
	// channel operating point.
	got := c.BitsPerSecond(1, 1200)
	if got < 0.99e6 || got > 1.01e6 {
		t.Errorf("BitsPerSecond(1, 1200) = %v, want ~1e6", got)
	}
	if c.BitsPerSecond(10, 0) != 0 {
		t.Error("zero cycles must give zero rate")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"clock", func(c *Config) { c.CoreClockMHz = 0 }},
		{"simt", func(c *Config) { c.SIMTWidth = -1 }},
		{"gpcs", func(c *Config) { c.NumGPCs = 0 }},
		{"slots", func(c *Config) { c.MaxTPCsPerGPC = 0 }},
		{"disabledRange", func(c *Config) { c.DisabledTPCSlots = []int{42} }},
		{"disabledDup", func(c *Config) { c.DisabledTPCSlots = []int{3, 3} }},
		{"gpcEmpty", func(c *Config) { c.DisabledTPCSlots = []int{0, 6, 12, 18, 24, 30, 36} }},
		{"l2geom", func(c *Config) { c.L2LineBytes = 0 }},
		{"l2divide", func(c *Config) { c.L2SliceSizeBytes = 96*1024 + 7 }},
		{"mcdivide", func(c *Config) { c.NumMCs = 7 }},
		{"l2lat", func(c *Config) { c.L2HitLatency = 0 }},
		{"mshr", func(c *Config) { c.L2MSHRs = 0 }},
		{"dram", func(c *Config) { c.DRAM.TRC = 1 }},
		{"smlimits", func(c *Config) { c.MaxWarpsPerSM = 0 }},
		{"rate", func(c *Config) { c.NoC.GPCRepRateNum = 0 }},
		{"rateden", func(c *Config) { c.NoC.TPCReqRateDen = -1 }},
		{"crr", func(c *Config) { c.NoC.CRRHoldLimit = 0 }},
	}
	for _, m := range mutations {
		c := Volta()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %q should invalidate config", m.name)
		}
	}
}

func TestArbPolicyString(t *testing.T) {
	cases := map[ArbPolicy]string{
		ArbRR: "RR", ArbCRR: "CRR", ArbSRR: "SRR", ArbAge: "AGE", ArbFixed: "FIXED",
		ArbPolicy(99): "ArbPolicy(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

// Property: for any valid SM id, SM -> TPC -> GPC stays in range and the SM
// is listed in its own TPC.
func TestQuickHierarchyConsistency(t *testing.T) {
	c := Volta()
	f := func(raw uint16) bool {
		sm := int(raw) % c.NumSMs()
		tpc := c.TPCOfSM(sm)
		if tpc < 0 || tpc >= c.NumTPCs() {
			return false
		}
		found := false
		for _, s := range c.SMsOfTPC(tpc) {
			if s == sm {
				found = true
			}
		}
		gpc := c.GPCOfSM(sm)
		return found && gpc >= 0 && gpc < c.NumGPCs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

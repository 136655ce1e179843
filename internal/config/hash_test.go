package config

import (
	"testing"

	"gpunoc/internal/probe"
)

func TestHashIgnoresObserversAndWorkerKnobs(t *testing.T) {
	a := Small()
	b := Small()
	b.ExhaustiveTick = true
	b.Meter = &CycleMeter{}
	b.Probes = probe.NewRegistry()
	if a.Hash() != b.Hash() {
		t.Fatal("hash changed with non-semantic fields")
	}
}

func TestHashSeesSemanticFields(t *testing.T) {
	base := Small()
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"arb":      func(c *Config) { c.NoC.Arbitration = ArbSRR },
		"slices":   func(c *Config) { c.NumL2Slices *= 2 },
		"jitter":   func(c *Config) { c.WarpIssueJitter++ },
		"disabled": func(c *Config) { c.DisabledTPCSlots = append(c.DisabledTPCSlots, 3) },
		"nvlink":   func(c *Config) { c.NVLink.HopLatency = 99 },
		"mesh":     func(c *Config) { c.MeshGPUs = 4 },
	} {
		c := base.Clone()
		mutate(&c)
		if c.Hash() == base.Hash() {
			t.Errorf("%s: mutation not reflected in hash", name)
		}
	}
}

func TestHashDistinguishesPresets(t *testing.T) {
	small, volta := Small(), Volta()
	if small.Hash() == volta.Hash() {
		t.Fatal("small and volta hash equal")
	}
}

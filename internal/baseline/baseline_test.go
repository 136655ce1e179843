package baseline

import (
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
)

func smallCfg() config.Config {
	c := config.Small()
	c.WarpIssueJitter = 32
	return c
}

func TestRunPrimeProbeValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := RunPrimeProbe(&cfg, PrimeProbeParams{}); err == nil {
		t.Error("empty payload should fail")
	}
}

func TestRunAtomicValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := RunAtomic(&cfg, AtomicParams{}); err == nil {
		t.Error("empty payload should fail")
	}
}

// TestPrimeProbeCarriesBits: the intra-SM L1 channel transmits an
// alternating pattern with better-than-random accuracy.
func TestPrimeProbeCarriesBits(t *testing.T) {
	cfg := smallCfg()
	bits := core.AlternatingPayload(32, 2)
	res, err := RunPrimeProbe(&cfg, PrimeProbeParams{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsSent != 32 {
		t.Errorf("BitsSent = %d", res.BitsSent)
	}
	if res.ErrorRate > 0.15 {
		t.Errorf("prime+probe error rate %.3f too high", res.ErrorRate)
	}
	if res.BitsPerSecond <= 0 {
		t.Error("no bandwidth measured")
	}
}

// TestAtomicCarriesBits: the global-memory channel transmits with
// better-than-random accuracy.
func TestAtomicCarriesBits(t *testing.T) {
	cfg := smallCfg()
	bits := core.AlternatingPayload(32, 2)
	res, err := RunAtomic(&cfg, AtomicParams{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.15 {
		t.Errorf("atomic channel error rate %.3f too high", res.ErrorRate)
	}
	if res.BitsPerSecond <= 0 {
		t.Error("no bandwidth measured")
	}
}

// TestBaselinesSlowerThanInterconnect reproduces the Table 2 ordering: the
// paper's TPC interconnect channel outruns both baselines on the same GPU.
func TestBaselinesSlowerThanInterconnect(t *testing.T) {
	cfg := smallCfg()
	bits := core.AlternatingPayload(32, 2)

	pp, err := RunPrimeProbe(&cfg, PrimeProbeParams{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	at, err := RunAtomic(&cfg, AtomicParams{Bits: bits})
	if err != nil {
		t.Fatal(err)
	}

	p, err := core.Calibrate(&cfg, core.Params{Kind: core.TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 3}, 24)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransmission(&cfg, bits, []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	tpc, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The baselines run at generous slot sizes on this idealized simulator,
	// so the assertion is the Table 2 ordering with margin, not the paper's
	// raw orders-of-magnitude gap (which the multi-TPC channel does show).
	if tpc.BitsPerSecond <= pp.BitsPerSecond*1.5 {
		t.Errorf("TPC channel (%.0f bps) should clearly outrun prime+probe (%.0f bps)",
			tpc.BitsPerSecond, pp.BitsPerSecond)
	}
	if tpc.BitsPerSecond <= at.BitsPerSecond*1.5 {
		t.Errorf("TPC channel (%.0f bps) should clearly outrun atomics (%.0f bps)",
			tpc.BitsPerSecond, at.BitsPerSecond)
	}
}

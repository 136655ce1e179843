package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/mesh"
)

// fastCfg shrinks the GPU so channel integration tests stay quick while
// keeping the full hierarchy (2 GPCs x 2 TPCs x 2 SMs).
func fastCfg() config.Config {
	return config.Small()
}

func calibrated(t *testing.T, cfg *config.Config, p Params) Params {
	t.Helper()
	cal, err := Calibrate(cfg, p, 24)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return cal
}

func TestNewTPCTransmissionValidation(t *testing.T) {
	checkTransmissionValidation(t, TPCChannel)
}

func TestNewGPCTransmissionValidation(t *testing.T) {
	checkTransmissionValidation(t, GPCChannel)
}

// checkTransmissionValidation runs NewTransmission's argument checks for one
// on-die kind: each bad argument fails, and every unit of the kind is
// accepted.
func checkTransmissionValidation(t *testing.T, kind Kind) {
	t.Helper()
	cfg := fastCfg()
	payload := AlternatingPayload(4, 2)
	p := Params{Kind: kind}
	outOfRange := cfg.NumTPCs()
	if kind == GPCChannel {
		outOfRange = cfg.NumGPCs
	}
	bad := p
	bad.Iterations = -1
	for _, c := range []struct {
		name    string
		payload []Symbol
		units   []int
		p       Params
	}{
		{"empty payload", nil, nil, p},
		{"negative unit", payload, []int{-1}, p},
		{"out-of-range unit", payload, []int{outOfRange}, p},
		{"duplicate unit", payload, []int{1, 1}, p},
		{"invalid params", payload, nil, bad},
	} {
		if _, err := NewTransmission(&cfg, c.payload, c.units, c.p); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
	if _, err := NewTransmission(&cfg, payload, nil, p); err != nil {
		t.Errorf("all %ss: %v", kind, err)
	}
}

// TestNewTransmissionValidation checks that NewTransmission rejects the
// mesh-only NVLink channel and unknown kinds.
func TestNewTransmissionValidation(t *testing.T) {
	cfg := fastCfg()
	payload := AlternatingPayload(4, 2)
	for _, kind := range []Kind{NVLinkChannel, Kind(7)} {
		if _, err := NewTransmission(&cfg, payload, nil, Params{Kind: kind}); err == nil {
			t.Errorf("kind %v should be rejected", kind)
		}
	}
}

// TestKernelShapes pins the kernels build makes for each channel:
// kernel names (they name spans in traces), grids, and which SMs' programs
// take part. Every block count and warp index feeds a dispatch-jitter or
// slot-jitter draw, so these shapes are part of every channel report.
func TestKernelShapes(t *testing.T) {
	cfg := fastCfg()
	payload := AlternatingPayload(8, 2)
	tpc, err := NewTransmission(&cfg, payload, []int{0}, Params{Kind: TPCChannel})
	if err != nil {
		t.Fatal(err)
	}
	gpc, err := NewTransmission(&cfg, payload, []int{0}, Params{Kind: GPCChannel})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NewNVLinkTransmission(m, 0, 1, payload, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// joins lists the SMs on which a block-0 warp-0 program does not exit
	// on its first step.
	joins := func(spec device.KernelSpec) []int {
		var out []int
		for sm := 0; sm < cfg.NumSMs(); sm++ {
			if spec.New(0, 0).Step(&device.Ctx{SMID: sm}).Kind != device.OpDone {
				out = append(out, sm)
			}
		}
		return out
	}
	// Small: GPC0 holds TPCs 0 and 2, so SMs 0-1 and 4-5. The NVLink
	// programs take part wherever they land.
	var all []int
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		all = append(all, sm)
	}
	for _, c := range []struct {
		tr                 *Transmission
		sender, receiver   string
		sBlocks, sWarps    int
		rBlocks            int
		senders, receivers []int
	}{
		{tpc, "cc-sender-tpc", "cc-receiver-tpc", cfg.NumTPCs(), 5, cfg.NumTPCs(), []int{0}, []int{1}},
		{gpc, "cc-sender-gpc", "cc-receiver-gpc", cfg.NumSMs(), 8, cfg.NumTPCs(), []int{4, 5}, []int{0}},
		{&nv.Transmission, "cc-sender-nvlink", "cc-receiver-nvlink", nvlinkSenderSMs, 5, 1, all, all},
	} {
		s, r := c.tr.senderSpec, c.tr.receiverSpec
		if s.Name != c.sender || s.Blocks != c.sBlocks || s.WarpsPerBlock != c.sWarps {
			t.Errorf("sender %s: %d x %d, want %s: %d x %d", s.Name, s.Blocks, s.WarpsPerBlock, c.sender, c.sBlocks, c.sWarps)
		}
		if r.Name != c.receiver || r.Blocks != c.rBlocks || r.WarpsPerBlock != 1 {
			t.Errorf("receiver %s: %d x %d, want %s: %d x 1", r.Name, r.Blocks, r.WarpsPerBlock, c.receiver, c.rBlocks)
		}
		if got := joins(s); !reflect.DeepEqual(got, c.senders) {
			t.Errorf("%s runs on SMs %v, want %v", c.sender, got, c.senders)
		}
		if got := joins(r); !reflect.DeepEqual(got, c.receivers) {
			t.Errorf("%s runs on SMs %v, want %v", c.receiver, got, c.receivers)
		}
	}
}

func TestSplitPayload(t *testing.T) {
	p := AlternatingPayload(10, 2)
	chunks := splitPayload(p, 3)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 10 {
		t.Errorf("chunks cover %d symbols", total)
	}
	if len(chunks[0]) != 4 || len(chunks[1]) != 3 || len(chunks[2]) != 3 {
		t.Errorf("chunk sizes %d/%d/%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
}

// TestTPCChannelEndToEnd transmits a real byte payload over one TPC pair and
// expects near-perfect recovery at 4 iterations (Fig 10a: near-zero error).
func TestTPCChannelEndToEnd(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 11})
	payload, err := BytesToSymbols([]byte("covert!"), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransmission(&cfg, payload, []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SymbolsSent != len(payload) {
		t.Errorf("sent %d symbols, want %d", res.SymbolsSent, len(payload))
	}
	if res.ErrorRate > 0.05 {
		t.Errorf("error rate %.3f too high for 4 iterations", res.ErrorRate)
	}
	if res.BitsPerSecond < 100e3 {
		t.Errorf("bandwidth %.0f bps implausibly low", res.BitsPerSecond)
	}
	if len(res.Pairs[0].Trace) != len(payload) {
		t.Errorf("trace has %d slots", len(res.Pairs[0].Trace))
	}
}

// TestMultiTPCScalesBandwidth: using all TPCs multiplies throughput without
// destroying the error rate (Fig 10b).
func TestMultiTPCScalesBandwidth(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 11})

	single, err := NewTransmission(&cfg, AlternatingPayload(32, 2), []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := single.Run()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewTransmission(&cfg, AlternatingPayload(32*cfg.NumTPCs(), 2), nil, p)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := multi.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Pairs) != cfg.NumTPCs() {
		t.Fatalf("multi-TPC used %d pairs", len(rm.Pairs))
	}
	scale := rm.BitsPerSecond / rs.BitsPerSecond
	if scale < float64(cfg.NumTPCs())*0.7 {
		t.Errorf("multi-TPC scaled only %.1fx over single (want ~%dx)", scale, cfg.NumTPCs())
	}
	if rm.ErrorRate > 0.12 {
		t.Errorf("multi-TPC error rate %.3f too high", rm.ErrorRate)
	}
}

// TestGPCChannelEndToEnd: the read-based GPC channel also carries data
// (Fig 10c).
func TestGPCChannelEndToEnd(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: GPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 11})
	tr, err := NewTransmission(&cfg, AlternatingPayload(32, 2), []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.10 {
		t.Errorf("GPC error rate %.3f too high", res.ErrorRate)
	}
}

// TestMoreIterationsFewerErrors pins the Fig 10 trade-off direction: going
// from 1 iteration to 4 cannot increase the error rate (on aggregate) and
// strictly lowers the bitrate.
func TestMoreIterationsFewerErrors(t *testing.T) {
	cfg := fastCfg()
	run := func(iters int) Result {
		p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: iters, SyncPeriod: 16, Seed: 3})
		tr, err := NewTransmission(&cfg, AlternatingPayload(96, 2), []int{0}, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lo := run(1)
	hi := run(4)
	if hi.ErrorRate > lo.ErrorRate+0.02 {
		t.Errorf("error rate rose with iterations: %.3f -> %.3f", lo.ErrorRate, hi.ErrorRate)
	}
	if hi.BitsPerSecond >= lo.BitsPerSecond {
		t.Errorf("bitrate did not fall with iterations: %.0f -> %.0f", lo.BitsPerSecond, hi.BitsPerSecond)
	}
}

// TestCoalescedSenderBreaksChannel reproduces Fig 13's headline: with a
// fully-coalesced sender the channel collapses toward coin-flipping.
func TestCoalescedSenderBreaksChannel(t *testing.T) {
	cfg := fastCfg()
	p, err := Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 5,
		SenderCoalesced: true, Thresholds: []float64{200}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransmission(&cfg, AlternatingPayload(64, 2), []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate < 0.25 {
		t.Errorf("coalesced sender still communicates (error %.3f); Fig 13 expects >50%%", res.ErrorRate)
	}
}

// TestNoResyncAccumulatesErrors reproduces the Fig 9(a)/(b) contrast: with
// periodic synchronization disabled, a long transmission degrades relative
// to the synchronized one.
func TestNoResyncAccumulatesErrors(t *testing.T) {
	cfg := fastCfg()
	base := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 2, SyncPeriod: 8, Seed: 9})
	run := func(syncPeriod int) float64 {
		p := base
		p.SyncPeriod = syncPeriod
		tr, err := NewTransmission(&cfg, AlternatingPayload(160, 2), []int{0}, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ErrorRate
	}
	withSync := run(8)
	noSync := run(0)
	if noSync < withSync {
		t.Errorf("no-resync error %.3f should be >= synced %.3f", noSync, withSync)
	}
}

// TestMultiLevelChannel runs the 2-bit channel of Fig 14 and checks the
// bandwidth gain over binary at equal slot length.
func TestMultiLevelChannel(t *testing.T) {
	cfg := fastCfg()
	p := Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 13, BitsPerSymbol: 2}
	cal, err := Calibrate(&cfg, p, 48)
	if err != nil {
		t.Fatalf("multi-level calibration: %v", err)
	}
	if len(cal.Thresholds) != 3 {
		t.Fatalf("thresholds = %v", cal.Thresholds)
	}
	tr, err := NewTransmission(&cfg, AlternatingPayload(64, 4), []int{0}, cal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsSent != 128 {
		t.Errorf("BitsSent = %d, want 128 (2 bits per symbol)", res.BitsSent)
	}
	// The paper reports higher error alongside ~1.6x bandwidth; accept a
	// moderate error but require better-than-random symbol recovery.
	if res.ErrorRate > 0.5 {
		t.Errorf("multi-level error rate %.3f no better than random", res.ErrorRate)
	}
}

// TestLaunchSkewTolerated: an MPS-style launch skew only costs the one-time
// initial synchronization (§2.2).
func TestLaunchSkewTolerated(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 17})
	tr, err := NewTransmission(&cfg, AlternatingPayload(32, 2), []int{0}, p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Launch(g, 5000); err != nil { // well within the 1<<16 init window
		t.Fatal(err)
	}
	res, err := tr.Finish(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.08 {
		t.Errorf("launch skew broke the channel: error %.3f", res.ErrorRate)
	}
}

// TestCalibrateRejectsDeadChannel: calibrating a channel whose sender cannot
// create contention (coalesced) fails with a no-separation error.
func TestCalibrateRejectsDeadChannel(t *testing.T) {
	cfg := fastCfg()
	p := Params{Kind: TPCChannel, Iterations: 2, SyncPeriod: 8, Seed: 21, SenderCoalesced: true}
	if _, err := Calibrate(&cfg, p, 16); err == nil {
		t.Error("calibration of a coalesced sender should find no separation")
	}
}

// Property: transmissions are deterministic given identical seeds.
func TestQuickTransmissionDeterministic(t *testing.T) {
	cfg := fastCfg()
	f := func(seedRaw uint8) bool {
		p := Params{Kind: TPCChannel, Iterations: 2, SyncPeriod: 8,
			Seed: int64(seedRaw) + 1, Thresholds: []float64{205}}
		run := func() Result {
			tr, err := NewTransmission(&cfg, AlternatingPayload(24, 2), []int{0}, p)
			if err != nil {
				return Result{}
			}
			res, err := tr.Run()
			if err != nil {
				return Result{}
			}
			return res
		}
		a, b := run(), run()
		return a.SymbolsSent == 24 && a.SymbolErrors == b.SymbolErrors && a.Cycles == b.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// Property: random byte payloads round-trip through the single-TPC channel
// at 4 iterations with at most a stray bit flip.
func TestQuickRandomPayloadRoundTrip(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 23})
	f := func(data [3]byte) bool {
		payload, err := BytesToSymbols(data[:], 1)
		if err != nil {
			return false
		}
		tr, err := NewTransmission(&cfg, payload, []int{0}, p)
		if err != nil {
			return false
		}
		res, err := tr.Run()
		if err != nil {
			return false
		}
		return res.SymbolErrors <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestResultAccounting cross-checks the Result bookkeeping against the pair
// contents.
func TestResultAccounting(t *testing.T) {
	cfg := fastCfg()
	p := calibrated(t, &cfg, Params{Kind: TPCChannel, Iterations: 3, SyncPeriod: 8, Seed: 31})
	payload := AlternatingPayload(40, 2)
	tr, err := NewTransmission(&cfg, payload, nil, p) // all TPCs
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	total, errs := 0, 0
	for _, pair := range res.Pairs {
		total += len(pair.Sent)
		errs += pair.Errors
		if len(pair.Received) != len(pair.Sent) {
			t.Errorf("pair %d received %d of %d symbols", pair.Unit, len(pair.Received), len(pair.Sent))
		}
		if len(pair.Trace) != len(pair.Sent) {
			t.Errorf("pair %d trace %d of %d slots", pair.Unit, len(pair.Trace), len(pair.Sent))
		}
	}
	if total != res.SymbolsSent || errs != res.SymbolErrors {
		t.Errorf("aggregates %d/%d vs pairs %d/%d", res.SymbolsSent, res.SymbolErrors, total, errs)
	}
	if res.BitsSent != res.SymbolsSent {
		t.Errorf("BitsSent %d != symbols %d for binary channel", res.BitsSent, res.SymbolsSent)
	}
	if res.Cycles == 0 || res.BitsPerSecond == 0 {
		t.Error("missing throughput accounting")
	}
}

// TestIdleUnitsHaveNoSpan: a payload shorter than the unit count leaves
// some receivers without symbols. They sync once and exit without
// completing a slot, so they must not count toward the transmission's span
// (their last slot clock is 0, and counting them wrapped the span around).
func TestIdleUnitsHaveNoSpan(t *testing.T) {
	cfg := fastCfg()
	p := Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 3, Thresholds: []float64{205}}
	tr, err := NewTransmission(&cfg, AlternatingPayload(2, 2), nil, p) // 2 symbols, 4 TPCs
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	slot := DefaultSlot(TPCChannel, 4)
	if res.Cycles == 0 || res.Cycles > 2*slot {
		t.Errorf("span %d cycles for one slot per active unit, want (0, %d]", res.Cycles, 2*slot)
	}
	if want := cfg.BitsPerSecond(res.BitsSent, res.Cycles); res.BitsPerSecond != want || want < 1e5 {
		t.Errorf("BitsPerSecond %g over a %d-cycle span", res.BitsPerSecond, res.Cycles)
	}
}

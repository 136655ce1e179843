package core

import (
	"testing"

	"gpunoc/internal/mesh"
)

// TestNVLinkTransmissionValidation covers the constructor's error paths.
func TestNVLinkTransmissionValidation(t *testing.T) {
	cfg := fastCfg()
	m, err := mesh.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Kind: NVLinkChannel}
	if _, err := NewNVLinkTransmission(m, 0, 1, nil, p); err == nil {
		t.Error("empty payload should fail")
	}
	if _, err := NewNVLinkTransmission(m, 0, 0, AlternatingPayload(4, 2), p); err == nil {
		t.Error("same device twice should fail")
	}
	if _, err := NewNVLinkTransmission(m, 0, 5, AlternatingPayload(4, 2), p); err == nil {
		t.Error("out-of-range device should fail")
	}
	bad := p
	bad.Iterations = -1
	if _, err := NewNVLinkTransmission(m, 0, 1, AlternatingPayload(4, 2), bad); err == nil {
		t.Error("invalid params should fail")
	}
}

// TestNVLinkChannelEndToEnd calibrates the cross-GPU channel on a 2-device
// mesh and transmits a byte payload from device 0 to device 1, expecting
// near-perfect recovery like the on-die channels achieve at 4 iterations.
func TestNVLinkChannelEndToEnd(t *testing.T) {
	cfg := fastCfg()
	p, err := CalibrateRemote(cfg, 2, 0, 1, Params{Kind: NVLinkChannel, Seed: 11}, 24)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	payload, err := BytesToSymbols([]byte("hi!"), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewNVLinkTransmission(m, 0, 1, payload, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != NVLinkChannel {
		t.Errorf("result kind %v", res.Kind)
	}
	if len(res.Pairs) != 1 || res.Pairs[0].Unit != 1 {
		t.Fatalf("pairs %+v", res.Pairs)
	}
	if res.ErrorRate > 0.05 {
		t.Errorf("error rate %.3f, want near zero (trace %v)", res.ErrorRate, res.Pairs[0].Trace[:4])
	}
	if res.BitsPerSecond <= 0 {
		t.Errorf("bits/s = %f", res.BitsPerSecond)
	}
	got, err := SymbolsToBytes(res.Pairs[0].Decoded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi!" {
		t.Errorf("decoded %q", got)
	}
}

// TestNVLinkChannelDeterministic pins bit-identical results across repeated
// runs — the mesh determinism story extended through the full channel stack.
func TestNVLinkChannelDeterministic(t *testing.T) {
	run := func() Result {
		cfg := fastCfg()
		m, err := mesh.New(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewNVLinkTransmission(m, 0, 1, AlternatingPayload(16, 2), Params{Kind: NVLinkChannel, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SymbolErrors != b.SymbolErrors || a.Cycles != b.Cycles {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.Pairs[0].Received {
		if a.Pairs[0].Received[i] != b.Pairs[0].Received[i] {
			t.Fatalf("received symbol %d diverged", i)
		}
	}
}

// TestNVLinkCalibrationSeparation asserts the physical effect behind the
// channel: the calibrated threshold sits well above the uncontended remote
// round trip, i.e. the sender's flood visibly lifts the receiver's latency.
func TestNVLinkCalibrationSeparation(t *testing.T) {
	cfg := fastCfg()
	p, err := CalibrateRemote(cfg, 2, 0, 1, Params{Kind: NVLinkChannel, Seed: 3}, 24)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	hop := float64(cfg.NVLink.WithDefaults().HopLatency)
	if p.Thresholds[0] < 2*hop {
		t.Errorf("threshold %.1f below the two-hop floor %.1f — remote path not being measured", p.Thresholds[0], 2*hop)
	}
}

package gpunoc

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSendBytesRoundTrip exercises the headline public API: transmit bytes
// over the multi-TPC covert channel and recover them on the other side.
func TestSendBytesRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	p, err := Calibrate(&cfg, ChannelParams{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("leak")
	res, got, err := SendBytes(&cfg, secret, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsSent != len(secret)*8 {
		t.Errorf("BitsSent = %d", res.BitsSent)
	}
	if res.ErrorRate > 0.1 {
		t.Errorf("error rate %.3f", res.ErrorRate)
	}
	// Allow rare single-bit flips but expect near-perfect recovery.
	diff := 0
	for i := range secret {
		if got[i] != secret[i] {
			diff++
		}
	}
	if diff > 1 {
		t.Errorf("recovered %q, want %q", got, secret)
	}
}

func TestSendBytesGPC(t *testing.T) {
	cfg := SmallConfig()
	p, err := Calibrate(&cfg, ChannelParams{Kind: GPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte{0xC3}
	res, got, err := SendBytes(&cfg, secret, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != GPCChannel {
		t.Errorf("kind = %v", res.Kind)
	}
	if res.ErrorRate > 0.2 {
		t.Errorf("error rate %.3f", res.ErrorRate)
	}
	if len(got) != 1 {
		t.Errorf("recovered %d bytes", len(got))
	}
}

// TestSendBytesReturnsDecodedPayload sends over every coding, preamble
// length and symbol width on a quiet small GPU (Hamming(7,4) codes bits, so
// it runs at one bit per symbol only). The returned bytes must differ from
// the payload in exactly the symbols the result counts as errors, so a
// result that reports no error returns the payload itself.
func TestSendBytesReturnsDecodedPayload(t *testing.T) {
	cfg := SmallConfig()
	data := []byte("hi")
	for _, bps := range []int{1, 2} {
		base, err := Calibrate(&cfg, ChannelParams{Kind: TPCChannel, Iterations: 4, SyncPeriod: 16, Seed: 3, BitsPerSymbol: bps})
		if err != nil {
			t.Fatal(err)
		}
		sent, err := BytesToSymbols(data, bps)
		if err != nil {
			t.Fatal(err)
		}
		for _, coding := range []Coding{CodingNone, CodingRepetition, CodingHamming74} {
			if coding == CodingHamming74 && bps != 1 {
				continue
			}
			for _, preamble := range []int{0, 13} {
				p := base
				p.Coding, p.PreambleSymbols = coding, preamble
				name := fmt.Sprintf("%d-bit %v, preamble %d", bps, coding, preamble)
				res, got, err := SendBytes(&cfg, data, p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				t.Logf("%s: recovered %q, error rate %.3f", name, got, res.ErrorRate)
				recovered, err := BytesToSymbols(got, bps)
				if err != nil || len(recovered) != len(sent) {
					t.Fatalf("%s: recovered %q (%v)", name, got, err)
				}
				diff := 0
				for i := range sent {
					if recovered[i] != sent[i] {
						diff++
					}
				}
				if diff != res.SymbolErrors {
					t.Errorf("%s: recovered %q differs in %d symbols, result reports %d errors", name, got, diff, res.SymbolErrors)
				}
				if res.SymbolErrors == 0 && !bytes.Equal(got, data) {
					t.Errorf("%s: no errors reported, recovered %q", name, got)
				}
			}
		}
	}
}

func TestSendBytesValidation(t *testing.T) {
	cfg := SmallConfig()
	if _, _, err := SendBytes(&cfg, nil, ChannelParams{}); err == nil {
		t.Error("empty payload should fail")
	}
	bad := ChannelParams{BitsPerSymbol: 3}
	if _, _, err := SendBytes(&cfg, []byte{1}, bad); err == nil {
		t.Error("bad symbol width should fail")
	}
}

func TestSymbolHelpersRoundTrip(t *testing.T) {
	data := []byte{0xDE, 0xAD}
	syms, err := BytesToSymbols(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := SymbolsToBytes(syms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, back) {
		t.Errorf("round trip %v -> %v", data, back)
	}
}

func TestReverseEngineerTopology(t *testing.T) {
	cfg := SmallConfig()
	pair, groups, err := ReverseEngineerTopology(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pair != 1 {
		t.Errorf("SM0's TPC mate = SM%d, want SM1", pair)
	}
	if len(groups) != cfg.NumGPCs {
		t.Fatalf("recovered %d GPC groups: %v", len(groups), groups)
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

func TestNewGPU(t *testing.T) {
	g, err := NewGPU(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.Config().NumSMs() != 8 {
		t.Errorf("NumSMs = %d", g.Config().NumSMs())
	}
	bad := SmallConfig()
	bad.NumGPCs = 0
	if _, err := NewGPU(bad); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestVoltaConfigShape(t *testing.T) {
	cfg := VoltaConfig()
	if cfg.NumSMs() != 80 || cfg.NumTPCs() != 40 || cfg.NumGPCs != 6 {
		t.Errorf("volta topology %d/%d/%d", cfg.NumSMs(), cfg.NumTPCs(), cfg.NumGPCs)
	}
}

package core

import (
	"math/rand"
	"reflect"
	"testing"
)

func mustDefaults(t *testing.T, p Params) Params {
	t.Helper()
	p2, err := p.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

func bitsOf(pattern string) []Symbol {
	out := make([]Symbol, len(pattern))
	for i, c := range pattern {
		if c == '1' {
			out[i] = 1
		}
	}
	return out
}

func TestCodingParamValidation(t *testing.T) {
	bad := []Params{
		{Coding: CodingNone, Repeat: 3},
		{Coding: CodingRepetition, Repeat: 2},
		{Coding: CodingRepetition, Repeat: -1},
		{Coding: CodingHamming74, BitsPerSymbol: 2},
		{Coding: CodingHamming74, Repeat: 3},
		{Coding: Coding(99)},
		{PreambleSymbols: -1},
		{ResyncGuardSlots: 2}, // guard without preamble
	}
	for i, p := range bad {
		if _, err := p.withDefaults(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
	p := mustDefaults(t, Params{Coding: CodingRepetition})
	if p.Repeat != 3 {
		t.Errorf("default repetition factor = %d, want 3", p.Repeat)
	}
}

func TestCodingNoneIsIdentity(t *testing.T) {
	p := mustDefaults(t, Params{})
	data := bitsOf("1011001")
	wire := p.wireSymbols(data)
	if !reflect.DeepEqual(wire, data) {
		t.Errorf("uncoded wire %v != data %v", wire, data)
	}
	if got := p.recoverData(wire, len(data)); !reflect.DeepEqual(got, data) {
		t.Errorf("uncoded recover %v != data %v", got, data)
	}
	if p.WireLen(7) != 7 {
		t.Errorf("uncoded WireLen(7) = %d", p.WireLen(7))
	}
}

func TestRepetitionRoundTripAndCorrection(t *testing.T) {
	p := mustDefaults(t, Params{Coding: CodingRepetition, Repeat: 3})
	data := bitsOf("10110")
	wire := p.wireSymbols(data)
	if len(wire) != 15 {
		t.Fatalf("wire length %d, want 15", len(wire))
	}
	if got := p.recoverData(wire, len(data)); !reflect.DeepEqual(got, data) {
		t.Fatalf("clean round trip failed: %v", got)
	}
	// One flipped copy per symbol is always corrected. Copies are
	// interleaved, so copy 1 of symbol i sits at len(data)+i.
	for i := range data {
		corrupt := append([]Symbol(nil), wire...)
		corrupt[len(data)+i] ^= 1
		if got := p.recoverData(corrupt, len(data)); !reflect.DeepEqual(got, data) {
			t.Errorf("single error in symbol %d not corrected: %v", i, got)
		}
	}
}

func TestRepetitionMultiLevel(t *testing.T) {
	p := mustDefaults(t, Params{Coding: CodingRepetition, Repeat: 3, BitsPerSymbol: 2})
	data := []Symbol{0, 3, 1, 2}
	wire := p.wireSymbols(data)
	wire[len(data)+1] = 0 // corrupt the second copy of the 3
	if got := p.recoverData(wire, len(data)); !reflect.DeepEqual(got, data) {
		t.Errorf("multi-level majority vote failed: %v", got)
	}
}

func TestHammingRoundTripAllNibbles(t *testing.T) {
	p := mustDefaults(t, Params{Coding: CodingHamming74})
	for nibble := 0; nibble < 16; nibble++ {
		data := make([]Symbol, 4)
		for j := range data {
			data[j] = Symbol(nibble >> j & 1)
		}
		wire := p.wireSymbols(data)
		if len(wire) != 7 {
			t.Fatalf("wire length %d, want 7", len(wire))
		}
		if got := p.recoverData(wire, 4); !reflect.DeepEqual(got, data) {
			t.Fatalf("nibble %d round trip failed: sent %v got %v", nibble, data, got)
		}
		// Every single wire-bit error must be corrected.
		for b := 0; b < 7; b++ {
			corrupt := append([]Symbol(nil), wire...)
			corrupt[b] ^= 1
			if got := p.recoverData(corrupt, 4); !reflect.DeepEqual(got, data) {
				t.Errorf("nibble %d: error at wire bit %d not corrected: %v", nibble, b, got)
			}
		}
	}
}

func TestHammingPartialNibble(t *testing.T) {
	p := mustDefaults(t, Params{Coding: CodingHamming74})
	data := bitsOf("101101") // 6 bits: one full nibble + 2 padded
	wire := p.wireSymbols(data)
	if len(wire) != 14 {
		t.Fatalf("wire length %d, want 14", len(wire))
	}
	if got := p.recoverData(wire, len(data)); !reflect.DeepEqual(got, data) {
		t.Errorf("padded round trip failed: %v", got)
	}
	if p.WireLen(6) != 14 {
		t.Errorf("WireLen(6) = %d, want 14", p.WireLen(6))
	}
}

func TestHammingMinimumDistance(t *testing.T) {
	// The code is only single-error-correcting if codewords are pairwise at
	// Hamming distance >= 3.
	cw := hammingCodewords()
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			if d := popcount7(cw[i] ^ cw[j]); d < 3 {
				t.Errorf("codewords %d and %d at distance %d", i, j, d)
			}
		}
	}
}

func TestPreambleAlignment(t *testing.T) {
	p := mustDefaults(t, Params{PreambleSymbols: 8, ResyncGuardSlots: 4})
	data := bitsOf("1100101")
	wire := p.wireSymbols(data)
	if len(wire) != 8+7 {
		t.Fatalf("wire length %d, want 15", len(wire))
	}
	// A receiver that locked late sees garbage slots before the stream.
	for shift := 0; shift <= p.ResyncGuardSlots; shift++ {
		shifted := append(make([]Symbol, shift), wire...)
		if got := p.recoverData(shifted, len(data)); !reflect.DeepEqual(got, data) {
			t.Errorf("shift %d: recovered %v, want %v", shift, got, data)
		}
	}
}

func TestPreambleAlignmentUnderBitErrors(t *testing.T) {
	// Alignment must survive a few corrupted preamble slots: the correlation
	// peak at the true offset still dominates.
	p := mustDefaults(t, Params{PreambleSymbols: 16, ResyncGuardSlots: 4, Coding: CodingRepetition, Repeat: 3})
	data := bitsOf("10110")
	wire := p.wireSymbols(data)
	rng := rand.New(rand.NewSource(9))
	shifted := append([]Symbol{0, 0}, wire...)
	for k := 0; k < 3; k++ {
		shifted[2+rng.Intn(p.PreambleSymbols)] ^= 1
	}
	if got := p.recoverData(shifted, len(data)); !reflect.DeepEqual(got, data) {
		t.Errorf("noisy alignment failed: %v, want %v", got, data)
	}
}

func TestRecoverDataTruncatedStream(t *testing.T) {
	p := mustDefaults(t, Params{Coding: CodingRepetition, Repeat: 3})
	data := bitsOf("1011")
	wire := p.wireSymbols(data)
	// Copies are interleaved, so a cut mid-stream still leaves at least one
	// copy of the leading symbols: 7 wire symbols = copy 0 of everything
	// plus copy 1 of the first three, and every symbol still decodes.
	got := p.recoverData(wire[:7], len(data))
	if !reflect.DeepEqual(got, data) {
		t.Errorf("truncated recover %v, want %v", got, data)
	}
	// A cut inside copy 0 loses the trailing symbols entirely; the decoder
	// must omit them (the caller counts missing symbols as errors), not
	// fabricate values.
	got = p.recoverData(wire[:3], len(data))
	if !reflect.DeepEqual(got, data[:3]) {
		t.Errorf("hard-truncated recover %v, want %v", got, data[:3])
	}
}

func TestInterleavingCorrectsBurstErrors(t *testing.T) {
	// The whole point of interleaving the coded stream: a burst of
	// consecutive bad wire slots — the shape noise kernels and resync
	// transients produce — spreads across vote groups and codewords, so
	// each one sees at most a single error and corrects it.
	rep := mustDefaults(t, Params{Coding: CodingRepetition, Repeat: 3})
	data := bitsOf("10110100")
	wire := rep.wireSymbols(data)
	for start := 0; start+5 <= len(wire); start++ {
		corrupt := append([]Symbol(nil), wire...)
		for k := 0; k < 5; k++ {
			corrupt[start+k] ^= 1
		}
		if got := rep.recoverData(corrupt, len(data)); !reflect.DeepEqual(got, data) {
			t.Errorf("repetition: burst at %d not corrected: %v", start, got)
		}
	}
	ham := mustDefaults(t, Params{Coding: CodingHamming74})
	data = bitsOf("1011010011100101") // 4 codewords
	wire = ham.wireSymbols(data)
	for start := 0; start+4 <= len(wire); start++ {
		corrupt := append([]Symbol(nil), wire...)
		for k := 0; k < 4; k++ {
			corrupt[start+k] ^= 1
		}
		if got := ham.recoverData(corrupt, len(data)); !reflect.DeepEqual(got, data) {
			t.Errorf("hamming: burst at %d not corrected: %v", start, got)
		}
	}
}

func TestCodedTransmissionOverSmallConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full transmission")
	}
	cfg := fastCfg()
	for _, coding := range []Coding{CodingRepetition, CodingHamming74} {
		p := Params{Kind: TPCChannel, Iterations: 4, SyncPeriod: 8,
			Coding: coding, PreambleSymbols: 8, ResyncGuardSlots: 2, Seed: 5}
		p, err := Calibrate(&cfg, p, 16)
		if err != nil {
			t.Fatalf("%v: calibrate: %v", coding, err)
		}
		payload := bitsOf("1011001110001011")
		tr, err := NewTransmission(&cfg, payload, []int{0}, p)
		if err != nil {
			t.Fatalf("%v: %v", coding, err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatalf("%v: run: %v", coding, err)
		}
		if res.SymbolsSent != len(payload) {
			t.Errorf("%v: SymbolsSent %d counts wire symbols, want data symbols %d",
				coding, res.SymbolsSent, len(payload))
		}
		if res.ErrorRate > 0.05 {
			t.Errorf("%v: quiet-GPU coded error rate %.3f, want ~0", coding, res.ErrorRate)
		}
	}
}

package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if TPCChannel.String() != "TPC" || GPCChannel.String() != "GPC" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind name wrong")
	}
}

func TestWithDefaults(t *testing.T) {
	p, err := Params{Kind: TPCChannel}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p.Iterations != 4 || p.SenderWarps != 5 || p.BitsPerSymbol != 1 {
		t.Errorf("TPC defaults = %+v", p)
	}
	if p.SlotCycles == 0 || p.syncModulus() < 2*p.SlotCycles || p.initModulus() < max(p.syncModulus(), 1<<16) {
		t.Errorf("derived timing wrong: %+v", p)
	}
	if m := p.syncModulus(); m&(m-1) != 0 {
		t.Errorf("sync modulus %d not a power of two", m)
	}
	g, err := Params{Kind: GPCChannel}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if g.SenderWarps != 8 {
		t.Errorf("GPC default warps = %d, want 8 (paper §4.5)", g.SenderWarps)
	}
	if g.SlotCycles <= p.SlotCycles {
		t.Error("GPC slot should exceed TPC slot (paper: higher T)")
	}
}

func TestWithDefaultsValidation(t *testing.T) {
	bad := []Params{
		{BitsPerSymbol: 3},
		{Iterations: -1},
		{SenderWarps: -2},
		{SyncPeriod: -1},
		{BitsPerSymbol: 2, Thresholds: []float64{250}},           // need 3 cutpoints
		{BitsPerSymbol: 2, Thresholds: []float64{250, 240, 260}}, // not increasing
	}
	for i, p := range bad {
		if _, err := p.withDefaults(); err == nil {
			t.Errorf("case %d should fail: %+v", i, p)
		}
	}
}

// TestLevelLanes pins the §5 multi-level mapping: 0/8/16/32 unique requests
// for the 2-bit channel; 0/32 for binary.
func TestLevelLanes(t *testing.T) {
	p2 := Params{BitsPerSymbol: 2}
	for sym, want := range map[int]int{0: 0, 1: 10, 2: 21, 3: 32} {
		if got := p2.LevelLanes(sym, 32); got != want {
			t.Errorf("2-bit LevelLanes(%d) = %d, want %d", sym, got, want)
		}
	}
	p1 := Params{BitsPerSymbol: 1}
	if p1.LevelLanes(0, 32) != 0 || p1.LevelLanes(1, 32) != 32 {
		t.Error("binary lanes wrong")
	}
	// Out-of-range symbols clamp.
	if p1.LevelLanes(7, 32) != 32 {
		t.Error("clamping failed")
	}
	// Fig 13: coalesced sender always emits a single request.
	pc := Params{BitsPerSymbol: 1, SenderCoalesced: true}
	if pc.LevelLanes(1, 32) != 1 {
		t.Error("coalesced sender should use one lane")
	}
}

func TestDefaultSlotMonotone(t *testing.T) {
	for _, k := range []Kind{TPCChannel, GPCChannel} {
		prev := uint64(0)
		for it := 1; it <= 5; it++ {
			s := DefaultSlot(k, it)
			if s <= prev {
				t.Fatalf("%v slot not increasing at iter %d", k, it)
			}
			prev = s
		}
	}
}

func TestOpShare(t *testing.T) {
	// 4 ops over 5 warps: first four warps take one each.
	got := []int{}
	for w := 0; w < 6; w++ {
		got = append(got, opShare(4, 5, w))
	}
	want := []int{1, 1, 1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("opShare = %v, want %v", got, want)
		}
	}
}

// Property: opShare partitions the op budget exactly.
func TestQuickOpSharePartition(t *testing.T) {
	f := func(totalRaw, warpsRaw uint8) bool {
		total := int(totalRaw % 64)
		warps := int(warpsRaw%16) + 1
		sum := 0
		for w := 0; w < warps; w++ {
			n := opShare(total, warps, w)
			if n < 0 {
				return false
			}
			sum += n
		}
		return sum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: defaults are idempotent — applying them twice changes nothing.
func TestQuickDefaultsIdempotent(t *testing.T) {
	f := func(iterRaw, warpRaw uint8, gpc bool) bool {
		p := Params{Iterations: int(iterRaw%6) + 1, SenderWarps: int(warpRaw%8) + 1}
		if gpc {
			p.Kind = GPCChannel
		}
		a, err := p.withDefaults()
		if err != nil {
			return false
		}
		b, err := a.withDefaults()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

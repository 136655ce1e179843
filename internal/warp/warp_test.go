package warp

import (
	"testing"
	"testing/quick"
)

func TestCoalesceValidation(t *testing.T) {
	op := CoalescedOp(0, false)
	if _, err := Coalesce(nil, op, 0, 32); err == nil {
		t.Error("zero SIMT width should fail")
	}
	if _, err := Coalesce(nil, op, 32, 48); err == nil {
		t.Error("non-power-of-two line should fail")
	}
	bad := op
	bad.Lanes = 64
	if _, err := Coalesce(nil, bad, 32, 32); err == nil {
		t.Error("too many lanes should fail")
	}
	bad.Lanes = -2
	if _, err := Coalesce(nil, bad, 32, 32); err == nil {
		t.Error("negative lanes should fail")
	}
	none := op
	none.Lanes = LanesNone
	if lines, err := Coalesce(nil, none, 32, 32); err != nil || len(lines) != 0 {
		t.Errorf("LanesNone = %v, %v; want empty", lines, err)
	}
}

// TestFullyCoalesced pins §5: stride 0 (or small strides within one line)
// produce exactly one request per warp.
func TestFullyCoalesced(t *testing.T) {
	lines, err := Coalesce(nil, CoalescedOp(0x1000, true), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Errorf("coalesced op = %v, want [0x1000]", lines)
	}
}

// TestFullyUncoalesced pins §5: a line-stride op produces 32 requests, one
// per lane, on consecutive lines.
func TestFullyUncoalesced(t *testing.T) {
	lines, err := Coalesce(nil, UncoalescedOp(0x2000, false, 32), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 32 {
		t.Fatalf("uncoalesced op produced %d lines, want 32", len(lines))
	}
	for i, la := range lines {
		if want := uint64(0x2000 + i*32); la != want {
			t.Fatalf("line %d = %#x, want %#x", i, la, want)
		}
	}
}

// TestWordStrideCoalescing: 4-byte strides over 32-byte lines pack 8 lanes
// per line, giving 4 requests.
func TestWordStrideCoalescing(t *testing.T) {
	op := MemOp{Base: 0, StrideBytes: 4}
	lines, err := Coalesce(nil, op, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Errorf("4-byte stride = %d lines, want 4", len(lines))
	}
}

// TestPartialOp covers the multi-level channel request counts (0/8/16/32).
func TestPartialOp(t *testing.T) {
	for _, n := range []int{0, 8, 16, 32} {
		op, err := PartialOp(0, true, 32, n, 32)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := Coalesce(nil, op, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != n {
			t.Errorf("PartialOp(%d) = %d lines", n, len(lines))
		}
	}
	if _, err := PartialOp(0, true, 32, 33, 32); err == nil {
		t.Error("uniqueLines > SIMT width should fail")
	}
	if _, err := PartialOp(0, true, 32, -1, 32); err == nil {
		t.Error("negative uniqueLines should fail")
	}
}

func TestUnalignedBaseStillLineAligned(t *testing.T) {
	op := MemOp{Base: 0x1007, StrideBytes: 32}
	lines, err := Coalesce(nil, op, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range lines {
		if la%32 != 0 {
			t.Fatalf("line %#x not aligned", la)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Ready: "ready", WaitingMem: "waiting-mem", WaitingCycle: "waiting-cycle",
		Finished: "finished", State(7): "State(7)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// Property: the coalescer never emits more lines than active lanes, never
// more than lanes distinct lines exist, all results are line-aligned and
// unique.
func TestQuickCoalesceInvariants(t *testing.T) {
	f := func(base uint64, stride uint16, lanesRaw uint8) bool {
		lanes := int(lanesRaw) % 33
		if lanes == 0 {
			lanes = 32
		}
		op := MemOp{Base: base % (1 << 40), StrideBytes: uint64(stride), Lanes: lanes}
		lines, err := Coalesce(nil, op, 32, 32)
		if err != nil {
			return false
		}
		if len(lines) > lanes {
			return false
		}
		seen := make(map[uint64]bool)
		for _, la := range lines {
			if la%32 != 0 || seen[la] {
				return false
			}
			seen[la] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: line-stride ops always produce exactly one line per active lane.
func TestQuickLineStrideBijective(t *testing.T) {
	f := func(base uint64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%32 + 1
		op := MemOp{Base: base % (1 << 40), StrideBytes: 32, Lanes: lanes}
		lines, err := Coalesce(nil, op, 32, 32)
		return err == nil && len(lines) == lanes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Coalesce emits exactly the distinct lines of the active lanes in
// first-lane order, and appending into a reused buffer leaves its existing
// prefix alone and dedups only among the new lines.
func TestQuickCoalesceMatchesLaneOrder(t *testing.T) {
	buf := []uint64{0x40}
	f := func(base uint64, stride uint16, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%32 + 1
		op := MemOp{Base: base % (1 << 40), StrideBytes: uint64(stride) % 97, Lanes: lanes}
		var want []uint64
		seen := make(map[uint64]bool)
		for lane := 0; lane < lanes; lane++ {
			la := (op.Base + uint64(lane)*op.StrideBytes) &^ 31
			if !seen[la] {
				seen[la] = true
				want = append(want, la)
			}
		}
		got, err := Coalesce(buf[:1], op, 32, 32)
		if err != nil || len(got) != 1+len(want) || got[0] != 0x40 {
			return false
		}
		for i, la := range want {
			if got[1+i] != la {
				return false
			}
		}
		buf = got
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCoalesceIntoReusedBufferAllocatesNothing pins the SM's scratch-buffer
// contract: once the buffer has grown to a warp's worth of lines, coalescing
// into it allocates nothing.
func TestCoalesceIntoReusedBufferAllocatesNothing(t *testing.T) {
	op := UncoalescedOp(0x2000, false, 32)
	buf, err := Coalesce(nil, op, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = Coalesce(buf[:0], op, 32, 32)
	})
	if allocs != 0 {
		t.Errorf("Coalesce into a reused buffer made %v allocations, want 0", allocs)
	}
}

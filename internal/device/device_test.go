package device

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/warp"
)

func TestOpConstructors(t *testing.T) {
	m := Mem(warp.CoalescedOp(0x10, true))
	if m.Kind != OpMem || !m.Mem.Write {
		t.Errorf("Mem op = %+v", m)
	}
	w := Wait(7)
	if w.Kind != OpWait || w.Cycles != 7 {
		t.Errorf("Wait op = %+v", w)
	}
	s := SyncClock(1024, 1030)
	if s.Kind != OpSyncClock || s.Modulus != 1024 || s.Phase != 6 {
		t.Errorf("SyncClock op = %+v (phase must be reduced mod modulus)", s)
	}
	d := Done()
	if d.Kind != OpDone {
		t.Errorf("Done op = %+v", d)
	}
}

func TestKernelSpecValidate(t *testing.T) {
	ok := KernelSpec{Name: "k", Blocks: 1, WarpsPerBlock: 1, New: func(int, int) Program { return &ClockReader{} }}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*KernelSpec){
		func(k *KernelSpec) { k.Blocks = 0 },
		func(k *KernelSpec) { k.WarpsPerBlock = -1 },
		func(k *KernelSpec) { k.New = nil },
	} {
		bad := ok
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Error("invalid spec accepted")
		}
	}
}

func drive(p Program, maxSteps int) []Op {
	var ops []Op
	ctx := &Ctx{}
	for i := 0; i < maxSteps; i++ {
		op := p.Step(ctx)
		ops = append(ops, op)
		if op.Kind == OpDone {
			break
		}
		if op.Kind == OpMem {
			ctx.LastLatency = 100 // pretend the op took 100 cycles
		}
	}
	return ops
}

func TestStreamerSequentialAddresses(t *testing.T) {
	s := &Streamer{Base: 0x1000, LineBytes: 32, Write: true, Count: 3, Uncoalesced: true}
	ops := drive(s, 10)
	if len(ops) != 4 || ops[3].Kind != OpDone {
		t.Fatalf("ops = %v", ops)
	}
	for i := 0; i < 3; i++ {
		if ops[i].Kind != OpMem || !ops[i].Mem.Write {
			t.Fatalf("op %d = %+v", i, ops[i])
		}
		want := uint64(0x1000 + i*32*32)
		if ops[i].Mem.Base != want {
			t.Errorf("op %d base = %#x, want %#x", i, ops[i].Mem.Base, want)
		}
	}
	if s.Issued() != 3 {
		t.Errorf("Issued = %d", s.Issued())
	}
	// Latencies recorded for all but the op awaiting completion.
	if len(s.Latencies) != 3 {
		t.Errorf("latencies = %v", s.Latencies)
	}
}

func TestStreamerWrap(t *testing.T) {
	s := &Streamer{Base: 0, LineBytes: 32, Count: 4, WrapBytes: 64}
	ops := drive(s, 10)
	bases := []uint64{}
	for _, op := range ops {
		if op.Kind == OpMem {
			bases = append(bases, op.Mem.Base)
		}
	}
	want := []uint64{0, 32, 0, 32}
	for i := range want {
		if bases[i] != want[i] {
			t.Fatalf("bases = %v, want %v", bases, want)
		}
	}
}

func TestStreamerStartDelay(t *testing.T) {
	s := &Streamer{Base: 0, LineBytes: 32, Count: 1, StartDelay: 50}
	ops := drive(s, 10)
	if ops[0].Kind != OpWait || ops[0].Cycles != 50 {
		t.Fatalf("first op = %+v, want Wait(50)", ops[0])
	}
	if ops[1].Kind != OpMem {
		t.Fatalf("second op = %+v", ops[1])
	}
}

func TestStreamerAtomic(t *testing.T) {
	s := &Streamer{Base: 0, LineBytes: 32, Atomic: true, Count: 1}
	ops := drive(s, 5)
	if ops[0].Kind != OpMem || !ops[0].Mem.Atomic {
		t.Fatalf("atomic op = %+v", ops[0])
	}
}

func TestClockReader(t *testing.T) {
	c := &ClockReader{}
	ctx := &Ctx{SMID: 7, Clock: 12345}
	if op := c.Step(ctx); op.Kind != OpDone {
		t.Fatalf("op = %+v", op)
	}
	if c.Value != 12345 || c.SMID != 7 {
		t.Errorf("reader captured %d/%d", c.Value, c.SMID)
	}
	// Second step keeps the first reading.
	ctx.Clock = 99
	c.Step(ctx)
	if c.Value != 12345 {
		t.Error("second step overwrote reading")
	}
}

func TestComputeLoop(t *testing.T) {
	c := &ComputeLoop{Count: 3, IterCost: 10}
	ops := drive(c, 10)
	if len(ops) != 4 || ops[3].Kind != OpDone {
		t.Fatalf("ops = %v", ops)
	}
	for i := 0; i < 3; i++ {
		if ops[i].Kind != OpWait || ops[i].Cycles != 10 {
			t.Fatalf("op %d = %+v", i, ops[i])
		}
	}
	// Zero IterCost defaults to a small positive cost (no zero-length spins).
	d := &ComputeLoop{Count: 1}
	if op := d.Step(&Ctx{}); op.Kind != OpWait || op.Cycles == 0 {
		t.Errorf("default iter cost op = %+v", op)
	}
}

func TestStepFunc(t *testing.T) {
	called := false
	p := StepFunc(func(ctx *Ctx) Op { called = true; return Done() })
	if op := p.Step(&Ctx{}); op.Kind != OpDone || !called {
		t.Error("StepFunc did not delegate")
	}
}

// Property: a Streamer always terminates after exactly Count memory ops
// regardless of parameters, and all op bases stay within [Base, Base+Wrap).
func TestQuickStreamerTermination(t *testing.T) {
	f := func(countRaw, wrapRaw uint8, write, unco bool) bool {
		count := int(countRaw % 50)
		wrap := uint64(wrapRaw%8+1) * 1024
		s := &Streamer{Base: 4096, LineBytes: 32, Write: write, Count: count, Uncoalesced: unco, WrapBytes: wrap}
		ops := drive(s, count+5)
		memOps := 0
		for _, op := range ops {
			if op.Kind == OpMem {
				memOps++
				if op.Mem.Base < 4096 || op.Mem.Base >= 4096+wrap {
					return false
				}
			}
		}
		return memOps == count && ops[len(ops)-1].Kind == OpDone
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package sm

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/clockreg"
	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/packet"
	"gpunoc/internal/warp"
)

type injCapture struct {
	pkts  []*packet.Packet
	times []uint64
}

func (c *injCapture) inject(now uint64, p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, now)
}

func testCfg() config.Config {
	c := config.Small()
	c.WarpIssueJitter = 0 // deterministic warp starts for unit tests
	return c
}

func mkSM(t *testing.T, cfg *config.Config) (*SM, *injCapture) {
	t.Helper()
	b, err := clockreg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c injCapture
	s, err := New(0, cfg, b, c.inject)
	if err != nil {
		t.Fatal(err)
	}
	return s, &c
}

func TestNewValidation(t *testing.T) {
	cfg := testCfg()
	b, err := clockreg.New(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, &cfg, b, nil); err == nil {
		t.Error("nil inject should fail")
	}
	if _, err := New(0, &cfg, nil, func(uint64, *packet.Packet) {}); err == nil {
		t.Error("nil clock bank should fail")
	}
	if _, err := New(cfg.NumSMs(), &cfg, b, func(uint64, *packet.Packet) {}); err == nil {
		t.Error("out-of-range id should fail")
	}
}

func TestAddWarpLimits(t *testing.T) {
	cfg := testCfg()
	cfg.MaxWarpsPerSM = 2
	s, _ := mkSM(t, &cfg)
	if err := s.AddWarp(0, 0, 0, 0, nil); err == nil {
		t.Error("nil program should fail")
	}
	for i := 0; i < 2; i++ {
		if err := s.AddWarp(0, 0, 0, i, &device.ClockReader{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddWarp(0, 0, 0, 2, &device.ClockReader{}); err == nil {
		t.Error("exceeding warp slots should fail")
	}
}

// TestUncoalescedWriteGeneratesPackets: one streamer op emits 32 write
// packets tagged with the warp's op sequence, injected one per cycle.
func TestUncoalescedWriteGeneratesPackets(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	prog := &device.Streamer{Base: 0, LineBytes: cfg.L2LineBytes, Write: true, Count: 1, Uncoalesced: true}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); now < 200; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 32 {
		t.Fatalf("injected %d packets, want 32", len(c.pkts))
	}
	for i, p := range c.pkts {
		if p.Kind != packet.WriteReq {
			t.Fatalf("packet %d kind %v", i, p.Kind)
		}
		if p.Tag.SM != 0 || p.Tag.Op != 1 {
			t.Fatalf("packet %d tag %+v", i, p.Tag)
		}
	}
	// One packet per inject period.
	period := uint64(cfg.NoC.LSUInjectPeriod)
	for i := 1; i < len(c.times); i++ {
		if c.times[i] != c.times[i-1]+period {
			t.Fatalf("injection times not 1/period: %v", c.times[:i+1])
		}
	}
}

// TestOpLatencyMeasured: completing all replies readies the warp and stores
// the op latency.
func TestOpLatencyMeasured(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	prog := &device.Streamer{Base: 0, LineBytes: cfg.L2LineBytes, Write: false, Count: 2, Uncoalesced: true}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for ; now < 160; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 32 {
		t.Fatalf("%d packets", len(c.pkts))
	}
	// Reply to every packet at cycle 300.
	for _, p := range c.pkts {
		rep := *p
		rep.Kind = packet.ReadReply
		s.OnReply(300, &rep)
	}
	// Warp should be ready and issue op 2 next tick; latency = 300 - opStart.
	for ; now < 500; now++ {
		s.Tick(now)
	}
	if len(prog.Latencies) != 1 {
		t.Fatalf("latencies = %v", prog.Latencies)
	}
	// Op started at the step cycle (1: warps wake at now+1), so ~299.
	if prog.Latencies[0] < 290 || prog.Latencies[0] > 300 {
		t.Errorf("latency = %d, want ~299", prog.Latencies[0])
	}
	if st := s.Stats(); st.OpsCompleted != 1 || st.Replies != 32 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLSUQueueDepthBound: outstanding requests never exceed the budget.
func TestLSUQueueDepthBound(t *testing.T) {
	cfg := testCfg()
	cfg.LSUQueueDepth = 8
	s, c := mkSM(t, &cfg)
	prog := &device.Streamer{Base: 0, LineBytes: cfg.L2LineBytes, Write: true, Count: 4, Uncoalesced: true}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); now < 200; now++ {
		s.Tick(now)
	}
	// No replies delivered: injection must stop at exactly 8 packets.
	if len(c.pkts) != 8 {
		t.Errorf("injected %d packets with depth 8 and no replies", len(c.pkts))
	}
}

// TestSyncClockAlignment: a warp synchronizing on clock % M == 0 wakes at a
// cycle where its clock register is congruent to 0.
func TestSyncClockAlignment(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	var wokeClock uint64
	steps := 0
	prog := device.StepFunc(func(ctx *device.Ctx) device.Op {
		steps++
		switch steps {
		case 1:
			return device.SyncClock(1024, 0)
		case 2:
			wokeClock = ctx.Clock64
			return device.Mem(warp.UncoalescedOp(0, true, cfg.L2LineBytes))
		default:
			return device.Done()
		}
	})
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); now < 3000 && len(c.pkts) == 0; now++ {
		s.Tick(now)
	}
	if steps < 2 {
		t.Fatal("warp never woke from sync")
	}
	if wokeClock%1024 != 0 {
		t.Errorf("woke with clock %d (mod 1024 = %d), want aligned", wokeClock, wokeClock%1024)
	}
}

// TestRoundRobinFairness: two always-ready warps issue alternately.
func TestRoundRobinFairness(t *testing.T) {
	cfg := testCfg()
	s, _ := mkSM(t, &cfg)
	var order []int
	mk := func(id int) device.Program {
		return device.StepFunc(func(ctx *device.Ctx) device.Op {
			order = append(order, id)
			return device.Wait(1)
		})
	}
	if err := s.AddWarp(0, 0, 0, 0, mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWarp(0, 0, 0, 1, mk(1)); err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); now < 20; now++ {
		s.Tick(now)
	}
	if len(order) < 8 {
		t.Fatalf("only %d steps", len(order))
	}
	c0, c1 := 0, 0
	for _, id := range order {
		if id == 0 {
			c0++
		} else {
			c1++
		}
	}
	if diff := c0 - c1; diff < -2 || diff > 2 {
		t.Errorf("unfair scheduling: %d vs %d", c0, c1)
	}
}

func TestRunningWarpsAndReclaim(t *testing.T) {
	cfg := testCfg()
	s, _ := mkSM(t, &cfg)
	if err := s.AddWarp(0, 3, 0, 0, &device.ClockReader{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWarp(0, 4, 0, 0, &device.ComputeLoop{Count: 1000}); err != nil {
		t.Fatal(err)
	}
	if s.RunningWarps(-1) != 2 || s.RunningWarps(3) != 1 {
		t.Fatal("running warp counts wrong at launch")
	}
	for now := uint64(0); now < 50; now++ {
		s.Tick(now)
	}
	if s.RunningWarps(3) != 0 {
		t.Error("clock reader should have finished")
	}
	if s.RunningWarps(4) != 1 {
		t.Error("compute loop should still run")
	}
	s.ReclaimFinished()
	if s.RunningWarps(-1) != 1 {
		t.Error("reclaim lost the running warp")
	}
}

func TestOnReplyPanicsOnWrongSM(t *testing.T) {
	cfg := testCfg()
	s, _ := mkSM(t, &cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.OnReply(0, &packet.Packet{Tag: packet.WarpTag{SM: 5}})
}

// TestRepliesRecycleAndReleasedPacketsPanic pins the packet lifecycle at
// the SM: OnReply poisons each reply and keeps it for the SM's next
// requests, and a released packet handed back to OnReply panics.
func TestRepliesRecycleAndReleasedPacketsPanic(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	prog := &device.Streamer{LineBytes: cfg.L2LineBytes, Count: 2, Uncoalesced: true}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for ; now < 160; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 32 {
		t.Fatalf("%d packets", len(c.pkts))
	}
	first := map[*packet.Packet]bool{}
	for _, p := range c.pkts {
		first[p] = true
		p.Kind = packet.ReadReply // what the slice does in place
		s.OnReply(300, p)
		if p.Kind != packet.Released || p.Tag.SM != -1 {
			t.Fatalf("released packet not poisoned: %v", p)
		}
	}
	for ; now < 500; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 64 {
		t.Fatalf("%d packets after the second op", len(c.pkts))
	}
	for _, p := range c.pkts[32:] {
		if !first[p] {
			t.Fatal("second op allocated a packet instead of reusing a released one")
		}
		if p.Kind != packet.ReadReq || p.Tag.SM != 0 || p.Tag.Op != 2 {
			t.Fatalf("recycled packet not reset: %v", p)
		}
	}
	for _, p := range c.pkts[32:] {
		p.Kind = packet.ReadReply
		s.OnReply(600, p)
	}
	defer func() {
		if recover() == nil {
			t.Error("a released packet handed back to OnReply must panic")
		}
	}()
	s.OnReply(700, c.pkts[0])
}

func TestIdle(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	if !s.Idle() {
		t.Error("fresh SM should be idle")
	}
	prog := &device.Streamer{Base: 0, LineBytes: cfg.L2LineBytes, Write: true, Count: 1, Uncoalesced: true}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	if s.Idle() {
		t.Error("SM with unfinished warp should not be idle")
	}
	for now := uint64(0); now < 100; now++ {
		s.Tick(now)
	}
	for _, p := range c.pkts {
		rep := *p
		rep.Kind = packet.WriteReply
		s.OnReply(200, &rep)
	}
	for now := uint64(201); now < 260; now++ {
		s.Tick(now)
	}
	if !s.Idle() {
		t.Error("SM should be idle after program completion")
	}
}

// Property: injection order preserves generation order and timestamps are
// monotonically non-decreasing; outstanding never exceeds the LSU budget.
func TestQuickInjectionDiscipline(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) > 4 {
			counts = counts[:4]
		}
		cfg := testCfg()
		cfg.LSUQueueDepth = 16
		b, err := clockreg.New(&cfg)
		if err != nil {
			return false
		}
		var inj injCapture
		s, err := New(0, &cfg, b, inj.inject)
		if err != nil {
			return false
		}
		for w, n := range counts {
			prog := &device.Streamer{Base: uint64(w) << 20, LineBytes: cfg.L2LineBytes,
				Write: w%2 == 0, Count: int(n % 4), Uncoalesced: true}
			if err := s.AddWarp(0, 0, 0, w, prog); err != nil {
				return false
			}
		}
		outstanding := 0
		for now := uint64(0); now < 2000; now++ {
			before := len(inj.pkts)
			s.Tick(now)
			outstanding += len(inj.pkts) - before
			if outstanding > cfg.LSUQueueDepth {
				return false
			}
			// Ack everything periodically so the run drains.
			if now%64 == 63 {
				for _, p := range inj.pkts[len(inj.pkts)-outstanding:] {
					rep := *p
					rk, err := packet.ReplyKind(p.Kind)
					if err != nil {
						return false
					}
					rep.Kind = rk
					s.OnReply(now, &rep)
				}
				outstanding = 0
			}
		}
		for i := 1; i < len(inj.times); i++ {
			if inj.times[i] < inj.times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestL1HitCompletesLocally: a repeated non-bypass load is served by the L1
// after the first fill, completing faster and without new NoC packets.
func TestL1HitCompletesLocally(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	latencies := []uint64{}
	ops := 0
	prog := device.StepFunc(func(ctx *device.Ctx) device.Op {
		if ops > 0 && ctx.LastLatency > 0 {
			latencies = append(latencies, ctx.LastLatency)
		}
		if ops >= 2 {
			return device.Done()
		}
		ops++
		m := warp.CoalescedOp(0x100, false)
		m.BypassL1 = false
		return device.Mem(m)
	})
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	var now uint64
	for ; now < 50 && len(c.pkts) == 0; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 1 {
		t.Fatalf("first load injected %d packets", len(c.pkts))
	}
	// Reply to the miss; the fill should make the second load a local hit.
	rep := *c.pkts[0]
	rep.Kind = packet.ReadReply
	s.OnReply(now+100, &rep)
	for end := now + 400; now < end; now++ {
		s.Tick(now)
	}
	if len(c.pkts) != 1 {
		t.Errorf("second load went to the NoC (%d packets total)", len(c.pkts))
	}
	if len(latencies) != 2 {
		t.Fatalf("latencies = %v", latencies)
	}
	if latencies[1] >= latencies[0] {
		t.Errorf("L1 hit (%d) not faster than miss (%d)", latencies[1], latencies[0])
	}
	if !s.L1().Probe(0x100) {
		t.Error("line not resident in L1 after fill")
	}
}

// TestBypassL1SkipsCache: -dlcm=cg loads never populate or consult the L1.
func TestBypassL1SkipsCache(t *testing.T) {
	cfg := testCfg()
	s, c := mkSM(t, &cfg)
	prog := &device.Streamer{Base: 0x200, LineBytes: cfg.L2LineBytes, Count: 2, Uncoalesced: false}
	if err := s.AddWarp(0, 0, 0, 0, prog); err != nil {
		t.Fatal(err)
	}
	var now uint64
	for ; now < 200; now++ {
		s.Tick(now)
		for len(c.pkts) > 0 {
			p := c.pkts[0]
			c.pkts = c.pkts[1:]
			rep := *p
			rep.Kind = packet.ReadReply
			s.OnReply(now+1, &rep)
		}
	}
	if s.L1().Probe(0x200) {
		t.Error("bypass load populated the L1")
	}
}

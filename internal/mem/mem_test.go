package mem

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/config"
	"gpunoc/internal/packet"
)

type sink struct {
	pkts  []*packet.Packet
	times []uint64
}

func (s *sink) deliver(now uint64, p *packet.Packet) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, now)
}

func smallCfg() config.Config {
	c := config.Small()
	c.L2ServiceJitter = 0 // deterministic latency for unit tests
	return c
}

func mkPartition(t *testing.T, cfg config.Config) (*Partition, *sink) {
	t.Helper()
	var s sink
	p, err := NewPartition(&cfg, s.deliver)
	if err != nil {
		t.Fatal(err)
	}
	return p, &s
}

func req(id uint64, kind packet.Kind, addr uint64, slice int) *packet.Packet {
	return &packet.Packet{ID: id, Kind: kind, Addr: addr, Slice: slice, Tag: packet.WarpTag{SM: 0, Warp: 0, Op: id}}
}

func runUntilIdle(p *Partition, start uint64) uint64 {
	now := start
	for ; !p.Idle(); now++ {
		p.Tick(now)
	}
	return now
}

func TestNewPartitionValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := NewPartition(&cfg, nil); err == nil {
		t.Error("nil sink should fail")
	}
	bad := cfg
	bad.NumMCs = 3
	if _, err := NewPartition(&bad, func(uint64, *packet.Packet) {}); err == nil {
		t.Error("invalid config should fail")
	}
	p, _ := mkPartition(t, cfg)
	if p.NumSlices() != cfg.NumL2Slices {
		t.Errorf("NumSlices = %d", p.NumSlices())
	}
}

func TestSliceForInterleaving(t *testing.T) {
	cfg := smallCfg()
	p, _ := mkPartition(t, cfg)
	line := uint64(cfg.L2LineBytes)
	// Consecutive lines hit consecutive slices, wrapping around.
	for i := uint64(0); i < uint64(cfg.NumL2Slices)*2; i++ {
		want := int(i % uint64(cfg.NumL2Slices))
		if got := p.SliceFor(i * line); got != want {
			t.Fatalf("SliceFor(line %d) = %d, want %d", i, got, want)
		}
	}
	// Within one line, same slice.
	if p.SliceFor(0) != p.SliceFor(line-1) {
		t.Error("addresses within a line must map to one slice")
	}
}

// TestPreloadedHitLatency pins the L2 hit service time for a preloaded line.
func TestPreloadedHitLatency(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 4096)
	pk := req(1, packet.ReadReq, 64, p.SliceFor(64))
	p.Accept(10, pk)
	runUntilIdle(p, 10)
	if len(s.pkts) != 1 {
		t.Fatal("no reply")
	}
	if s.pkts[0].Kind != packet.ReadReply {
		t.Errorf("reply kind = %v", s.pkts[0].Kind)
	}
	// Serviced at cycle 10, reply scheduled at 10+hitLatency.
	want := uint64(10 + cfg.L2HitLatency)
	if s.times[0] != want {
		t.Errorf("reply at %d, want %d", s.times[0], want)
	}
}

// TestMissSlowerThanHit verifies a cold access pays DRAM latency.
func TestMissSlowerThanHit(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 64) // line 0 warm; line at 1MB cold
	p.Accept(0, req(1, packet.ReadReq, 0, p.SliceFor(0)))
	p.Accept(0, req(2, packet.ReadReq, 1<<20, p.SliceFor(1<<20)))
	runUntilIdle(p, 0)
	if len(s.pkts) != 2 {
		t.Fatalf("%d replies", len(s.pkts))
	}
	var hitAt, missAt uint64
	for i, pk := range s.pkts {
		if pk.ID == 1 {
			hitAt = s.times[i]
		} else {
			missAt = s.times[i]
		}
	}
	if missAt <= hitAt+10 {
		t.Errorf("miss (%d) should be much slower than hit (%d)", missAt, hitAt)
	}
}

func TestWriteReplyKind(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 4096)
	p.Accept(0, req(1, packet.WriteReq, 128, p.SliceFor(128)))
	runUntilIdle(p, 0)
	if len(s.pkts) != 1 || s.pkts[0].Kind != packet.WriteReply {
		t.Fatalf("reply = %v", s.pkts)
	}
}

func TestAtomicSlowerThanRead(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 4096)
	p.Accept(0, req(1, packet.AtomicReq, 64, p.SliceFor(64)))
	runUntilIdle(p, 0)
	if len(s.pkts) != 1 || s.pkts[0].Kind != packet.AtomicReply {
		t.Fatalf("reply = %v", s.pkts)
	}
	if s.times[0] <= uint64(cfg.L2HitLatency) {
		t.Errorf("atomic at %d should exceed plain hit latency %d", s.times[0], cfg.L2HitLatency)
	}
}

// TestMergedMissSingleFetch: two requests to one cold line trigger one DRAM
// fetch but two replies.
func TestMergedMissSingleFetch(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	addr := uint64(1 << 20)
	sl := p.SliceFor(addr)
	p.Accept(0, req(1, packet.ReadReq, addr, sl))
	p.Accept(0, req(2, packet.ReadReq, addr+4, sl))
	runUntilIdle(p, 0)
	if len(s.pkts) != 2 {
		t.Fatalf("%d replies, want 2", len(s.pkts))
	}
	st := p.Slice(sl).Stats()
	if st.Misses != 2 {
		t.Errorf("miss counter = %d, want 2 (one real, one merged)", st.Misses)
	}
}

// TestSliceServiceRate: a slice services at most one request per cycle, so
// n hits drain in ~n cycles plus the pipeline depth.
func TestSliceServiceRate(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 1<<16)
	sl := 0
	line := uint64(cfg.L2LineBytes)
	n := 50
	for i := 0; i < n; i++ {
		// Same slice: stride by numSlices lines.
		addr := uint64(i) * line * uint64(cfg.NumL2Slices)
		p.Accept(0, req(uint64(i), packet.ReadReq, addr, sl))
	}
	end := runUntilIdle(p, 0)
	if len(s.pkts) != n {
		t.Fatalf("%d replies", len(s.pkts))
	}
	lo := uint64(n + cfg.L2HitLatency - 2)
	hi := uint64(n + cfg.L2HitLatency + 4)
	if end < lo || end > hi {
		t.Errorf("drain took %d cycles, want in [%d, %d]", end, lo, hi)
	}
}

func TestAcceptPanicsOnMisrouted(t *testing.T) {
	cfg := smallCfg()
	p, _ := mkPartition(t, cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on misrouted packet")
		}
	}()
	p.Accept(0, req(1, packet.ReadReq, 0, p.SliceFor(0)+1))
}

func TestAcceptPanicsOnReplyPacket(t *testing.T) {
	cfg := smallCfg()
	p, _ := mkPartition(t, cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on reply packet at slice ingress")
		}
	}()
	p.Slice(0).Accept(0, &packet.Packet{Kind: packet.ReadReply})
}

// TestAcceptPanicsOnReleasedPacket: a packet already released onto an SM's
// free list is poisoned, so a slice refuses it.
func TestAcceptPanicsOnReleasedPacket(t *testing.T) {
	cfg := smallCfg()
	p, _ := mkPartition(t, cfg)
	pk := req(1, packet.ReadReq, 0, p.SliceFor(0))
	pk.Release()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on a released packet at slice ingress")
		}
	}()
	p.Slice(pk.Slice).Accept(0, pk)
}

// TestReplyIsRequestInPlace pins the slice's half of the packet lifecycle:
// the reply that leaves the slice is the accepted request itself, with only
// its Kind changed.
func TestReplyIsRequestInPlace(t *testing.T) {
	cfg := smallCfg()
	p, s := mkPartition(t, cfg)
	p.Preload(0, 4096)
	pk := req(7, packet.WriteReq, 64, p.SliceFor(64))
	pk.IssueCycle, pk.SrcSM, pk.BypassL1 = 3, 2, true
	want := *pk
	want.Kind = packet.WriteReply
	p.Accept(10, pk)
	runUntilIdle(p, 10)
	if len(s.pkts) != 1 || s.pkts[0] != pk {
		t.Fatalf("replies %v, want the request packet itself", s.pkts)
	}
	if *pk != want {
		t.Errorf("reply = %+v, want %+v", *pk, want)
	}
}

// Property: every accepted request eventually produces exactly one reply of
// the matching kind, under random mixes of reads/writes/atomics, hot and
// cold lines.
func TestQuickOneReplyPerRequest(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 150 {
			ops = ops[:150]
		}
		cfg := smallCfg()
		var s sink
		p, err := NewPartition(&cfg, s.deliver)
		if err != nil {
			return false
		}
		p.Preload(0, 1<<14)
		for i, op := range ops {
			kinds := []packet.Kind{packet.ReadReq, packet.WriteReq, packet.AtomicReq}
			kind := kinds[int(op)%3]
			addr := uint64(op) * 32
			pk := req(uint64(i), kind, addr, p.SliceFor(addr))
			p.Accept(uint64(i), pk)
			p.Tick(uint64(i))
		}
		now := uint64(len(ops))
		for ; now < 1_000_000 && !p.Idle(); now++ {
			p.Tick(now)
		}
		if len(s.pkts) != len(ops) {
			return false
		}
		for _, pk := range s.pkts {
			if pk.Kind.IsRequest() {
				return false
			}
		}
		return p.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: replies are never delivered before the request was accepted plus
// the hit latency.
func TestQuickReplyNotEarly(t *testing.T) {
	cfg := smallCfg()
	f := func(addrRaw uint16, kindRaw uint8) bool {
		var s sink
		p, err := NewPartition(&cfg, s.deliver)
		if err != nil {
			return false
		}
		p.Preload(0, 1<<14)
		kinds := []packet.Kind{packet.ReadReq, packet.WriteReq, packet.AtomicReq}
		addr := uint64(addrRaw) * 8
		pk := req(0, kinds[int(kindRaw)%3], addr, p.SliceFor(addr))
		p.Accept(5, pk)
		now := uint64(5)
		for ; !p.Idle(); now++ {
			p.Tick(now)
		}
		return len(s.pkts) == 1 && s.times[0] >= 5+uint64(cfg.L2HitLatency)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAtomicSameLineSerializes: back-to-back atomics to one address queue
// behind the line's read-modify-write unit, while atomics to distinct lines
// proceed in parallel — the signal of the global-memory baseline channel.
func TestAtomicSameLineSerializes(t *testing.T) {
	run := func(sameLine bool) uint64 {
		cfg := smallCfg()
		p, s := mkPartition(t, cfg)
		p.Preload(0, 1<<16)
		// Eight atomics; either all to one line or spread across lines of
		// one slice.
		stride := uint64(0)
		if !sameLine {
			stride = uint64(cfg.L2LineBytes * cfg.NumL2Slices)
		}
		for i := uint64(0); i < 8; i++ {
			addr := i * stride
			p.Accept(0, req(i, packet.AtomicReq, addr, p.SliceFor(addr)))
		}
		runUntilIdle(p, 0)
		var last uint64
		for _, at := range s.times {
			if at > last {
				last = at
			}
		}
		return last
	}
	serial := run(true)
	parallel := run(false)
	if serial < parallel+60 {
		t.Errorf("same-line atomics (%d) should serialize well beyond spread atomics (%d)",
			serial, parallel)
	}
}

package noc

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/config"
	"gpunoc/internal/packet"
)

type edge struct {
	pkts  []*packet.Packet
	times []uint64
}

func (e *edge) deliver(now uint64, p *packet.Packet) {
	e.pkts = append(e.pkts, p)
	e.times = append(e.times, now)
}

func mkNet(t *testing.T, cfg *config.Config) (*Network, *edge, *edge) {
	t.Helper()
	var slices, sms edge
	n, err := New(cfg, slices.deliver, sms.deliver)
	if err != nil {
		t.Fatal(err)
	}
	return n, &slices, &sms
}

func req(id uint64, sm int, kind packet.Kind, slice int) *packet.Packet {
	return &packet.Packet{ID: id, Kind: kind, Slice: slice, SrcSM: sm,
		Tag: packet.WarpTag{SM: sm, Warp: 0, Op: 1}}
}

func TestNewValidation(t *testing.T) {
	cfg := config.Small()
	if _, err := New(&cfg, nil, func(uint64, *packet.Packet) {}); err == nil {
		t.Error("nil slice sink should fail")
	}
	if _, err := New(&cfg, func(uint64, *packet.Packet) {}, nil); err == nil {
		t.Error("nil SM sink should fail")
	}
	bad := cfg
	bad.NumGPCs = 0
	if _, err := New(&bad, func(uint64, *packet.Packet) {}, func(uint64, *packet.Packet) {}); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestGPCOfSMMatchesConfig checks the table InjectReply routes by against
// the config's slot scan, on both presets (Volta disables TPC slots, so its
// GPCs are irregular).
func TestGPCOfSMMatchesConfig(t *testing.T) {
	for _, cfg := range []config.Config{config.Small(), config.Volta()} {
		n, _, _ := mkNet(t, &cfg)
		for sm := 0; sm < cfg.NumSMs(); sm++ {
			if got, want := n.GPCOfSM(sm), cfg.GPCOfSM(sm); got != want {
				t.Errorf("%s: SM%d in GPC%d, want GPC%d", cfg.Name, sm, got, want)
			}
		}
	}
}

// TestRequestTraversal: a request injected at an SM reaches its destination
// slice after the sum of hop latencies and serialization.
func TestRequestTraversal(t *testing.T) {
	cfg := config.Small()
	n, slices, _ := mkNet(t, &cfg)
	p := req(1, 0, packet.ReadReq, 3)
	n.InjectRequest(0, 0, p)
	var now uint64
	for ; now < 200 && len(slices.pkts) == 0; now++ {
		n.Tick(now)
	}
	if len(slices.pkts) != 1 {
		t.Fatal("request never arrived")
	}
	minLat := uint64(cfg.NoC.TPCLinkLatency + cfg.NoC.GPCLinkLatency + cfg.NoC.XbarLatency)
	if slices.times[0] < minLat {
		t.Errorf("arrived at %d, before the %d-cycle hop latency floor", slices.times[0], minLat)
	}
	if slices.times[0] > minLat+12 {
		t.Errorf("arrived at %d, far beyond the latency floor %d", slices.times[0], minLat)
	}
}

// TestReplyTraversal: a reply injected at a slice reaches the right SM.
func TestReplyTraversal(t *testing.T) {
	cfg := config.Small()
	n, _, sms := mkNet(t, &cfg)
	p := req(1, 5, packet.ReadReply, 2)
	n.InjectReply(0, p)
	for now := uint64(0); now < 200 && len(sms.pkts) == 0; now++ {
		n.Tick(now)
	}
	if len(sms.pkts) != 1 {
		t.Fatal("reply never arrived")
	}
	if sms.pkts[0].Tag.SM != 5 {
		t.Errorf("reply delivered for SM %d", sms.pkts[0].Tag.SM)
	}
}

func TestInjectValidation(t *testing.T) {
	cfg := config.Small()
	n, _, _ := mkNet(t, &cfg)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("reply on request subnet", func() {
		n.InjectRequest(0, 0, req(1, 0, packet.ReadReply, 0))
	})
	mustPanic("unrouted slice", func() {
		n.InjectRequest(0, 0, req(1, 0, packet.ReadReq, -1))
	})
	mustPanic("request on reply subnet", func() {
		n.InjectReply(0, req(1, 0, packet.ReadReq, 0))
	})
}

// TestTPCWriteContention reproduces Fig 2 at the fabric level: two SMs of
// one TPC streaming writes drain in ~2x the time of one SM, while two SMs of
// different TPCs do not slow each other down.
func TestTPCWriteContention(t *testing.T) {
	cfg := config.Small()
	drain := func(smA, smB int, nPkts int) uint64 {
		n, slices, _ := mkNet(t, &cfg)
		id := uint64(0)
		for i := 0; i < nPkts; i++ {
			id++
			pa := req(id, smA, packet.WriteReq, i%cfg.NumL2Slices)
			n.InjectRequest(0, smA, pa)
			if smB >= 0 {
				id++
				pb := req(id, smB, packet.WriteReq, i%cfg.NumL2Slices)
				n.InjectRequest(0, smB, pb)
			}
		}
		var lastA uint64
		for now := uint64(0); !n.Idle(); now++ {
			n.Tick(now)
		}
		for i, p := range slices.pkts {
			if p.SrcSM == smA {
				lastA = slices.times[i]
			}
		}
		return lastA
	}
	alone := drain(0, -1, 64)
	sameTPC := drain(0, 1, 64)
	diffTPC := drain(0, 2, 64)
	if r := float64(sameTPC) / float64(alone); r < 1.85 || r > 2.15 {
		t.Errorf("same-TPC write contention ratio %.2f, want ~2", r)
	}
	if r := float64(diffTPC) / float64(alone); r > 1.1 {
		t.Errorf("different-TPC writes slowed SM0 by %.2fx", r)
	}
}

// TestGPCReplySpeedupShape: replies heading to many TPCs of one GPC saturate
// the GPC reply channel only past its speedup factor (~3.27 flits/cycle).
func TestGPCReplySpeedupShape(t *testing.T) {
	cfg := config.Volta()
	drain := func(numTPCs, pktsPerTPC int) float64 {
		n, _, sms := mkNet(t, &cfg)
		tpcs := cfg.TPCsOfGPC(0)[:numTPCs]
		id := uint64(0)
		for i := 0; i < pktsPerTPC; i++ {
			for _, tpc := range tpcs {
				id++
				sm := cfg.SMsOfTPC(tpc)[0]
				n.InjectReply(0, req(id, sm, packet.ReadReply, int(id)%cfg.NumL2Slices))
			}
		}
		var last uint64
		for now := uint64(0); !n.Idle(); now++ {
			n.Tick(now)
		}
		for i := range sms.pkts {
			if sms.times[i] > last {
				last = sms.times[i]
			}
		}
		return float64(last) / float64(pktsPerTPC)
	}
	// Per-TPC drain cost: below saturation it is bounded by the TPC reply
	// rate; at 7 TPCs the shared GPC link dominates.
	at2 := drain(2, 100)
	at7 := drain(7, 100)
	if at7 < at2*1.5 {
		t.Errorf("7-TPC reply drain (%.1f cyc/pkt) should far exceed 2-TPC (%.1f)", at7, at2)
	}
}

func TestLinkAccessors(t *testing.T) {
	cfg := config.Small()
	n, _, _ := mkNet(t, &cfg)
	if n.TPCRequestLink(0) == nil || n.GPCRequestLink(0) == nil ||
		n.GPCReplyLink(0) == nil || n.TPCReplyLink(0) == nil {
		t.Error("accessors returned nil")
	}
	if n.TPCRequestLink(0).Inputs() != cfg.SMsPerTPC {
		t.Error("TPC mux fan-in wrong")
	}
}

// Property: packet conservation through the whole fabric — every injected
// request is delivered to its slice exactly once, every reply to its SM, for
// random SMs, kinds, and slices.
func TestQuickFabricConservation(t *testing.T) {
	cfg := config.Small()
	f := func(seeds []uint16) bool {
		if len(seeds) > 120 {
			seeds = seeds[:120]
		}
		var slices, sms edge
		n, err := New(&cfg, slices.deliver, sms.deliver)
		if err != nil {
			return false
		}
		nReq, nRep := 0, 0
		for i, s := range seeds {
			smID := int(s) % cfg.NumSMs()
			slice := int(s>>3) % cfg.NumL2Slices
			if s%2 == 0 {
				kinds := []packet.Kind{packet.ReadReq, packet.WriteReq, packet.AtomicReq}
				n.InjectRequest(uint64(i), smID, req(uint64(i), smID, kinds[int(s>>5)%3], slice))
				nReq++
			} else {
				kinds := []packet.Kind{packet.ReadReply, packet.WriteReply, packet.AtomicReply}
				n.InjectReply(uint64(i), req(uint64(i), smID, kinds[int(s>>5)%3], slice))
				nRep++
			}
			n.Tick(uint64(i))
		}
		for now := uint64(len(seeds)); now < 1_000_000 && !n.Idle(); now++ {
			n.Tick(now)
		}
		if !n.Idle() || len(slices.pkts) != nReq || len(sms.pkts) != nRep {
			return false
		}
		for _, p := range slices.pkts {
			if !p.Kind.IsRequest() {
				return false
			}
		}
		for _, p := range sms.pkts {
			if p.Kind.IsRequest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Package sm models a streaming multiprocessor: resident warps stepped by a
// round-robin warp scheduler, a load/store unit that coalesces warp memory
// operations into NoC packets and injects them at the SM's port rate, and
// the per-SM clock register used for covert-channel synchronization. The SM
// measures the latency of each warp memory operation (first issue to last
// reply), which is the receiver's contention signal (Fig 7).
package sm

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/cache"
	"gpunoc/internal/clockreg"
	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/ring"
	"gpunoc/internal/warp"
)

// Inject delivers a request packet into the SM's NoC ingress (its input of
// the TPC mux).
type Inject func(now uint64, p *packet.Packet)

type resident struct {
	w       warp.Warp
	prog    device.Program
	kernel  int
	block   int
	warpID  int
	started bool
}

// SM is one streaming multiprocessor.
type SM struct {
	id     int
	cfg    *config.Config
	clocks *clockreg.Bank
	inject Inject

	warps        []*resident
	pending      ring.Buffer[*packet.Packet]
	outstanding  int
	nextPktID    uint64
	rrNext       int
	nextInjectAt uint64
	rng          *rand.Rand
	wake         func() // activity wake edge (see SetWaker); nil outside a scheduler

	// l1 is the per-SM unified L1; loads not compiled with the -dlcm=cg
	// analogue are serviced here first. Writes are write-through and
	// no-allocate, so only loads populate it. All kernels resident on the
	// SM share it — the surface the L1 prime+probe baseline channel uses.
	l1       *cache.Cache
	l1Hits   ring.Buffer[l1Hit] // locally-completing load hits (FIFO: fixed latency)
	l1HitLat uint64

	// Counters.
	injected, replies, opsCompleted uint64

	pr *smProbes // nil when uninstrumented (the fast path)
}

// smProbes holds the SM's LSU and memory-operation instruments. lsuStalls
// counts cycles a coalesced packet was ready but could not inject (budget
// exhausted or inter-injection gap) — the sender-side back-pressure the
// covert channel modulates. opLat is the warp memory-op latency (first issue
// to last reply), the receiver's contention signal (Fig 7).
type smProbes struct {
	lsuStalls *probe.Counter
	opLat     *probe.Hist
	pendDepth *probe.Gauge
}

// New builds an SM. inject must not be nil.
func New(id int, cfg *config.Config, clocks *clockreg.Bank, inject Inject) (*SM, error) {
	if inject == nil {
		return nil, fmt.Errorf("sm %d: nil inject", id)
	}
	if clocks == nil {
		return nil, fmt.Errorf("sm %d: nil clock bank", id)
	}
	if id < 0 || id >= cfg.NumSMs() {
		return nil, fmt.Errorf("sm: id %d out of range [0,%d)", id, cfg.NumSMs())
	}
	l1, err := cache.New(cfg.L1SizeBytes, cfg.L1LineBytes, cfg.L1Ways, 16)
	if err != nil {
		return nil, err
	}
	s := &SM{
		id:       id,
		cfg:      cfg,
		clocks:   clocks,
		inject:   inject,
		l1:       l1,
		l1HitLat: 28,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ (int64(id)+1)*104729)),
	}
	if r := cfg.Probes; r != nil {
		prefix := fmt.Sprintf("sm%d", id)
		s.pr = &smProbes{
			lsuStalls: r.Counter(prefix + "/lsu_stalls"),
			opLat:     r.Hist(prefix + "/op_latency"),
			pendDepth: r.Gauge(prefix + "/lsu_pending"),
		}
		l1.Instrument(r, prefix+"/l1")
	}
	return s, nil
}

// l1Hit is a load that hit in L1 and completes locally.
type l1Hit struct {
	at   uint64
	warp int
	op   uint64
}

// L1 exposes the SM's L1 cache (tests and the prime+probe baseline inspect
// its state).
func (s *SM) L1() *cache.Cache { return s.l1 }

// SetWaker registers the activity wake edge: w is invoked whenever external
// input can make a quiescent SM do work again — a warp becoming resident
// (AddWarp) or a reply arriving from the NoC (OnReply). A nil waker (the
// default) is correct when the SM is ticked exhaustively.
func (s *SM) SetWaker(w func()) { s.wake = w }

// ID returns the SM id (the %smid register).
func (s *SM) ID() int { return s.id }

// Clock returns the SM's 32-bit clock register at cycle now.
func (s *SM) Clock(now uint64) uint32 { return s.clocks.Read(s.id, now) }

// AddWarp makes a warp resident, to start after the configured scheduling
// jitter (modeling thread-block dispatch and warp-scheduler uncertainty).
// kernel tags the launch for completion tracking.
func (s *SM) AddWarp(now uint64, kernel, block, warpID int, prog device.Program) error {
	if prog == nil {
		return fmt.Errorf("sm %d: nil program for block %d warp %d", s.id, block, warpID)
	}
	slot := -1
	for i, existing := range s.warps {
		if existing == nil {
			slot = i
			break
		}
	}
	if slot == -1 {
		if len(s.warps) >= s.cfg.MaxWarpsPerSM {
			return fmt.Errorf("sm %d: warp slots exhausted (%d)", s.id, s.cfg.MaxWarpsPerSM)
		}
		slot = len(s.warps)
		s.warps = append(s.warps, nil)
	}
	jitter := uint64(0)
	if s.cfg.WarpIssueJitter > 0 {
		jitter = uint64(s.rng.Intn(s.cfg.WarpIssueJitter + 1))
	}
	r := &resident{
		prog:   prog,
		kernel: kernel,
		block:  block,
		warpID: warpID,
	}
	r.w.ID = slot
	r.w.State = warp.WaitingCycle
	r.w.WakeAt = now + 1 + jitter
	s.warps[slot] = r
	if s.wake != nil {
		s.wake()
	}
	return nil
}

// RunningWarps reports the number of unfinished warps belonging to kernel
// (pass -1 for all kernels).
func (s *SM) RunningWarps(kernel int) int {
	n := 0
	for _, r := range s.warps {
		if r != nil && r.w.State != warp.Finished && (kernel < 0 || r.kernel == kernel) {
			n++
		}
	}
	return n
}

// ReclaimFinished frees the slots of finished warps so a later kernel launch
// can reuse them. Slots become nil holes rather than being compacted:
// surviving warps may still have requests in flight whose reply tags carry
// their slot index, so live warps must never be renumbered.
func (s *SM) ReclaimFinished() {
	for i, r := range s.warps {
		if r != nil && r.w.State == warp.Finished {
			s.warps[i] = nil
		}
	}
	// Trim trailing holes to keep the scan short.
	for len(s.warps) > 0 && s.warps[len(s.warps)-1] == nil {
		s.warps = s.warps[:len(s.warps)-1]
	}
	if s.rrNext >= len(s.warps) {
		s.rrNext = 0
	}
}

// Tick advances the SM one cycle: wake sleeping warps, inject one pending
// packet, then let one ready warp issue its next operation.
func (s *SM) Tick(now uint64) {
	for _, r := range s.warps {
		if r != nil && r.w.State == warp.WaitingCycle && r.w.WakeAt <= now {
			r.w.State = warp.Ready
		}
	}

	// Complete due L1 hits (FIFO: constant latency keeps them ordered).
	for s.l1Hits.Len() > 0 && s.l1Hits.Front().at <= now {
		h := s.l1Hits.Pop()
		s.completeRequest(now, h.warp, h.op)
	}

	// LSU: one packet per LSUInjectPeriod cycles into the TPC mux, bounded
	// by the outstanding-request budget (the MSHR/LSU queue analogue).
	if s.pending.Len() > 0 {
		if s.outstanding < s.cfg.LSUQueueDepth && now >= s.nextInjectAt {
			p := s.pending.Pop()
			p.IssueCycle = now
			s.outstanding++
			s.injected++
			s.nextInjectAt = now + uint64(s.cfg.NoC.LSUInjectPeriod)
			s.inject(now, p)
			if s.pr != nil {
				s.pr.pendDepth.Add(-1)
			}
		} else if s.pr != nil {
			s.pr.lsuStalls.Inc()
		}
	}

	// Warp scheduler: issue width 1, round-robin over ready warps.
	n := len(s.warps)
	for i := 0; i < n; i++ {
		idx := (s.rrNext + i) % n
		r := s.warps[idx]
		if r == nil || r.w.State != warp.Ready {
			continue
		}
		s.rrNext = (idx + 1) % n
		s.step(now, r)
		break
	}
}

func (s *SM) step(now uint64, r *resident) {
	ctx := device.Ctx{
		SMID:        s.id,
		Block:       r.block,
		Warp:        r.warpID,
		Clock:       s.clocks.Read(s.id, now),
		Clock64:     s.clocks.Read64(s.id, now),
		LastLatency: r.w.LastLatency,
	}
	op := r.prog.Step(&ctx)
	switch op.Kind {
	case device.OpMem:
		lines, err := warp.Coalesce(op.Mem, s.cfg.SIMTWidth, s.cfg.L2LineBytes)
		if err != nil {
			panic(fmt.Sprintf("sm %d: bad mem op: %v", s.id, err))
		}
		if len(lines) == 0 {
			// No active lanes: a one-cycle no-op.
			r.w.State = warp.WaitingCycle
			r.w.WakeAt = now + 1
			return
		}
		r.w.OpSeq++
		r.w.OpStart = now
		r.w.Outstanding = len(lines)
		r.w.State = warp.WaitingMem
		kind := packet.ReadReq
		switch {
		case op.Mem.Atomic:
			kind = packet.AtomicReq
		case op.Mem.Write:
			kind = packet.WriteReq
		}
		useL1 := kind == packet.ReadReq && !op.Mem.BypassL1
		for _, la := range lines {
			if useL1 && s.l1.Probe(la) {
				// L1 load hit: completes locally without NoC traffic.
				s.l1.Access(la, false) // refresh recency
				s.l1Hits.Push(l1Hit{at: now + s.l1HitLat, warp: r.w.ID, op: r.w.OpSeq})
				continue
			}
			s.nextPktID++
			//lint:allow hotalloc one request packet per memory instruction; packet pooling is future work
			s.pending.Push(&packet.Packet{
				ID:       s.nextPktID,
				Kind:     kind,
				Tag:      packet.WarpTag{SM: s.id, Warp: r.w.ID, Op: r.w.OpSeq},
				Addr:     la,
				SrcSM:    s.id,
				BypassL1: op.Mem.BypassL1,
			})
			if s.pr != nil {
				s.pr.pendDepth.Add(1)
			}
		}
	case device.OpWait:
		d := op.Cycles
		if d == 0 {
			d = 1
		}
		r.w.State = warp.WaitingCycle
		r.w.WakeAt = now + d
	case device.OpSyncClock:
		if op.Modulus == 0 {
			panic(fmt.Sprintf("sm %d: sync with zero modulus", s.id))
		}
		c := s.clocks.Read64(s.id, now)
		delta := (op.Phase + op.Modulus - c%op.Modulus) % op.Modulus
		r.w.State = warp.WaitingCycle
		r.w.WakeAt = now + delta
		if delta == 0 {
			r.w.WakeAt = now // already aligned; ready again next tick
		}
	case device.OpDone:
		r.w.State = warp.Finished
	default:
		panic(fmt.Sprintf("sm %d: unknown op kind %d", s.id, op.Kind))
	}
}

// OnReply receives a reply packet from the NoC.
func (s *SM) OnReply(now uint64, p *packet.Packet) {
	if p.Tag.SM != s.id {
		panic(fmt.Sprintf("sm %d: reply for SM %d", s.id, p.Tag.SM))
	}
	s.outstanding--
	s.replies++
	if s.wake != nil {
		s.wake()
	}
	if p.Kind == packet.ReadReply && !p.BypassL1 {
		// Allocate the returning line in L1 for future local hits.
		s.l1.Fill(p.Addr, false)
	}
	s.completeRequest(now, p.Tag.Warp, p.Tag.Op)
}

// completeRequest retires one request (L1 hit or NoC reply) of a warp's
// memory operation.
func (s *SM) completeRequest(now uint64, warpSlot int, opSeq uint64) {
	if warpSlot < 0 || warpSlot >= len(s.warps) || s.warps[warpSlot] == nil {
		panic(fmt.Sprintf("sm %d: completion for unknown warp %d", s.id, warpSlot))
	}
	r := s.warps[warpSlot]
	if r.w.State != warp.WaitingMem || opSeq != r.w.OpSeq {
		// Stale completion (the warp was re-slotted between kernels);
		// only possible if ReclaimFinished ran with traffic in flight,
		// which the engine prevents. Treat as fatal to catch miswiring.
		panic(fmt.Sprintf("sm %d: unexpected completion op %d for warp %d in state %v",
			s.id, opSeq, warpSlot, r.w.State))
	}
	r.w.Outstanding--
	if r.w.Outstanding == 0 {
		r.w.LastLatency = now - r.w.OpStart
		r.w.State = warp.Ready
		s.opsCompleted++
		if s.pr != nil {
			s.pr.opLat.Observe(r.w.LastLatency)
		}
	}
}

// Idle reports whether the SM has no runnable work (all warps finished and
// no requests pending or outstanding).
func (s *SM) Idle() bool {
	if s.pending.Len() > 0 || s.outstanding > 0 || s.l1Hits.Len() > 0 {
		return false
	}
	for _, r := range s.warps {
		if r != nil && r.w.State != warp.Finished {
			return false
		}
	}
	return true
}

// Quiescent reports whether ticking the SM is a no-op until its next wake
// edge (AddWarp or OnReply): nothing pending in the LSU, no local L1 hits in
// flight, and no warp that could be woken or issued — every live warp is
// stalled on memory replies that arrive via OnReply. The scheduler parks a
// quiescent SM; unlike Idle, this also covers an SM whose warps are all
// waiting on the NoC, which is most of a memory-bound SM's lifetime.
func (s *SM) Quiescent() bool {
	if s.pending.Len() > 0 || s.l1Hits.Len() > 0 {
		return false
	}
	for _, r := range s.warps {
		if r == nil {
			continue
		}
		if st := r.w.State; st == warp.Ready || st == warp.WaitingCycle {
			return false
		}
	}
	return true
}

// Stats is a snapshot of SM counters.
type Stats struct {
	Injected, Replies, OpsCompleted uint64
}

// Stats returns the counters.
func (s *SM) Stats() Stats { return Stats{s.injected, s.replies, s.opsCompleted} }

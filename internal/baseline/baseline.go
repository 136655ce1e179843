// Package baseline re-implements, on the same simulated GPU, the two prior
// GPU covert channels the paper compares against in Table 2 (both from
// Naghibijouybari et al., MICRO'17): the serial L1 prime+probe channel and
// the global-memory channel built on L2-level atomic contention. They exist
// to reproduce the qualitative ordering of Table 2 — the interconnect
// channel is parallel, local, and direct, and achieves orders of magnitude
// more bandwidth than these indirect channels.
package baseline

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/warp"
)

// Result mirrors core.Result for the baseline channels.
type Result struct {
	Name          string
	BitsSent      int
	BitErrors     int
	ErrorRate     float64
	Cycles        uint64
	BitsPerSecond float64
}

// commonState carries the timing parameters shared by a baseline
// sender/receiver pair.
type commonState struct {
	slot uint64
	sync uint64
	bits []core.Symbol
}

// baseProg is the shared slot/sync scaffolding of the baseline programs.
type baseProg struct {
	cs        commonState
	state     int
	bitIdx    int
	slotStart uint64
}

const (
	bstRole = iota
	bstSync
	bstBody
	bstEnd
)

func (b *baseProg) slotWait(clock uint64) device.Op {
	target := b.slotStart + b.cs.slot
	if clock < target {
		return device.Wait(target - clock)
	}
	b.slotStart = clock
	b.bitIdx++
	return device.Op{}
}

// PrimeProbeParams configures the L1 prime+probe channel.
type PrimeProbeParams struct {
	Bits       []core.Symbol
	SlotCycles uint64
}

// l1Sender evicts the receiver's primed L1 set to transmit '1'. Sender and
// receiver are co-resident on the same SM (intra-SM channel), which the
// thread-block scheduler grants to the second kernel wave once every SM
// holds one block.
type l1Sender struct {
	baseProg
	targetSM  int
	ways      int
	setStride uint64
	evictBase uint64
	opIdx     int
	delayed   bool
}

func (s *l1Sender) Step(ctx *device.Ctx) device.Op {
	switch s.state {
	case bstRole:
		if ctx.SMID != s.targetSM {
			return device.Done()
		}
		s.state = bstSync
		return device.SyncClock(s.cs.sync, 0)
	case bstSync:
		s.slotStart = ctx.Clock64
		s.state = bstBody
		fallthrough
	case bstBody:
		if s.bitIdx >= len(s.cs.bits) {
			return device.Done()
		}
		if !s.delayed {
			// Let the receiver finish its probe/prime pass at the slot
			// start before evicting (classic prime+probe phase order).
			s.delayed = true
			return device.Wait(s.cs.slot / 3)
		}
		if s.cs.bits[s.bitIdx] != 0 && s.opIdx < s.ways {
			// Touch a conflicting line per way to evict the primed set.
			m := warp.CoalescedOp(s.evictBase+uint64(s.opIdx)*s.setStride, false)
			m.BypassL1 = false
			s.opIdx++
			return device.Mem(m)
		}
		s.state = bstEnd
		fallthrough
	default: // bstEnd
		if op := s.slotWait(ctx.Clock64); op.Kind == device.OpWait {
			return op
		}
		s.opIdx = 0
		s.delayed = false
		if s.bitIdx >= len(s.cs.bits) {
			return device.Done()
		}
		s.state = bstBody
		return s.Step(ctx)
	}
}

// l1Receiver primes one L1 set, then probes it each slot: a slow probe
// (misses) decodes '1'.
type l1Receiver struct {
	baseProg
	targetSM  int
	ways      int
	setStride uint64
	primeBase uint64
	threshold float64

	opIdx   int
	probing bool
	latSum  float64

	Received []core.Symbol
	First    uint64
	Last     uint64
}

func (r *l1Receiver) Step(ctx *device.Ctx) device.Op {
	switch r.state {
	case bstRole:
		if ctx.SMID != r.targetSM {
			return device.Done()
		}
		r.state = bstSync
		return device.SyncClock(r.cs.sync, 0)
	case bstSync:
		r.slotStart = ctx.Clock64
		r.First = ctx.Clock64
		r.state = bstBody
		fallthrough
	case bstBody:
		// One pass beyond the payload: the probe at slot k's start
		// observes the sender's activity during slot k-1, so the first
		// pass only primes and the final bit needs a trailing pass.
		if r.bitIdx > len(r.cs.bits) {
			return device.Done()
		}
		if r.opIdx > 0 && r.probing {
			r.latSum += float64(ctx.LastLatency)
		}
		if r.opIdx < r.ways {
			// The probe pass doubles as the next slot's prime.
			m := warp.CoalescedOp(r.primeBase+uint64(r.opIdx)*r.setStride, false)
			m.BypassL1 = false
			r.opIdx++
			r.probing = true
			return device.Mem(m)
		}
		if r.bitIdx > 0 {
			mean := r.latSum / float64(r.ways)
			if mean > r.threshold {
				r.Received = append(r.Received, 1)
			} else {
				r.Received = append(r.Received, 0)
			}
		}
		r.state = bstEnd
		fallthrough
	default: // bstEnd
		if op := r.slotWait(ctx.Clock64); op.Kind == device.OpWait {
			return op
		}
		r.Last = ctx.Clock64
		r.opIdx = 0
		r.latSum = 0
		r.probing = false
		if r.bitIdx > len(r.cs.bits) {
			return device.Done()
		}
		r.state = bstBody
		return r.Step(ctx)
	}
}

// RunPrimeProbe executes the L1 prime+probe baseline on a fresh GPU and
// returns its quality metrics. The channel is serial (one probe pass per
// bit) and indirect, hence far slower than the interconnect channel.
func RunPrimeProbe(cfg *config.Config, p PrimeProbeParams) (Result, error) {
	if len(p.Bits) == 0 {
		return Result{}, fmt.Errorf("baseline: empty payload")
	}
	if p.SlotCycles == 0 {
		p.SlotCycles = 3000
	}
	g, err := engine.New(*cfg)
	if err != nil {
		return Result{}, err
	}
	l1 := g.SM(0).L1()
	setStride := uint64(l1.Sets() * l1.LineBytes())
	ways := l1.Ways()
	// Victim set lines must hit in L2 so probe timing is L1-dominated.
	g.Preload(0, setStride*uint64(ways)*4)

	cs := commonState{slot: p.SlotCycles, sync: 1 << 15, bits: p.Bits}
	recv := &l1Receiver{
		baseProg:  baseProg{cs: cs},
		targetSM:  0,
		ways:      ways,
		setStride: setStride,
		primeBase: 0,
		threshold: 65, // between an L1 hit (~29) and the L2 round trip (~100+)
	}
	// Sender occupies every SM (first wave); only SM0's block transmits.
	send := device.KernelSpec{
		Name:          "pp-sender",
		Blocks:        cfg.NumSMs(),
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			return &l1Sender{
				baseProg:  baseProg{cs: cs},
				targetSM:  0,
				ways:      ways,
				setStride: setStride,
				// Conflicting lines: same set index, different tags.
				evictBase: setStride * uint64(ways),
			}
		},
	}
	recvSpec := device.KernelSpec{
		Name:          "pp-receiver",
		Blocks:        1,
		WarpsPerBlock: 1,
		New:           func(b, w int) device.Program { return recv },
	}
	if _, err := g.Launch(send); err != nil {
		return Result{}, err
	}
	if _, err := g.Launch(recvSpec); err != nil {
		return Result{}, err
	}
	if err := g.RunKernels(uint64(len(p.Bits)+64) * p.SlotCycles * 8); err != nil {
		return Result{}, err
	}
	return score("l1-prime-probe", cfg, p.Bits, recv.Received, recv.Last-recv.First), nil
}

// AtomicParams configures the global-memory atomic channel.
type AtomicParams struct {
	Bits          []core.Symbol
	SlotCycles    uint64
	AtomicsPerBit int
}

// atomicSender hammers a shared line with atomics to transmit '1'. Several
// warps hammer concurrently so the line's read-modify-write unit stays
// backlogged for the whole slot.
type atomicSender struct {
	baseProg
	targetSM int
	addr     uint64
}

func (s *atomicSender) Step(ctx *device.Ctx) device.Op {
	switch s.state {
	case bstRole:
		if ctx.SMID != s.targetSM {
			return device.Done()
		}
		s.state = bstSync
		return device.SyncClock(s.cs.sync, 0)
	case bstSync:
		s.slotStart = ctx.Clock64
		s.state = bstBody
		fallthrough
	case bstBody:
		if s.bitIdx >= len(s.cs.bits) {
			return device.Done()
		}
		deadline := s.slotStart + s.cs.slot - s.cs.slot/5
		if s.cs.bits[s.bitIdx] != 0 && ctx.Clock64 < deadline {
			m := warp.CoalescedOp(s.addr, false)
			m.Atomic = true
			return device.Mem(m)
		}
		s.state = bstEnd
		fallthrough
	default:
		if op := s.slotWait(ctx.Clock64); op.Kind == device.OpWait {
			return op
		}
		if s.bitIdx >= len(s.cs.bits) {
			return device.Done()
		}
		s.state = bstBody
		return s.Step(ctx)
	}
}

// atomicReceiver measures the latency of its own atomics to the shared
// line. The first calibSlots slots are a quiet preamble (the sender idles)
// from which the receiver learns the unloaded atomic round trip and sets its
// detection threshold.
type atomicReceiver struct {
	baseProg
	targetSM  int
	addr      uint64
	perBit    int
	calib     int
	threshold float64
	calSum    float64

	opIdx  int
	latSum float64

	Received []core.Symbol
	First    uint64
	Last     uint64
}

func (r *atomicReceiver) Step(ctx *device.Ctx) device.Op {
	switch r.state {
	case bstRole:
		if ctx.SMID != r.targetSM {
			return device.Done()
		}
		r.state = bstSync
		return device.SyncClock(r.cs.sync, 0)
	case bstSync:
		r.slotStart = ctx.Clock64
		r.First = ctx.Clock64
		r.state = bstBody
		fallthrough
	case bstBody:
		if r.bitIdx >= len(r.cs.bits)+r.calib {
			return device.Done()
		}
		if r.opIdx > 0 {
			r.latSum += float64(ctx.LastLatency)
		}
		if r.opIdx < r.perBit {
			m := warp.CoalescedOp(r.addr, false)
			m.Atomic = true
			r.opIdx++
			return device.Mem(m)
		}
		mean := r.latSum / float64(r.perBit)
		switch {
		case r.bitIdx < r.calib:
			r.calSum += mean
			if r.bitIdx == r.calib-1 {
				r.threshold = r.calSum/float64(r.calib) + 45
			}
		case mean > r.threshold:
			r.Received = append(r.Received, 1)
		default:
			r.Received = append(r.Received, 0)
		}
		r.state = bstEnd
		fallthrough
	default:
		if op := r.slotWait(ctx.Clock64); op.Kind == device.OpWait {
			return op
		}
		r.Last = ctx.Clock64
		r.opIdx = 0
		r.latSum = 0
		if r.bitIdx >= len(r.cs.bits)+r.calib {
			return device.Done()
		}
		r.state = bstBody
		return r.Step(ctx)
	}
}

// RunAtomic executes the global-memory atomic channel: sender and receiver
// sit on different TPCs (no interconnect sharing) and contend only on the L2
// read-modify-write unit of one line — a global, indirect resource.
func RunAtomic(cfg *config.Config, p AtomicParams) (Result, error) {
	if len(p.Bits) == 0 {
		return Result{}, fmt.Errorf("baseline: empty payload")
	}
	if p.SlotCycles == 0 {
		p.SlotCycles = 4000
	}
	if p.AtomicsPerBit == 0 {
		p.AtomicsPerBit = 6
	}
	g, err := engine.New(*cfg)
	if err != nil {
		return Result{}, err
	}
	const sharedAddr = 0x40
	g.Preload(0, 4096)

	const calibSlots = 4
	// The sender idles through the receiver's calibration preamble by
	// prepending quiet symbols to its own schedule.
	senderBits := append(make([]core.Symbol, calibSlots), p.Bits...)
	csRecv := commonState{slot: p.SlotCycles, sync: 1 << 15, bits: p.Bits}
	csSend := commonState{slot: p.SlotCycles, sync: 1 << 15, bits: senderBits}
	// Receiver on SM0 (first block of second wave); sender on a different
	// TPC of the same GPC: far enough that the only contended resource is
	// the L2 line, but close enough that the clock registers are aligned
	// (cross-GPC clocks differ wildly, §4.1, and cannot synchronize).
	senderTPC := cfg.TPCsOfGPC(cfg.GPCOfSM(0))[1]
	senderSM := cfg.SMsOfTPC(senderTPC)[0]
	recv := &atomicReceiver{
		baseProg: baseProg{cs: csRecv},
		targetSM: 0, addr: sharedAddr, perBit: p.AtomicsPerBit,
		calib: calibSlots,
	}
	send := device.KernelSpec{
		Name:          "atomic-sender",
		Blocks:        cfg.NumSMs(),
		WarpsPerBlock: 8, // concurrent hammering keeps the line backlogged
		New: func(b, w int) device.Program {
			return &atomicSender{
				baseProg: baseProg{cs: csSend},
				targetSM: senderSM, addr: sharedAddr,
			}
		},
	}
	recvSpec := device.KernelSpec{
		Name:          "atomic-receiver",
		Blocks:        1,
		WarpsPerBlock: 1,
		New:           func(b, w int) device.Program { return recv },
	}
	if _, err := g.Launch(send); err != nil {
		return Result{}, err
	}
	if _, err := g.Launch(recvSpec); err != nil {
		return Result{}, err
	}
	if err := g.RunKernels(uint64(len(p.Bits)+64) * p.SlotCycles * 8); err != nil {
		return Result{}, err
	}
	return score("global-atomic", cfg, p.Bits, recv.Received, recv.Last-recv.First), nil
}

func score(name string, cfg *config.Config, sent, received []core.Symbol, cycles uint64) Result {
	errs := core.CountSymbolErrors(sent, received)
	r := Result{
		Name:      name,
		BitsSent:  len(sent),
		BitErrors: errs,
		Cycles:    cycles,
	}
	if len(sent) > 0 {
		r.ErrorRate = float64(errs) / float64(len(sent))
	}
	r.BitsPerSecond = cfg.BitsPerSecond(len(sent), cycles)
	return r
}

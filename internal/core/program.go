package core

import (
	"math/rand"

	"gpunoc/internal/device"
	"gpunoc/internal/warp"
)

// Symbol is one transmitted unit: a bit for the binary channel, a 2-bit
// value (0..3) for the multi-level channel.
type Symbol int

// chunkFunc decides, from the SM a block landed on (read through the %smid
// analogue at runtime, as the real attack does), whether this warp
// participates and which symbols it carries. A nil return means the warp
// exits immediately (its block only reserved the SM slot).
type chunkFunc func(smid int) []Symbol

// addrFunc returns the L2-resident probe window base for a given SM.
type addrFunc func(smid int) uint64

// phaseFunc returns the SyncClock target residue for a given SM. On-die
// channels leave it nil (phase 0: §4.1 shows clock registers of SMs in one
// GPU agree closely enough). Cross-GPU channels synchronize in *global* time
// by cancelling the device-private clock offset: the attacker learns its
// SM's offset once (the one-time calibration of §4.1 applied across
// devices) and thereafter waits for clock % modulus == offset % modulus,
// which both sides reach at the same global cycle.
type phaseFunc func(smid int) uint64

const (
	// slotJitter is the most cycles of scheduling jitter a side waits at
	// each slot start before its accesses — the noise source behind the
	// error-vs-iterations trade-off of Fig 10.
	slotJitter = 260
	// driftJitter is the most cycles the busy-wait that counts out a slot
	// wakes late, independently on each side. Lateness carries into the
	// next slot's start, so without periodic resync the two sides
	// random-walk apart and eventually misalign — the accumulating error
	// of Fig 9(a) that Algorithm 2's Synchronization() resets.
	driftJitter = 48
)

// Slot clock states.
const (
	stJoin = iota
	stInitSync
	stSlotStart
	stOps
	stSlotEnd
	stResync
)

// slotRole is what the sender or the receiver adds to the slot clock.
type slotRole interface {
	// join runs on the warp's first step, on the SM its block landed on. It
	// returns the number of slots the warp takes part in, and false when
	// the warp exits at once (its block only reserved the SM).
	join(ctx *device.Ctx) (slots int, ok bool)
	// slotOp returns the next operation of slot i, or false once the
	// slot's work is done.
	slotOp(ctx *device.Ctx, i int) (device.Op, bool)
}

// slotClock is Algorithm 2's timing skeleton, the same for the sender and
// the receiver: synchronize once on the clock register, then per slot wait
// a random scheduling jitter, run the role's operations, busy-wait to the
// slot's end (waking a random drift late), and resynchronize every
// SyncPeriod slots. Each program draws its jitter and drift from its own
// RNG: one jitter at every slot start, one drift only when the slot-end
// wait is needed.
type slotClock struct {
	p     *Params
	phase phaseFunc // nil = phase 0 (on-die channels)
	rng   *rand.Rand

	ph    uint64
	slots int
	state int
	slot  int    // index of the current slot
	start uint64 // local clock at the current slot's start
	first uint64 // local clock at the first slot's start
	last  uint64 // local clock at the final slot's end
}

func newSlotClock(p *Params, phase phaseFunc, seed int64) slotClock {
	return slotClock{p: p, phase: phase, rng: rand.New(rand.NewSource(seed))}
}

// step advances the clock and returns role's next operation.
func (c *slotClock) step(ctx *device.Ctx, role slotRole) device.Op {
	for {
		switch c.state {
		case stJoin:
			slots, ok := role.join(ctx)
			if !ok {
				return device.Done()
			}
			c.slots = slots
			if c.phase != nil {
				c.ph = c.phase(ctx.SMID)
			}
			c.state = stInitSync
			return device.SyncClock(c.p.initModulus(), c.ph)

		case stInitSync:
			c.start, c.first = ctx.Clock64, ctx.Clock64
			c.state = stSlotStart

		case stSlotStart:
			if c.slot >= c.slots {
				return device.Done()
			}
			c.state = stOps
			if j := c.rng.Intn(slotJitter + 1); j > 0 {
				return device.Wait(uint64(j))
			}

		case stOps:
			if op, ok := role.slotOp(ctx, c.slot); ok {
				return op
			}
			c.state = stSlotEnd

		case stSlotEnd:
			if end := c.start + c.p.SlotCycles; ctx.Clock64 < end {
				return device.Wait(end - ctx.Clock64 + uint64(c.rng.Intn(driftJitter+1)))
			}
			c.start, c.last = ctx.Clock64, ctx.Clock64
			c.slot++
			c.state = stSlotStart
			if c.slot < c.slots && c.p.SyncPeriod > 0 && c.slot%c.p.SyncPeriod == 0 {
				c.state = stResync
				return device.SyncClock(c.p.syncModulus(), c.ph)
			}

		case stResync:
			c.start = ctx.Clock64
			c.state = stSlotStart
		}
	}
}

// senderProgram implements the trojan warp of Algorithm 2: per timing slot
// it either floods the shared channel with uncoalesced accesses (symbol > 0)
// or stays silent.
type senderProgram struct {
	clock  slotClock
	chunk  chunkFunc
	window addrFunc
	write  bool
	lineB  int
	simt   int

	symbols []Symbol
	myOps   int // this warp's share of the per-slot op budget
	opIdx   int
	base    uint64
}

// senderOpFactor scales the sender's per-slot op budget relative to the
// receiver's probe count so that a full-intensity flood covers the whole
// probe window (the paper's sender repeats accesses throughout the slot).
const senderOpFactor = 2

// opShare splits the per-slot op budget across the sender's warps: warp w
// takes every SenderWarps-th op. Multiple warps issue concurrently purely to
// keep the SM's LSU pipeline full (the paper activates 5 warps "to increase
// the impact of contention"); the total traffic per slot stays proportional
// to Iterations warp-wide operations.
func opShare(total, warps, w int) int {
	if w >= warps {
		return 0
	}
	n := total / warps
	if w < total%warps {
		n++
	}
	return n
}

// Step implements device.Program.
func (s *senderProgram) Step(ctx *device.Ctx) device.Op { return s.clock.step(ctx, s) }

func (s *senderProgram) join(ctx *device.Ctx) (int, bool) {
	p := s.clock.p
	s.symbols = s.chunk(ctx.SMID)
	s.myOps = opShare(senderOpFactor*p.Iterations, p.SenderWarps, ctx.Warp)
	s.base = s.window(ctx.SMID)
	return len(s.symbols), len(s.symbols) > 0 && s.myOps > 0
}

func (s *senderProgram) slotOp(_ *device.Ctx, i int) (device.Op, bool) {
	lanes := s.clock.p.LevelLanes(int(s.symbols[i]), s.simt)
	if lanes == 0 || s.opIdx >= s.myOps {
		s.opIdx = 0
		return device.Op{}, false
	}
	// Rotate within a small, preloaded, L2-resident window.
	addr := s.base + uint64(s.opIdx%2*s.simt*s.lineB)
	op, err := warp.PartialOp(addr, s.write, s.lineB, lanes, s.simt)
	if err != nil {
		panic(err)
	}
	s.opIdx++
	return device.Mem(op), true
}

// SlotTrace records the receiver's observation for one timing slot.
type SlotTrace struct {
	// MeanLatency is the mean probe-op latency over the slot's
	// iterations — the Fig 9/Fig 14 y-axis.
	MeanLatency float64
	// MaxLatency is the slowest probe op in the slot.
	MaxLatency uint64
	// Clock is the receiver's local clock at the slot start.
	Clock uint64
}

// receiverProgram implements the spy warp of Algorithm 2: per timing slot it
// probes the L2 through the shared channel, classifies the mean latency
// against the thresholds, and records the decoded symbol.
type receiverProgram struct {
	clock  slotClock
	listen func(smid int) (slots int, ok bool)
	window addrFunc
	lineB  int
	simt   int

	// Outputs.
	Received []Symbol
	Trace    []SlotTrace

	opIdx  int
	latSum float64
	latMax uint64
	base   uint64
}

// Step implements device.Program.
func (r *receiverProgram) Step(ctx *device.Ctx) device.Op { return r.clock.step(ctx, r) }

func (r *receiverProgram) join(ctx *device.Ctx) (int, bool) {
	r.base = r.window(ctx.SMID)
	return r.listen(ctx.SMID)
}

func (r *receiverProgram) slotOp(ctx *device.Ctx, _ int) (device.Op, bool) {
	p := r.clock.p
	if r.opIdx > 0 {
		// The previous probe completed; LastLatency is its cost.
		r.latSum += float64(ctx.LastLatency)
		r.latMax = max(r.latMax, ctx.LastLatency)
	}
	if r.opIdx >= p.Iterations {
		r.decodeSlot()
		r.opIdx, r.latSum, r.latMax = 0, 0, 0
		return device.Op{}, false
	}
	addr := r.base + uint64(r.opIdx%2*r.simt*r.lineB)
	r.opIdx++
	if p.ReceiverCoalesced {
		return device.Mem(warp.CoalescedOp(addr, false)), true
	}
	return device.Mem(warp.UncoalescedOp(addr, false, r.lineB)), true
}

func (r *receiverProgram) decodeSlot() {
	p := r.clock.p
	mean := r.latSum / float64(p.Iterations)
	sym := 0
	for _, th := range p.Thresholds {
		if mean > th {
			sym++
		}
	}
	r.Received = append(r.Received, Symbol(sym))
	r.Trace = append(r.Trace, SlotTrace{MeanLatency: mean, MaxLatency: r.latMax, Clock: r.clock.start})
}

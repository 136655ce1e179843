// Package device defines the programming model for simulated GPU kernels.
// A kernel is a grid of thread blocks; each block's warps run a Program — a
// state machine stepped by the SM whenever the warp is ready. Programs issue
// warp-wide memory operations, busy-wait for cycle counts, or synchronize on
// the SM's clock register (the clock() intrinsic of §4.1), which is all the
// paper's sender/receiver kernels need.
package device

import (
	"fmt"

	"gpunoc/internal/warp"
)

// OpKind discriminates the operations a Program can request.
type OpKind int

const (
	// OpMem issues a warp-wide memory operation.
	OpMem OpKind = iota
	// OpWait busy-waits for a fixed number of cycles.
	OpWait
	// OpSyncClock busy-waits until the SM clock register satisfies
	// clock % Modulus == Phase — the paper's low-overhead synchronization
	// primitive (§4.4: "the lower n bits of the clock registers are
	// compared against a fixed value").
	OpSyncClock
	// OpDone terminates the warp.
	OpDone
)

// Op is one operation requested by a Program.
type Op struct {
	Kind    OpKind
	Mem     warp.MemOp
	Cycles  uint64 // OpWait duration
	Modulus uint64 // OpSyncClock modulus (must be > 0)
	Phase   uint64 // OpSyncClock target residue
}

// Mem wraps a memory op.
func Mem(m warp.MemOp) Op { return Op{Kind: OpMem, Mem: m} }

// Wait busy-waits n cycles.
func Wait(n uint64) Op { return Op{Kind: OpWait, Cycles: n} }

// SyncClock waits until clock % modulus == phase.
func SyncClock(modulus, phase uint64) Op {
	return Op{Kind: OpSyncClock, Modulus: modulus, Phase: phase % max64(modulus, 1)}
}

// Done terminates the warp.
func Done() Op { return Op{Kind: OpDone} }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Ctx is the per-warp execution context handed to Program.Step. The SM
// fills it in before every step.
type Ctx struct {
	// SMID is the physical SM the warp landed on (the %smid register).
	SMID int
	// Block and Warp identify the warp within its kernel.
	Block int
	Warp  int
	// Clock is the SM's 32-bit clock register value at step time.
	Clock uint32
	// Clock64 is the unwrapped counter (convenience for long experiments).
	Clock64 uint64
	// LastLatency is the cycles the previous memory op took from first
	// injection to last reply — the receiver's contention probe.
	LastLatency uint64
}

// Program is a warp's instruction stream, expressed as a resumable state
// machine: Step is invoked whenever the warp is ready for its next
// operation. Implementations are single-warp; the factory in KernelSpec
// builds one instance per warp.
type Program interface {
	Step(ctx *Ctx) Op
}

// StepFunc adapts a closure to the Program interface.
type StepFunc func(ctx *Ctx) Op

// Step invokes f.
func (f StepFunc) Step(ctx *Ctx) Op { return f(ctx) }

// KernelSpec describes a kernel launch.
type KernelSpec struct {
	// Name tags the kernel in metrics.
	Name string
	// Blocks is the grid size; each block occupies one SM.
	Blocks int
	// WarpsPerBlock is the number of warps each block runs.
	WarpsPerBlock int
	// New builds the program for (block, warp).
	New func(block, warpID int) Program
}

// Validate checks the spec.
func (k *KernelSpec) Validate() error {
	switch {
	case k.Blocks <= 0:
		return fmt.Errorf("device: kernel %q has %d blocks", k.Name, k.Blocks)
	case k.WarpsPerBlock <= 0:
		return fmt.Errorf("device: kernel %q has %d warps per block", k.Name, k.WarpsPerBlock)
	case k.New == nil:
		return fmt.Errorf("device: kernel %q has no program factory", k.Name)
	}
	return nil
}

// Streamer is the synthetic memory benchmark of Algorithm 1: Count
// sequential warp-wide operations over a buffer, each advancing by the warp
// footprint so that every memory partition is touched. It records the
// latency of each op.
type Streamer struct {
	Base      uint64
	LineBytes int
	Write     bool
	Atomic    bool
	Count     int
	// Uncoalesced selects the 32-requests-per-warp pattern (default
	// coalesced when false).
	Uncoalesced bool
	// WrapBytes, when non-zero, wraps the streaming window so the
	// working set stays L2-resident.
	WrapBytes uint64
	// StartDelay busy-waits before the first access (used to skew
	// contenders).
	StartDelay uint64

	// Latencies accumulates per-op latencies (filled during simulation).
	Latencies []uint64

	issued  int
	started bool
}

// Step implements Program.
func (s *Streamer) Step(ctx *Ctx) Op {
	if !s.started {
		s.started = true
		if s.StartDelay > 0 {
			return Wait(s.StartDelay)
		}
	}
	if s.issued > 0 && ctx.LastLatency > 0 {
		s.Latencies = append(s.Latencies, ctx.LastLatency)
	}
	if s.issued >= s.Count {
		return Done()
	}
	footprint := uint64(s.LineBytes)
	if s.Uncoalesced {
		footprint = uint64(s.LineBytes) * 32
	}
	off := uint64(s.issued) * footprint
	if s.WrapBytes > 0 {
		off %= s.WrapBytes
	}
	s.issued++
	var m warp.MemOp
	switch {
	case s.Atomic:
		m = warp.CoalescedOp(s.Base+off, false)
		m.Atomic = true
	case s.Uncoalesced:
		m = warp.UncoalescedOp(s.Base+off, s.Write, s.LineBytes)
	default:
		m = warp.CoalescedOp(s.Base+off, s.Write)
	}
	return Mem(m)
}

// Issued reports how many memory ops the streamer has issued.
func (s *Streamer) Issued() int { return s.issued }

// ClockReader reads the SM clock register once and terminates — the Fig 6
// survey kernel.
type ClockReader struct {
	Value uint32
	SMID  int
	read  bool
}

// Step implements Program.
func (c *ClockReader) Step(ctx *Ctx) Op {
	if !c.read {
		c.read = true
		c.Value = ctx.Clock
		c.SMID = ctx.SMID
	}
	return Done()
}

// ComputeLoop models a compute-bound kernel: it spins for Count fixed-cost
// iterations without touching memory. Used for the §6 SRR overhead analysis
// (compute-intensive workloads lose nothing under SRR).
type ComputeLoop struct {
	Count      int
	IterCost   uint64
	iterations int
}

// Step implements Program.
func (c *ComputeLoop) Step(ctx *Ctx) Op {
	if c.iterations >= c.Count {
		return Done()
	}
	c.iterations++
	cost := c.IterCost
	if cost == 0 {
		cost = 4
	}
	return Wait(cost)
}

// Package warp models SIMT warps and the memory-access coalescer. A warp
// executes one memory operation across its (up to 32) active lanes; the
// coalescer merges lane addresses that fall into the same cache line into a
// single memory request. §5 of the paper shows the covert channel depends
// critically on this stage: a fully-coalesced sender emits one packet per
// warp and cannot create reliable contention (error > 50%), while an
// uncoalesced sender emits 32 packets and drives the error rate to ~0.1%.
package warp

import (
	"fmt"
)

// LanesNone marks a MemOp with no active lanes (zero requests).
const LanesNone = -1

// MemOp describes one warp-level memory instruction.
type MemOp struct {
	Write  bool
	Atomic bool
	// Base is the address accessed by lane 0.
	Base uint64
	// StrideBytes separates consecutive lanes' addresses. A stride equal
	// to the cache line size makes every lane touch a distinct line
	// (fully uncoalesced, 32 requests); a stride of 4 bytes packs eight
	// lanes per 32-byte line (mostly coalesced).
	StrideBytes uint64
	// Lanes is the number of active lanes; 0 means all SIMT lanes and
	// LanesNone means no lane is active (the op issues no requests, used
	// by the multi-level channel to signal its zero level).
	Lanes int
	// BypassL1 marks the op as compiled with the -dlcm=cg analogue.
	BypassL1 bool
}

// Coalesce appends the unique line addresses touched by op to dst, in lane
// order, and returns the extended slice. This is the number of NoC request
// packets the op generates. A caller that passes the previous result
// truncated to zero length reuses its backing array, so steady-state
// coalescing allocates nothing. Duplicates are found by scanning the lines
// this call already emitted (at most one per lane), newest first: lanes that
// share a line are usually adjacent.
func Coalesce(dst []uint64, op MemOp, simtWidth, lineBytes int) ([]uint64, error) {
	if simtWidth <= 0 {
		return dst, fmt.Errorf("warp: non-positive SIMT width %d", simtWidth)
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return dst, fmt.Errorf("warp: line size %d not a positive power of two", lineBytes)
	}
	lanes := op.Lanes
	switch {
	case lanes == LanesNone:
		return dst, nil
	case lanes == 0:
		lanes = simtWidth
	case lanes < 0 || lanes > simtWidth:
		return dst, fmt.Errorf("warp: %d active lanes out of range for SIMT width %d", lanes, simtWidth)
	}
	mask := ^uint64(lineBytes - 1)
	start := len(dst)
lane:
	for lane := 0; lane < lanes; lane++ {
		la := (op.Base + uint64(lane)*op.StrideBytes) & mask
		for i := len(dst) - 1; i >= start; i-- {
			if dst[i] == la {
				continue lane
			}
		}
		dst = append(dst, la)
	}
	return dst, nil
}

// UncoalescedOp builds a MemOp whose 32 lanes each touch a distinct cache
// line starting at base — the paper's contention-generating pattern.
func UncoalescedOp(base uint64, write bool, lineBytes int) MemOp {
	return MemOp{Write: write, Base: base, StrideBytes: uint64(lineBytes), BypassL1: true}
}

// CoalescedOp builds a MemOp whose lanes all fall into a single line.
func CoalescedOp(base uint64, write bool) MemOp {
	return MemOp{Write: write, Base: base, StrideBytes: 0, BypassL1: true}
}

// PartialOp builds a MemOp touching exactly uniqueLines distinct lines using
// a subset of lanes — the knob behind the multi-level (2-bit) channel of §5,
// which signals with 0, 8, 16, or 32 unique requests per warp.
func PartialOp(base uint64, write bool, lineBytes, uniqueLines, simtWidth int) (MemOp, error) {
	if uniqueLines < 0 || uniqueLines > simtWidth {
		return MemOp{}, fmt.Errorf("warp: uniqueLines %d out of [0, %d]", uniqueLines, simtWidth)
	}
	lanes := uniqueLines
	if lanes == 0 {
		lanes = LanesNone
	}
	return MemOp{
		Write:       write,
		Base:        base,
		StrideBytes: uint64(lineBytes),
		Lanes:       lanes,
		BypassL1:    true,
	}, nil
}

// State tracks one resident warp on an SM.
type State int

const (
	// Ready means the warp can issue its next operation.
	Ready State = iota
	// WaitingMem means a memory operation is outstanding.
	WaitingMem
	// WaitingCycle means the warp is busy-waiting until a target cycle.
	WaitingCycle
	// Finished means the warp's program completed.
	Finished
)

// String names the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case WaitingMem:
		return "waiting-mem"
	case WaitingCycle:
		return "waiting-cycle"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Warp is the scheduling record for one resident warp.
type Warp struct {
	ID    int
	State State

	// Outstanding is the number of memory requests in flight for the
	// current MemOp; the op completes when it reaches zero (warp latency
	// is the latency of the last returning request, §5).
	Outstanding int
	// OpSeq numbers the warp's memory operations for reply matching and
	// CRR grouping.
	OpSeq uint64
	// OpStart is the cycle the current memory op began (first injection).
	OpStart uint64
	// WakeAt is the cycle a WaitingCycle warp becomes ready.
	WakeAt uint64
	// LastLatency is the observed latency of the most recent completed
	// memory op — the receiver's measurement (Fig 7).
	LastLatency uint64
}

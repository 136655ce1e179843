// Package sched provides the activity tracking that lets the engine skip
// provably idle components. Exhaustively ticking all 80 SMs, every NoC link,
// and all 48 L2 slices + 24 memory controllers each cycle wastes almost all
// of the tick loop on idle silicon: the paper's protocols are dominated by
// sparse traffic (a couple of SMs probing while the rest of the chip is
// dark), so the engine instead keeps one ActiveSet per component tier and
// ticks only the members that can do work.
//
// The contract that keeps activity-driven ticking cycle-for-cycle identical
// to exhaustive ticking:
//
//   - A component may be parked only when ticking it is a no-op: no queued
//     or in-flight work, no internal future event (a sleeping warp, a due
//     reply, a pipelined packet). Components expose this as Idle() or a
//     finer-grained quiescence predicate; parking is always conservative.
//   - Every externally visible input edge wakes the component again:
//     link.Enqueue, mem's Slice.Accept, dram's Controller.Enqueue, and the
//     SM's AddWarp/OnReply all fire the waker their container registered.
//   - Iteration order over an ActiveSet is the component index order, which
//     is exactly the order the exhaustive loops used — so the components
//     that do tick observe the same cycle-local sequencing either way.
//
// Wakes are idempotent and may arrive mid-cycle: a component woken by a tier
// that ticks earlier in the same cycle (an SM injecting into its TPC link)
// is ticked later that same cycle, while one woken by a later tier (a slice
// emitting a reply into the return network) first ticks next cycle — again
// matching the exhaustive schedule, where those links were ticked before the
// packet existed.
package sched

import "fmt"

// ActiveSet tracks which members of a fixed-size component tier need to be
// ticked. The zero value is unusable; use NewActiveSet. It is not safe for
// concurrent use; the tick loop that owns it is single-goroutine.
type ActiveSet struct {
	active []bool
	n      int
}

// NewActiveSet returns a set over members [0, size), all initially parked.
func NewActiveSet(size int) *ActiveSet {
	if size < 0 {
		panic(fmt.Sprintf("sched: negative active-set size %d", size))
	}
	return &ActiveSet{active: make([]bool, size)}
}

// Wake marks member i active. Waking an already-active member is a no-op,
// so wake edges can fire once per event without guarding.
func (s *ActiveSet) Wake(i int) {
	if !s.active[i] {
		s.active[i] = true
		s.n++
	}
}

// Park marks member i inactive. Parking must only happen when ticking the
// member is a no-op until its next wake edge.
func (s *ActiveSet) Park(i int) {
	if s.active[i] {
		s.active[i] = false
		s.n--
	}
}

// Active reports whether member i is awake.
func (s *ActiveSet) Active(i int) bool { return s.active[i] }

// Len returns the number of awake members.
func (s *ActiveSet) Len() int { return s.n }

// Empty reports whether no member is awake — the whole tier can be skipped.
func (s *ActiveSet) Empty() bool { return s.n == 0 }

// Size returns the tier size.
func (s *ActiveSet) Size() int { return len(s.active) }

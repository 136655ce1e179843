// Checkpoint support for the memory partition. A slice serializes its
// ingress queue, scheduled replies and fills (the heap arrays verbatim, so
// a re-snapshot of restored state is byte-identical), MSHR waiter lists,
// retry queue, atomic serialization horizon, jitter RNG position, and
// counters. The partition serializes its controllers (whose queued requests
// carry their origin slice, letting restore rebuild the completion
// closures) and the activity bits of every tier in a mode-independent form:
// bits are read from the active sets (or, in exhaustive mode, derived from
// Idle) and routed into the restoring engine's sets, if it has any.
package mem

import (
	"sort"

	"gpunoc/internal/packet"
	"gpunoc/internal/sched"
	"gpunoc/internal/snap"
)

// Snapshot appends the slice's mutable state to the encoder.
func (s *Slice) Snapshot(e *snap.Encoder) {
	e.Int(s.inq.Len())
	for i := 0; i < s.inq.Len(); i++ {
		packet.Encode(e, *s.inq.At(i))
	}
	e.Int(len(s.replies))
	for i := range s.replies {
		e.U64(s.replies[i].at)
		packet.Encode(e, s.replies[i].p)
		e.U64(s.replies[i].seq)
	}
	e.Int(len(s.fills))
	for i := range s.fills {
		e.U64(s.fills[i].at)
		e.U64(s.fills[i].la)
		e.U64(s.fills[i].seq)
	}
	e.U64(s.seq)
	las := make([]uint64, 0, len(s.waiting))
	for la := range s.waiting {
		las = append(las, la)
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	e.Int(len(las))
	for _, la := range las {
		e.U64(la)
		e.Int(len(s.waiting[la]))
		for _, w := range s.waiting[la] {
			packet.Encode(e, w)
		}
	}
	e.Int(s.retries.Len())
	for i := 0; i < s.retries.Len(); i++ {
		e.U64(*s.retries.At(i))
	}
	las = las[:0]
	for la := range s.atomicFree {
		las = append(las, la)
	}
	sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
	e.Int(len(las))
	for _, la := range las {
		e.U64(la)
		e.U64(s.atomicFree[la])
	}
	e.U64(s.served)
	e.U64(s.hits)
	e.U64(s.misses)
	e.U64(s.src.Draws())
	e.Bool(s.pr != nil)
	if s.pr != nil {
		las = las[:0]
		for la := range s.pr.missStart {
			las = append(las, la)
		}
		sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
		e.Int(len(las))
		for _, la := range las {
			e.U64(la)
			e.U64(s.pr.missStart[la])
		}
	}
	s.cache.Snapshot(e)
}

// Restore reads state written by Snapshot into a slice built from the same
// configuration.
func (s *Slice) Restore(d *snap.Decoder) error {
	for s.inq.Len() > 0 {
		s.inq.Pop()
	}
	n := d.Len()
	for i := 0; i < n; i++ {
		s.inq.Push(packet.Decode(d))
	}
	n = d.Len()
	s.replies = make(replyHeap, 0, n)
	for i := 0; i < n; i++ {
		var r scheduledReply
		r.at = d.U64()
		r.p = packet.Decode(d)
		r.seq = d.U64()
		s.replies = append(s.replies, r)
	}
	n = d.Len()
	s.fills = make(fillHeap, 0, n)
	for i := 0; i < n; i++ {
		var f scheduledFill
		f.at = d.U64()
		f.la = d.U64()
		f.seq = d.U64()
		s.fills = append(s.fills, f)
	}
	s.seq = d.U64()
	s.waiting = make(map[uint64][]*packet.Packet)
	n = d.Len()
	for i := 0; i < n; i++ {
		la := d.U64()
		m := d.Len()
		ws := make([]*packet.Packet, 0, m)
		for j := 0; j < m; j++ {
			ws = append(ws, packet.Decode(d))
		}
		s.waiting[la] = ws
	}
	for s.retries.Len() > 0 {
		s.retries.Pop()
	}
	n = d.Len()
	for i := 0; i < n; i++ {
		s.retries.Push(d.U64())
	}
	s.atomicFree = make(map[uint64]uint64)
	n = d.Len()
	for i := 0; i < n; i++ {
		la := d.U64()
		s.atomicFree[la] = d.U64()
	}
	s.served = d.U64()
	s.hits = d.U64()
	s.misses = d.U64()
	s.src.SeekTo(d.U64())
	if d.Bool() {
		n = d.Len()
		for i := 0; i < n; i++ {
			la := d.U64()
			at := d.U64()
			if s.pr != nil {
				s.pr.missStart[la] = at
			}
		}
	}
	return s.cache.Restore(d)
}

// Snapshot appends the partition's mutable state — every controller, every
// slice, and the canonical per-component activity bits — to the encoder.
func (p *Partition) Snapshot(e *snap.Encoder) {
	e.Mark("mem")
	e.Int(len(p.mcs))
	for _, mc := range p.mcs {
		mc.Snapshot(e)
	}
	e.Int(len(p.slices))
	for _, s := range p.slices {
		s.Snapshot(e)
	}
	for i, mc := range p.mcs {
		e.Bool(activeBit(p.actMCs, i, mc.Idle()))
	}
	for i, s := range p.slices {
		e.Bool(activeBit(p.actSlices, i, s.Idle()))
	}
}

// activeBit reads member i's activity bit from its tier's set; exhaustive
// mode has no sets, so the bit is derived conservatively from Idle.
func activeBit(set *sched.ActiveSet, i int, idle bool) bool {
	if set != nil {
		return set.Active(i)
	}
	return !idle
}

// Restore reads state written by Snapshot into a partition built from the
// same configuration, rebuilding the completion closure of every queued
// DRAM request from its recorded origin slice: pending line fetches
// reschedule their fill into the owning slice, writebacks complete
// silently (mirroring the closures built on the miss path).
func (p *Partition) Restore(d *snap.Decoder) error {
	d.Expect("mem")
	if n := d.Int(); d.Err() == nil && n != len(p.mcs) {
		return snap.Corruptf("snapshot holds %d memory controllers, partition has %d", n, len(p.mcs))
	}
	rebuild := func(origin int, addr uint64, write bool) func(now uint64) {
		if write || origin < 0 || origin >= len(p.slices) {
			return func(uint64) {}
		}
		sl := p.slices[origin]
		la := addr
		return func(at uint64) { sl.scheduleFill(at, la) }
	}
	for _, mc := range p.mcs {
		if err := mc.Restore(d, rebuild); err != nil {
			return err
		}
	}
	if n := d.Int(); d.Err() == nil && n != len(p.slices) {
		return snap.Corruptf("snapshot holds %d L2 slices, partition has %d", n, len(p.slices))
	}
	for _, s := range p.slices {
		if err := s.Restore(d); err != nil {
			return err
		}
	}
	for i := range p.mcs {
		if d.Bool() && p.actMCs != nil {
			p.actMCs.Wake(i)
		}
	}
	for i := range p.slices {
		if d.Bool() && p.actSlices != nil {
			p.actSlices.Wake(i)
		}
	}
	return d.Err()
}

// Package mem implements the GPU memory partitions: the banked L2 cache (48
// slices of 96 KB on the Table 1 configuration), the address interleaving
// that spreads line addresses across slices, and the memory controllers
// behind them. Each slice services one request per cycle; covert-channel
// probe data is preloaded so the traffic of interest always hits in L2 and
// the timing signal is dominated by NoC contention, exactly as in §4.2 of
// the paper (which disables L1 and sizes the working set to L2).
package mem

import (
	"fmt"
	"math/rand"

	"gpunoc/internal/cache"
	"gpunoc/internal/config"
	"gpunoc/internal/dram"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/ring"
	"gpunoc/internal/sched"
)

// Deliver receives completed reply packets from a slice.
type Deliver func(now uint64, p *packet.Packet)

// event is a slice action due at cycle at: a reply p to emit, or a fill of
// line la to complete. seq numbers events in scheduling order, so (at, seq)
// keys are unique and every pop order is deterministic.
type event struct {
	at, seq uint64
	p       *packet.Packet
	la      uint64
}

// eventHeap is a binary min-heap of events keyed by (at, seq). Elements are
// stored by value, so push and pop allocate nothing once the backing array
// has grown to the slice's peak backlog.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // do not pin the popped packet
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.less(r, m) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Slice is one L2 cache slice plus its share of a memory controller.
type Slice struct {
	id         int
	cache      *cache.Cache
	hitLatency uint64
	atomicLat  uint64
	mc         *dram.Controller
	out        Deliver
	lineBytes  uint64
	numSlices  uint64

	inq     ring.Buffer[*packet.Packet]
	replies eventHeap // replies due to leave the slice
	fills   eventHeap // DRAM fills due to land in the cache
	seq     uint64
	waiting map[uint64][]*packet.Packet // line addr -> packets on an MSHR
	spare   [][]*packet.Packet          // emptied waiting lists, reused by later misses
	wake    func()                      // activity wake edge (see SetWaker); nil outside a scheduler

	rng       *rand.Rand
	jitterMax int
	retries   ring.Buffer[uint64] // line fetches whose MC submission must be retried

	// atomicFree serializes atomics per line: the cycle each line's
	// read-modify-write unit frees up. Consecutive atomics to one address
	// queue behind each other, which is the contention the global-memory
	// baseline covert channel exploits (Table 2).
	atomicFree map[uint64]uint64

	// Counters.
	served, hits, misses uint64

	pr *sliceProbes // nil when uninstrumented (the fast path)
}

// sliceProbes holds the slice's latency histograms and ingress-depth gauge.
// missStart records the cycle each line's first miss entered the MSHR so
// completeFill can observe the full miss (MSHR residency) latency.
type sliceProbes struct {
	hitLat    *probe.Hist // cycles from service start to reply emission, hits
	missLat   *probe.Hist // cycles from MSHR allocation to fill completion
	inqDepth  *probe.Gauge
	missStart map[uint64]uint64
}

// Instrument registers this slice's metrics with r under the given prefix
// (e.g. "mem/slice3") and instruments its L2 cache under prefix+"/l2". A nil
// registry leaves the slice uninstrumented.
func (s *Slice) Instrument(r *probe.Registry, prefix string) {
	if r == nil {
		return
	}
	s.pr = &sliceProbes{
		hitLat:    r.Hist(prefix + "/hit_latency"),
		missLat:   r.Hist(prefix + "/miss_latency"),
		inqDepth:  r.Gauge(prefix + "/inq_depth"),
		missStart: make(map[uint64]uint64),
	}
	s.cache.Instrument(r, prefix+"/l2")
}

func newSlice(id int, cfg *config.Config, mc *dram.Controller, out Deliver, seed int64) (*Slice, error) {
	c, err := cache.New(cfg.L2SliceSizeBytes, cfg.L2LineBytes, cfg.L2Ways, cfg.L2MSHRs)
	if err != nil {
		return nil, err
	}
	return &Slice{
		id:         id,
		cache:      c,
		hitLatency: uint64(cfg.L2HitLatency),
		atomicLat:  uint64(cfg.L2HitLatency) + 8,
		mc:         mc,
		out:        out,
		lineBytes:  uint64(cfg.L2LineBytes),
		numSlices:  uint64(cfg.NumL2Slices),
		waiting:    make(map[uint64][]*packet.Packet),
		atomicFree: make(map[uint64]uint64),
		rng:        rand.New(rand.NewSource(seed)),
		jitterMax:  cfg.L2ServiceJitter,
	}, nil
}

// atomicSerialize is the per-line busy time of the L2 read-modify-write
// unit, in cycles.
const atomicSerialize = 20

// localAddr maps a global address to the slice-local address space: lines
// are interleaved across slices, so a slice owns every numSlices-th line.
// Indexing the cache with the dense local line number uses all sets; the
// global line number would alias to 1/numSlices of them.
func (s *Slice) localAddr(addr uint64) uint64 {
	lineNo := addr / s.lineBytes
	return (lineNo/s.numSlices)*s.lineBytes + addr%s.lineBytes
}

// SetWaker registers the activity wake edge: w is invoked on every Accept,
// so the container that parked this slice (because Idle() held) knows to
// tick it again. Accept is the only external event that can make an idle
// slice non-idle: replies, fills, MSHR waiters and retries all descend from
// a previously accepted request, during which the slice is never parked. A
// nil waker (the default) is correct when the slice is ticked exhaustively.
func (s *Slice) SetWaker(w func()) { s.wake = w }

// Accept hands a request packet to the slice. Called by the NoC delivery
// path; the slice's ingress rate limit is enforced by the NoC link feeding
// it, so Accept never rejects.
func (s *Slice) Accept(now uint64, p *packet.Packet) {
	if !p.Kind.IsRequest() {
		panic(fmt.Sprintf("mem: slice %d received non-request %v", s.id, p))
	}
	s.inq.Push(p)
	if s.pr != nil {
		s.pr.inqDepth.Add(1)
	}
	if s.wake != nil {
		s.wake()
	}
}

func (s *Slice) jitter() uint64 {
	if s.jitterMax <= 0 {
		return 0
	}
	return uint64(s.rng.Intn(s.jitterMax + 1))
}

// scheduleReply turns the serviced request req into its reply in place and
// schedules it to leave the slice at cycle at. Nothing else holds a request
// once its slice has serviced it, and every field but Kind already is the
// reply's.
func (s *Slice) scheduleReply(at uint64, req *packet.Packet) {
	rk, err := packet.ReplyKind(req.Kind)
	if err != nil {
		panic(err)
	}
	req.Kind = rk
	s.seq++
	s.replies.push(event{at: at, seq: s.seq, p: req})
}

// Tick advances the slice one cycle: due replies are emitted, then at most
// one new request starts service.
func (s *Slice) Tick(now uint64) {
	for len(s.replies) > 0 && s.replies[0].at <= now {
		s.out(now, s.replies.pop().p)
	}
	for len(s.fills) > 0 && s.fills[0].at <= now {
		e := s.fills.pop()
		s.completeFill(e.at, e.la)
	}
	if s.retries.Len() > 0 {
		if s.mc.Enqueue(now, dram.Request{Addr: *s.retries.Front(), Slice: s.id}) {
			s.retries.Pop()
		}
	}
	if s.inq.Len() == 0 {
		return
	}
	p := *s.inq.Front()
	write := p.Kind == packet.WriteReq
	switch s.cache.Access(s.localAddr(p.Addr), write) {
	case cache.Hit:
		s.hits++
		lat := s.hitLatency
		start := now
		if p.Kind == packet.AtomicReq {
			lat = s.atomicLat
			la := s.cache.LineAddr(s.localAddr(p.Addr))
			if free := s.atomicFree[la]; free > start {
				start = free
			}
			s.atomicFree[la] = start + atomicSerialize
		}
		at := start + lat + s.jitter()
		if s.pr != nil {
			s.pr.hitLat.Observe(at - now)
		}
		s.scheduleReply(at, p)
	case cache.Miss:
		s.misses++
		la := s.cache.LineAddr(s.localAddr(p.Addr))
		s.wait(la, p)
		if s.pr != nil {
			s.pr.missStart[la] = now
		}
		// Fetch-on-miss, for writes too: they allocate, then dirty the line.
		if !s.mc.Enqueue(now, dram.Request{Addr: la, Slice: s.id}) {
			// MC queue full: retry on subsequent ticks. The MSHR stays
			// allocated; completeFill drains all waiters when the retried
			// fetch eventually lands.
			s.retries.Push(la)
		}
	case cache.MissMerged:
		s.misses++
		s.wait(s.cache.LineAddr(s.localAddr(p.Addr)), p)
	case cache.Stall:
		// MSHR file full: leave the packet queued and stall this cycle.
		return
	}
	s.inq.Pop()
	s.served++
	if s.pr != nil {
		s.pr.inqDepth.Add(-1)
	}
}

// wait parks p on line la's MSHR, starting the line's list from a recycled
// backing array when one is spare.
func (s *Slice) wait(la uint64, p *packet.Packet) {
	ws, ok := s.waiting[la]
	if !ok && len(s.spare) > 0 {
		ws = s.spare[len(s.spare)-1]
		s.spare = s.spare[:len(s.spare)-1]
	}
	s.waiting[la] = append(ws, p)
}

// scheduleFill defers the cache fill to the cycle the DRAM data transfer
// completes; installing it at callback time would let younger requests hit
// before the data actually arrived.
func (s *Slice) scheduleFill(at, la uint64) {
	s.seq++
	s.fills.push(event{at: at, seq: s.seq, la: la})
}

func (s *Slice) completeFill(at uint64, la uint64) {
	if s.pr != nil {
		if start, ok := s.pr.missStart[la]; ok {
			s.pr.missLat.Observe(at - start)
			delete(s.pr.missStart, la)
		}
	}
	ws := s.waiting[la]
	write := false
	for _, w := range ws {
		if w.Kind == packet.WriteReq {
			write = true
		}
	}
	if _, wb := s.cache.Fill(la, write); wb {
		// Writeback of the victim: fire-and-forget to DRAM. If the MC
		// queue is full the writeback is dropped; the model tracks timing,
		// not data, so this only slightly under-counts DRAM load.
		s.mc.Enqueue(at, dram.Request{Addr: la ^ 0x1, Write: true, Slice: s.id})
	}
	for _, w := range ws {
		lat := s.hitLatency
		if w.Kind == packet.AtomicReq {
			lat = s.atomicLat
		}
		s.scheduleReply(at+lat+s.jitter(), w)
	}
	delete(s.waiting, la)
	if ws != nil {
		s.spare = append(s.spare, ws[:0])
	}
}

// Preload installs the line containing addr (a global address) without
// generating traffic, modeling a warmed L2 (the covert-channel kernels touch
// their buffers once before signaling).
func (s *Slice) Preload(addr uint64) { s.cache.Fill(s.localAddr(addr), false) }

// Idle reports whether the slice holds no queued work. An idle slice's Tick
// is a no-op (all schedules are absolute cycles, nothing counts down), so
// the scheduler may park it until the next Accept.
func (s *Slice) Idle() bool {
	return s.inq.Len() == 0 && len(s.replies) == 0 && len(s.waiting) == 0 &&
		s.retries.Len() == 0 && len(s.fills) == 0
}

// Stats is a snapshot of slice counters.
type SliceStats struct {
	Served, Hits, Misses uint64
}

// Stats returns the slice counters.
func (s *Slice) Stats() SliceStats { return SliceStats{s.served, s.hits, s.misses} }

// Partition owns every L2 slice and memory controller of the GPU and routes
// line addresses to slices.
type Partition struct {
	cfg    *config.Config
	slices []*Slice
	mcs    []*dram.Controller

	// Activity-driven scheduling: members are woken by their Accept/Enqueue
	// edges and parked by Tick once Idle() holds (never, under
	// cfg.ExhaustiveTick; see sched.NewActiveSet).
	actSlices *sched.ActiveSet
	actMCs    *sched.ActiveSet

	sliceTicks *probe.Counter // nil when uninstrumented
	mcTicks    *probe.Counter
}

// NewPartition builds all slices and controllers. out receives every reply
// packet together with the slice it came from (packets carry Slice).
func NewPartition(cfg *config.Config, out Deliver) (*Partition, error) {
	if out == nil {
		return nil, fmt.Errorf("mem: nil delivery sink")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Partition{cfg: cfg}
	p.mcs = make([]*dram.Controller, cfg.NumMCs)
	for i := range p.mcs {
		mc, err := dram.NewController(cfg.DRAM, cfg.DRAMBanksPME, 2048, cfg.MCQueueDepth, p.dramDone)
		if err != nil {
			return nil, err
		}
		if cfg.Probes != nil {
			mc.Instrument(cfg.Probes, fmt.Sprintf("dram/mc%d", i))
		}
		p.mcs[i] = mc
	}
	p.slices = make([]*Slice, cfg.NumL2Slices)
	for i := range p.slices {
		mc := p.mcs[i/cfg.SlicesPerMC()]
		sl, err := newSlice(i, cfg, mc, out, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		if cfg.Probes != nil {
			sl.Instrument(cfg.Probes, fmt.Sprintf("mem/slice%d", i))
		}
		p.slices[i] = sl
	}
	p.actMCs = sched.NewActiveSet(len(p.mcs), cfg.ExhaustiveTick)
	for i, mc := range p.mcs {
		mc.SetWaker(func() { p.actMCs.Wake(i) })
	}
	p.actSlices = sched.NewActiveSet(len(p.slices), cfg.ExhaustiveTick)
	for i, sl := range p.slices {
		sl.SetWaker(func() { p.actSlices.Wake(i) })
	}
	if cfg.Probes != nil {
		p.sliceTicks = cfg.Probes.Counter("sched/slice_ticks")
		p.mcTicks = cfg.Probes.Counter("sched/mc_ticks")
	}
	return p, nil
}

// dramDone is every controller's completion callback: a line fetch lands in
// the cache of the slice that issued it; writebacks need no completion.
func (p *Partition) dramDone(at uint64, r dram.Request) {
	if !r.Write {
		p.slices[r.Slice].scheduleFill(at, r.Addr)
	}
}

// SliceFor returns the slice index servicing addr: line-interleaved across
// all slices, the standard GPU partitioning that spreads sequential traffic
// over every memory partition (Algorithm 1 relies on this).
func (p *Partition) SliceFor(addr uint64) int {
	return int((addr / uint64(p.cfg.L2LineBytes)) % uint64(len(p.slices)))
}

// Slice returns slice i.
func (p *Partition) Slice(i int) *Slice { return p.slices[i] }

// NumSlices returns the slice count.
func (p *Partition) NumSlices() int { return len(p.slices) }

// Accept routes a request packet to its slice (p.Slice must be prerouted by
// the NoC; this method asserts consistency).
func (p *Partition) Accept(now uint64, pkt *packet.Packet) {
	want := p.SliceFor(pkt.Addr)
	if pkt.Slice != want {
		panic(fmt.Sprintf("mem: packet routed to slice %d, addr belongs to %d", pkt.Slice, want))
	}
	p.slices[want].Accept(now, pkt)
}

// Preload warms the L2 with every line in [base, base+size).
func (p *Partition) Preload(base, size uint64) {
	line := uint64(p.cfg.L2LineBytes)
	for addr := base &^ (line - 1); addr < base+size; addr += line {
		p.slices[p.SliceFor(addr)].Preload(addr)
	}
}

// Tick advances every active slice and controller one cycle, in ascending
// order: controllers first (a slice miss this cycle therefore reaches its
// controller next cycle, with or without the scheduler), then slices.
func (p *Partition) Tick(now uint64) {
	if !p.actMCs.Empty() {
		for i, mc := range p.mcs {
			if !p.actMCs.Active(i) {
				continue
			}
			mc.Tick(now)
			if p.mcTicks != nil {
				p.mcTicks.Inc()
			}
			if mc.Idle() {
				p.actMCs.Park(i)
			}
		}
	}
	if !p.actSlices.Empty() {
		for i, s := range p.slices {
			if !p.actSlices.Active(i) {
				continue
			}
			s.Tick(now)
			if p.sliceTicks != nil {
				p.sliceTicks.Inc()
			}
			if s.Idle() {
				p.actSlices.Park(i)
			}
		}
	}
}

// Quiet reports whether the activity scheduler has every slice and
// controller parked, i.e. the next Tick would do no work. Never true in
// exhaustive mode, where nothing parks.
func (p *Partition) Quiet() bool {
	return p.actMCs.Empty() && p.actSlices.Empty()
}

// Idle reports whether all slices and controllers are drained.
func (p *Partition) Idle() bool {
	for _, s := range p.slices {
		if !s.Idle() {
			return false
		}
	}
	for _, mc := range p.mcs {
		if !mc.Idle() {
			return false
		}
	}
	return true
}

// Stats sums slice counters across the partition.
func (p *Partition) Stats() SliceStats {
	var t SliceStats
	for _, s := range p.slices {
		st := s.Stats()
		t.Served += st.Served
		t.Hits += st.Hits
		t.Misses += st.Misses
	}
	return t
}

// Package noc assembles the hierarchical GPU on-chip network that the paper
// reverse-engineers (§3): on the request path, each SM feeds a 2:1 TPC mux
// whose output (the "TPC channel") joins the other TPCs of its GPC at a
// concentrating GPC mux with bandwidth speedup (the "GPC channel"); GPC
// channels meet a crossbar with one rate-limited port per L2 slice. The
// reply path mirrors the hierarchy on the second subnet with its own
// (calibrated) speedups. Every mux is an arb.Arbiter-driven link.Link, so
// swapping the arbitration policy (§6) changes the whole fabric at once.
package noc

import (
	"fmt"

	"gpunoc/internal/arb"
	"gpunoc/internal/config"
	"gpunoc/internal/link"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/sched"
)

// Deliver receives packets at the fabric edges.
type Deliver func(now uint64, p *packet.Packet)

// Network is the assembled two-subnet fabric.
type Network struct {
	cfg *config.Config

	// Request subnet.
	reqTPC []*link.Link // one per TPC, fan-in = SMs per TPC
	reqGPC []*link.Link // one per GPC, fan-in = TPCs in that GPC
	xbarIn []*link.Link // one per L2 slice, fan-in = GPCs
	// Reply subnet.
	repGPC []*link.Link // one per GPC, fan-in = L2 slices
	repTPC []*link.Link // one per TPC, fan-in = 1 (demux below the GPC link)

	// tpcSlot[t] is the input index of TPC t on its GPC mux.
	tpcSlot []int

	toSlice Deliver // request egress (the memory partition)
	toSM    Deliver // reply egress (the SMs)

	// Activity-driven scheduling: one active set per tick group, in tick
	// order. A link is woken by its Enqueue edge and parked by Tick once
	// Idle() holds; because upstream groups tick before downstream ones, an
	// enqueue made while ticking group k reaches a group >k link the same
	// cycle, exactly as under exhaustive ticking. All sets are nil when
	// cfg.ExhaustiveTick is set, selecting the tick-everything reference
	// path.
	actReqTPC *sched.ActiveSet
	actReqGPC *sched.ActiveSet
	actXbar   *sched.ActiveSet
	actRepGPC *sched.ActiveSet
	actRepTPC *sched.ActiveSet

	linkTicks *probe.Counter // nil when uninstrumented
}

// New wires the fabric for cfg. toSlice receives request packets at their
// destination L2 slice; toSM receives reply packets at their destination SM.
// Arbitration at every mux follows cfg.NoC.Arbitration.
func New(cfg *config.Config, toSlice, toSM Deliver) (*Network, error) {
	if toSlice == nil || toSM == nil {
		return nil, fmt.Errorf("noc: nil egress sink")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, toSlice: toSlice, toSM: toSM}
	nc := cfg.NoC

	mkArb := func(inputs int) (arb.Arbiter, error) {
		return arb.New(nc.Arbitration, inputs, nc.CRRHoldLimit, packet.DataFlits)
	}

	numTPC := cfg.NumTPCs()
	n.tpcSlot = make([]int, numTPC)
	for g := 0; g < cfg.NumGPCs; g++ {
		for slot, t := range cfg.TPCsOfGPC(g) {
			n.tpcSlot[t] = slot
		}
	}

	// Crossbar ports toward the slices (built first: upstream links
	// deliver into them).
	n.xbarIn = make([]*link.Link, cfg.NumL2Slices)
	for s := 0; s < cfg.NumL2Slices; s++ {
		a, err := mkArb(cfg.NumGPCs)
		if err != nil {
			return nil, err
		}
		l, err := link.New(fmt.Sprintf("xbar->slice%d", s), cfg.NumGPCs,
			nc.SliceAcceptRateNum, nc.SliceAcceptDen, nc.XbarLatency, a, n.deliverToSlice)
		if err != nil {
			return nil, err
		}
		n.xbarIn[s] = l
	}

	// GPC request channels: deliver into the crossbar port of the packet's
	// destination slice, on the input belonging to this GPC.
	n.reqGPC = make([]*link.Link, cfg.NumGPCs)
	for g := 0; g < cfg.NumGPCs; g++ {
		g := g
		fanIn := len(cfg.TPCsOfGPC(g))
		a, err := mkArb(fanIn)
		if err != nil {
			return nil, err
		}
		l, err := link.New(fmt.Sprintf("gpc%d-req", g), fanIn,
			nc.GPCReqRateNum, nc.GPCReqRateDen, nc.GPCLinkLatency, a,
			func(now uint64, p *packet.Packet) {
				n.xbarIn[p.Slice].Enqueue(now, g, p)
			})
		if err != nil {
			return nil, err
		}
		n.reqGPC[g] = l
	}

	// TPC request channels (the 2:1 SM muxes): deliver into this TPC's
	// slot on its GPC mux.
	n.reqTPC = make([]*link.Link, numTPC)
	for t := 0; t < numTPC; t++ {
		t := t
		g := cfg.GPCOfTPC(t)
		slot := n.tpcSlot[t]
		a, err := mkArb(cfg.SMsPerTPC)
		if err != nil {
			return nil, err
		}
		l, err := link.New(fmt.Sprintf("tpc%d-req", t), cfg.SMsPerTPC,
			nc.TPCReqRateNum, nc.TPCReqRateDen, nc.TPCLinkLatency, a,
			func(now uint64, p *packet.Packet) {
				n.reqGPC[g].Enqueue(now, slot, p)
			})
		if err != nil {
			return nil, err
		}
		n.reqTPC[t] = l
	}

	// Reply TPC channels: demux below the GPC reply link, one input.
	n.repTPC = make([]*link.Link, numTPC)
	for t := 0; t < numTPC; t++ {
		a, err := mkArb(1)
		if err != nil {
			return nil, err
		}
		l, err := link.New(fmt.Sprintf("tpc%d-rep", t), 1,
			nc.TPCRepRateNum, nc.TPCRepRateDen, nc.ReplyTPCLatency, a, link.Deliver(n.toSM))
		if err != nil {
			return nil, err
		}
		n.repTPC[t] = l
	}

	// Reply GPC channels: all slices feed them through the return
	// crossbar; the calibrated fractional speedup lives here (Fig 5b).
	n.repGPC = make([]*link.Link, cfg.NumGPCs)
	for g := 0; g < cfg.NumGPCs; g++ {
		a, err := mkArb(cfg.NumL2Slices)
		if err != nil {
			return nil, err
		}
		l, err := link.New(fmt.Sprintf("gpc%d-rep", g), cfg.NumL2Slices,
			nc.GPCRepRateNum, nc.GPCRepRateDen, nc.ReplyGPCLatency+nc.ReplyXbarLat, a,
			func(now uint64, p *packet.Packet) {
				n.repTPC[cfg.TPCOfSM(p.Tag.SM)].Enqueue(now, 0, p)
			})
		if err != nil {
			return nil, err
		}
		n.repGPC[g] = l
	}

	if cfg.Probes != nil {
		for _, group := range [][]*link.Link{n.reqTPC, n.reqGPC, n.xbarIn, n.repGPC, n.repTPC} {
			for _, l := range group {
				l.Instrument(cfg.Probes, "noc/")
			}
		}
		n.linkTicks = cfg.Probes.Counter("sched/link_ticks")
	}

	if !cfg.ExhaustiveTick {
		wire := func(group []*link.Link) *sched.ActiveSet {
			set := sched.NewActiveSet(len(group))
			for i, l := range group {
				l.SetWaker(func() { set.Wake(i) })
			}
			return set
		}
		n.actReqTPC = wire(n.reqTPC)
		n.actReqGPC = wire(n.reqGPC)
		n.actXbar = wire(n.xbarIn)
		n.actRepGPC = wire(n.repGPC)
		n.actRepTPC = wire(n.repTPC)
	}

	return n, nil
}

func (n *Network) deliverToSlice(now uint64, p *packet.Packet) {
	n.toSlice(now, p)
}

// InjectRequest enters a request packet at SM sm's port of its TPC mux.
// The packet's Slice must already be routed (the engine sets it from the
// address interleave).
func (n *Network) InjectRequest(now uint64, sm int, p *packet.Packet) {
	if !p.Kind.IsRequest() {
		panic(fmt.Sprintf("noc: injecting non-request %v", p))
	}
	if p.Slice < 0 || p.Slice >= n.cfg.NumL2Slices {
		panic(fmt.Sprintf("noc: packet %v has unrouted slice", p))
	}
	t := n.cfg.TPCOfSM(sm)
	n.reqTPC[t].Enqueue(now, sm%n.cfg.SMsPerTPC, p)
}

// InjectReply enters a reply packet at its slice's port of the return
// crossbar, heading to the GPC of the destination SM.
func (n *Network) InjectReply(now uint64, p *packet.Packet) {
	if p.Kind.IsRequest() {
		panic(fmt.Sprintf("noc: injecting request on reply subnet: %v", p))
	}
	g := n.cfg.GPCOfSM(p.Tag.SM)
	n.repGPC[g].Enqueue(now, p.Slice, p)
}

// Tick advances every link one cycle. Links are ticked leaf-to-root on the
// request path and root-to-leaf on the reply path so a packet can traverse
// at most one hop per cycle deterministically. Under activity-driven
// scheduling only active links tick, in the same group and index order.
func (n *Network) Tick(now uint64) {
	if n.actReqTPC == nil {
		for _, l := range n.reqTPC {
			l.Tick(now)
		}
		for _, l := range n.reqGPC {
			l.Tick(now)
		}
		for _, l := range n.xbarIn {
			l.Tick(now)
		}
		for _, l := range n.repGPC {
			l.Tick(now)
		}
		for _, l := range n.repTPC {
			l.Tick(now)
		}
		return
	}
	n.tickGroup(now, n.actReqTPC, n.reqTPC)
	n.tickGroup(now, n.actReqGPC, n.reqGPC)
	n.tickGroup(now, n.actXbar, n.xbarIn)
	n.tickGroup(now, n.actRepGPC, n.repGPC)
	n.tickGroup(now, n.actRepTPC, n.repTPC)
}

// tickGroup ticks the active links of one group in ascending index order,
// parking each one that drained.
func (n *Network) tickGroup(now uint64, set *sched.ActiveSet, group []*link.Link) {
	if set.Empty() {
		return
	}
	for i, l := range group {
		if !set.Active(i) {
			continue
		}
		l.Tick(now)
		if n.linkTicks != nil {
			n.linkTicks.Inc()
		}
		if l.Idle() {
			set.Park(i)
		}
	}
}

// Quiet reports whether the activity scheduler has every link parked, i.e.
// the next Tick would do no work. Always false in exhaustive mode, where
// nothing is ever parked.
func (n *Network) Quiet() bool {
	return n.actReqTPC != nil && n.actReqTPC.Empty() && n.actReqGPC.Empty() &&
		n.actXbar.Empty() && n.actRepGPC.Empty() && n.actRepTPC.Empty()
}

// Idle reports whether no packets are queued or in flight anywhere.
func (n *Network) Idle() bool {
	for _, group := range [][]*link.Link{n.reqTPC, n.reqGPC, n.xbarIn, n.repGPC, n.repTPC} {
		for _, l := range group {
			if !l.Idle() {
				return false
			}
		}
	}
	return true
}

// TPCRequestLink exposes TPC t's request link for stats and tests.
func (n *Network) TPCRequestLink(t int) *link.Link { return n.reqTPC[t] }

// GPCRequestLink exposes GPC g's request link.
func (n *Network) GPCRequestLink(g int) *link.Link { return n.reqGPC[g] }

// GPCReplyLink exposes GPC g's reply link.
func (n *Network) GPCReplyLink(g int) *link.Link { return n.repGPC[g] }

// TPCReplyLink exposes TPC t's reply link.
func (n *Network) TPCReplyLink(t int) *link.Link { return n.repTPC[t] }

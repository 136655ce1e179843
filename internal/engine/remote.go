// The cross-GPU seam: the hooks internal/mesh uses to join several GPU
// instances under one global clock and route packets between them over
// NVLink-modeled links.
//
// A remote-bound request leaves the device at the LSU inject point — before
// it ever enters the local NoC — into a per-source-GPC outbox; a remote
// reply leaves at the slice egress point into a per-partition-group outbox.
// The mesh drains the boxes between cycles in a fixed order (requests by
// ascending GPC then FIFO, replies by ascending partition group then FIFO),
// which is the canonical cross-GPU delivery order. Modeling-wise this folds
// the on-die path between the SM (or slice) and the NVLink port into the
// link's hop latency: the contention signal a cross-GPU covert channel
// measures lives entirely on the NVLink link.
package engine

import (
	"fmt"

	"gpunoc/internal/noc"
	"gpunoc/internal/packet"
)

// remoteState is the per-device mesh state. All fields are written before
// traffic starts (ConnectRemote) except the hand-off boxes.
type remoteState struct {
	dev   int                   // this device's id in the mesh
	owner func(addr uint64) int // device owning each global address

	// net supplies each SM's GPC (noc.Network.GPCOfSM) so pushRequest
	// can route by the packet's SrcSM; SMs tick in ascending id order, so each box is in
	// ascending-SM issue order.
	net         *noc.Network
	slicesPerMC int

	// Hand-off boxes, drained by DrainRemote with the slices reset to
	// box[:0] so steady-state capacity is reused.
	reqOut [][]*packet.Packet // outbound requests, indexed by source GPC
	repOut [][]*packet.Packet // outbound replies, indexed by partition group
}

// ConnectRemote joins this device to a mesh as device dev: owner maps every
// global address to the device that owns it, and any request whose owner is
// not dev leaves through the remote outboxes instead of the local NoC. It
// must be called once, before any kernel is launched or cycle stepped; the
// mesh is the only intended caller.
func (g *GPU) ConnectRemote(dev int, owner func(addr uint64) int) error {
	if owner == nil {
		return fmt.Errorf("engine: ConnectRemote needs an address-owner function")
	}
	if g.rmt != nil {
		return fmt.Errorf("engine: device already connected to a mesh as device %d", g.rmt.dev)
	}
	if g.now != 0 || len(g.kernels) != 0 {
		return fmt.Errorf("engine: ConnectRemote must precede all launches and cycles (now %d, %d kernels)",
			g.now, len(g.kernels))
	}
	g.rmt = &remoteState{
		dev:         dev,
		owner:       owner,
		net:         g.net,
		slicesPerMC: g.cfg.SlicesPerMC(),
		reqOut:      make([][]*packet.Packet, g.cfg.NumGPCs),
		repOut:      make([][]*packet.Packet, g.cfg.NumMCs),
	}
	return nil
}

// pushRequest stamps a remote-bound request with its source and destination
// devices and parks it in the source GPC's outbox. Called from the LSU
// inject path.
func (r *remoteState) pushRequest(p *packet.Packet, dst int) {
	p.SrcDev = r.dev
	p.DstDev = dst
	gpc := r.net.GPCOfSM(p.SrcSM)
	r.reqOut[gpc] = append(r.reqOut[gpc], p)
}

// pushReply parks a completed cross-GPU reply in its partition group's
// outbox. Called from the slice egress path.
func (r *remoteState) pushReply(p *packet.Packet) {
	m := p.Slice / r.slicesPerMC
	r.repOut[m] = append(r.repOut[m], p)
}

// boxesEmpty reports whether no packet is waiting to leave the device.
func (r *remoteState) boxesEmpty() bool {
	for _, box := range r.reqOut {
		if len(box) != 0 {
			return false
		}
	}
	for _, box := range r.repOut {
		if len(box) != 0 {
			return false
		}
	}
	return true
}

// DrainRemote hands every outbound packet to f in the canonical order —
// requests by ascending source GPC (FIFO within a box, which is ascending
// SM issue order), then replies by ascending partition group — and empties
// the boxes. The mesh calls it after each device cycle.
func (g *GPU) DrainRemote(f func(p *packet.Packet)) {
	if g.rmt == nil {
		return
	}
	for gpc, box := range g.rmt.reqOut {
		for _, p := range box {
			f(p)
		}
		g.rmt.reqOut[gpc] = box[:0]
	}
	for m, box := range g.rmt.repOut {
		for _, p := range box {
			f(p)
		}
		g.rmt.repOut[m] = box[:0]
	}
}

// AcceptRemote delivers an inbound cross-GPU packet: requests enter at the
// memory partition (the NVLink port hangs off the crossbar edge; the
// request's on-die traversal is folded into the link's hop latency), and
// replies are handed straight to the issuing SM. The mesh calls it between
// cycles.
func (g *GPU) AcceptRemote(now uint64, p *packet.Packet) {
	if g.rmt == nil {
		panic("engine: AcceptRemote on a device not connected to a mesh")
	}
	if p.Kind.IsRequest() {
		if p.DstDev != g.rmt.dev {
			panic(fmt.Sprintf("engine: request for device %d delivered to device %d", p.DstDev, g.rmt.dev))
		}
		p.Slice = g.part.SliceFor(p.Addr)
		g.part.Accept(now, p)
		return
	}
	if p.SrcDev != g.rmt.dev {
		panic(fmt.Sprintf("engine: reply for device %d delivered to device %d", p.SrcDev, g.rmt.dev))
	}
	g.sms[p.Tag.SM].OnReply(now, p)
}

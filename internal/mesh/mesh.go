// Package mesh joins several engine.GPU instances into one multi-GPU system
// under a single global clock, wired by NVLink-parameterized internal/link
// links. It is the scale-out seam the NVLink covert channels (NVBleed,
// "Beyond the Bridge"; see PAPERS.md) need: a sender kernel on one device
// and a receiver kernel on another contend on a shared inter-GPU link
// exactly the way on-die kernels contend on a NoC mux.
//
// # Address space and routing
//
// Every device owns a 4 GiB window of one global address space: device d
// owns [DevBase(d), DevBase(d+1)). A request whose address falls outside
// the issuing device's window leaves at the LSU inject point through the
// engine's remote outboxes (see internal/engine/remote.go), crosses the
// fabric, and enters the owner's memory partition at the crossbar edge; the
// reply returns the same way. The on-die path between the SM (or slice) and
// the NVLink port is folded into the link's hop latency, so the contention
// signal lives entirely on the inter-GPU links.
//
// # Clocking and determinism
//
// All devices advance in lockstep under the mesh's global clock. Each
// global cycle runs in a fixed order: for every device ascending — deliver
// last cycle's inbound packets, step the device one cycle, drain its
// outboxes onto first-hop links — then tick every fabric link in a fixed
// build order. The drain orders are canonical (see engine.DrainRemote), so
// the whole mesh is as deterministic as a single engine. The mesh is an
// engine.Stepper: RunFor and RunUntil are engine.Run, the loop that drives a
// single GPU, so a mesh whose devices are all parked and whose fabric is
// empty skips cycles exactly as a parked GPU does.
package mesh

import (
	"fmt"

	"gpunoc/internal/arb"
	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/link"
	"gpunoc/internal/packet"
)

// devBits is the width of the per-device address window (4 GiB).
const devBits = 32

// MaxDevices bounds the mesh size; it keeps link counts sane and leaves 32
// address bits per device window.
const MaxDevices = 16

// DevBase returns the first global address of device d's memory window.
func DevBase(d int) uint64 { return uint64(d) << devBits }

// DevOfAddr returns the device owning a global address in an n-device mesh.
// Addresses beyond the last device's window belong to the last device, so
// every address has exactly one owner.
func DevOfAddr(addr uint64, n int) int {
	d := int(addr >> devBits)
	if d >= n {
		d = n - 1
	}
	return d
}

// Mesh is a fixed set of GPUs in lockstep plus the NVLink fabric between
// them. Build one with New, preload and launch through GPU(d), and drive it
// with LaunchAt/RunFor/RunUntil/RunKernels — member devices must not be
// stepped directly (the mesh owns the clock).
type Mesh struct {
	cfgs  []config.Config
	gpus  []*engine.GPU
	nv    config.NVLinkConfig
	topo  config.MeshTopology
	now   uint64
	meter *config.CycleMeter // the base configuration's meter

	// links in canonical tick order; route[s][t] is the first-hop link and
	// input for a packet leaving device s toward device t.
	links []*link.Link
	route [][]hop

	// inbox[d] holds packets the fabric delivered for device d this cycle,
	// consumed at the start of d's next device cycle. Appended to only by
	// link Deliver callbacks, reset to box[:0].
	inbox [][]*packet.Packet

	// drains[d] routes one of device d's outbound packets onto its
	// first-hop link; built once so the per-cycle drain allocates nothing.
	drains []func(p *packet.Packet)
}

// hop names one link input: enqueue on links[idx] input in.
type hop struct {
	idx int
	in  int
}

// New builds an n-device mesh from base. Every device gets its own deep
// Clone of base — fresh probe registry and cycle meter, per-device seed via
// config.DeviceSeed (device 0 keeps the base seed, so a 1-device mesh is
// bit-identical to a standalone engine) — and the clones are verified
// un-aliased before any engine is built. The fabric follows
// base.NVLink.Topology with zero fields defaulted to the NVLink3 preset;
// when base.Probes is set, each fabric link registers its metrics there
// under "nvlink/".
func New(base config.Config, n int) (*Mesh, error) {
	if n < 1 || n > MaxDevices {
		return nil, fmt.Errorf("mesh: device count %d outside [1,%d]", n, MaxDevices)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	m := &Mesh{
		nv:    base.NVLink.WithDefaults(),
		topo:  base.NVLink.Topology,
		meter: base.Meter,
	}
	m.cfgs = make([]config.Config, n)
	for d := 0; d < n; d++ {
		c := base.Clone()
		c.Seed = config.DeviceSeed(base.Seed, d)
		m.cfgs[d] = c
	}
	if err := ValidateUnaliased(m.cfgs); err != nil {
		return nil, err
	}
	m.gpus = make([]*engine.GPU, n)
	for d := 0; d < n; d++ {
		g, err := engine.New(m.cfgs[d])
		if err != nil {
			return nil, err
		}
		if err := g.ConnectRemote(d, func(addr uint64) int { return DevOfAddr(addr, n) }); err != nil {
			return nil, err
		}
		m.gpus[d] = g
	}
	m.inbox = make([][]*packet.Packet, n)
	if err := m.buildFabric(base); err != nil {
		return nil, err
	}
	m.drains = make([]func(p *packet.Packet), n)
	for d := range m.drains {
		src := d
		m.drains[src] = func(p *packet.Packet) {
			h := m.route[src][dest(p)]
			m.links[h.idx].Enqueue(m.now, h.in, p)
		}
	}
	return m, nil
}

// ValidateUnaliased rejects device configurations that share a probe
// registry, cycle meter, or telemetry sampler pointer: two engines built on
// one registry silently accumulate into the same counters, corrupting every
// per-device metric. Config.Clone produces un-aliased copies by
// construction; this check keeps hand-built device lists honest.
func ValidateUnaliased(cfgs []config.Config) error {
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			switch {
			case cfgs[i].Probes != nil && cfgs[i].Probes == cfgs[j].Probes:
				return fmt.Errorf("mesh: devices %d and %d share one probe registry (use Config.Clone)", i, j)
			case cfgs[i].Meter != nil && cfgs[i].Meter == cfgs[j].Meter:
				return fmt.Errorf("mesh: devices %d and %d share one cycle meter (use Config.Clone)", i, j)
			case cfgs[i].Telemetry != nil && cfgs[i].Telemetry == cfgs[j].Telemetry:
				return fmt.Errorf("mesh: devices %d and %d share one telemetry sampler (use Config.Clone)", i, j)
			}
		}
	}
	return nil
}

// dest returns the device a fabric packet is heading to: requests travel to
// the address owner, replies back to the issuer.
func dest(p *packet.Packet) int {
	if p.Kind.IsRequest() {
		return p.DstDev
	}
	return p.SrcDev
}

// addLink constructs one fabric link with the mesh's NVLink rate, appends
// it to the canonical tick order, and returns its index. out receives
// packets after serialization and latency.
func (m *Mesh) addLink(base *config.Config, name string, inputs, latency int, out link.Deliver) (int, error) {
	a, err := arb.New(base.NoC.Arbitration, inputs, base.NoC.CRRHoldLimit, packet.DataFlits)
	if err != nil {
		return 0, err
	}
	l, err := link.New(name, inputs, m.nv.RateNum, m.nv.RateDen, latency, a, out)
	if err != nil {
		return 0, err
	}
	if base.Probes != nil {
		l.Instrument(base.Probes, "nvlink/")
	}
	m.links = append(m.links, l)
	return len(m.links) - 1, nil
}

// deliverLocal parks p in device d's inbox for delivery at the start of
// d's next cycle.
func (m *Mesh) deliverLocal(d int) link.Deliver {
	return func(now uint64, p *packet.Packet) {
		m.inbox[d] = append(m.inbox[d], p)
	}
}

// buildFabric wires the devices according to the configured topology. A
// 1-device mesh has no fabric.
func (m *Mesh) buildFabric(base config.Config) error {
	n := len(m.gpus)
	m.route = make([][]hop, n)
	for s := range m.route {
		m.route[s] = make([]hop, n)
		for t := range m.route[s] {
			m.route[s][t] = hop{idx: -1}
		}
	}
	if n == 1 {
		return nil
	}
	switch m.topo {
	case config.TopoFullMesh:
		// One dedicated point-to-point link per ordered pair.
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				idx, err := m.addLink(&base, fmt.Sprintf("d%d->d%d", s, t), 1, m.nv.HopLatency, m.deliverLocal(t))
				if err != nil {
					return err
				}
				m.route[s][t] = hop{idx: idx, in: 0}
			}
		}
	case config.TopoRing:
		// Neighbor links in both directions; longer routes forward hop by
		// hop in the shorter direction (ties clockwise). Input 0 is the
		// device's own egress, input 1 the forwarded stream, arbitrated
		// like any other mux.
		cw := make([]int, n)
		ccw := make([]int, n)
		for s := 0; s < n; s++ {
			s := s
			t := (s + 1) % n
			idx, err := m.addLink(&base, fmt.Sprintf("ring-cw%d->%d", s, t), 2, m.nv.HopLatency,
				m.ringDeliver(t, cw))
			if err != nil {
				return err
			}
			cw[s] = idx
		}
		for s := 0; s < n; s++ {
			s := s
			t := (s - 1 + n) % n
			idx, err := m.addLink(&base, fmt.Sprintf("ring-ccw%d->%d", s, t), 2, m.nv.HopLatency,
				m.ringDeliver(t, ccw))
			if err != nil {
				return err
			}
			ccw[s] = idx
		}
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				cwDist := (t - s + n) % n
				ccwDist := (s - t + n) % n
				if cwDist <= ccwDist {
					m.route[s][t] = hop{idx: cw[s], in: 0}
				} else {
					m.route[s][t] = hop{idx: ccw[s], in: 0}
				}
			}
		}
	case config.TopoNVSwitch:
		// Every pair routes through a central switch: a dedicated ingress
		// link per device into the switch, then an egress link per device
		// whose inputs (one per source) arbitrate for the output port. The
		// switch traversal cost rides on the egress latency.
		egress := make([]int, n)
		for t := 0; t < n; t++ {
			idx, err := m.addLink(&base, fmt.Sprintf("sw->d%d", t), n,
				m.nv.HopLatency+m.nv.SwitchLatency, m.deliverLocal(t))
			if err != nil {
				return err
			}
			egress[t] = idx
		}
		for s := 0; s < n; s++ {
			s := s
			idx, err := m.addLink(&base, fmt.Sprintf("d%d->sw", s), 1, m.nv.HopLatency,
				func(now uint64, p *packet.Packet) {
					m.links[egress[dest(p)]].Enqueue(now, s, p)
				})
			if err != nil {
				return err
			}
			for t := 0; t < n; t++ {
				if s != t {
					m.route[s][t] = hop{idx: idx, in: 0}
				}
			}
		}
	default:
		return fmt.Errorf("mesh: unknown topology %v", m.topo)
	}
	return nil
}

// ringDeliver terminates or forwards a ring hop arriving at device at: a
// packet for at enters its inbox, anything else continues on the same
// direction's next link (input 1, the forwarded stream). dirLinks is the
// direction's per-source link table, filled by buildFabric before traffic.
func (m *Mesh) ringDeliver(at int, dirLinks []int) link.Deliver {
	return func(now uint64, p *packet.Packet) {
		if dest(p) == at {
			m.inbox[at] = append(m.inbox[at], p)
			return
		}
		m.links[dirLinks[at]].Enqueue(now, 1, p)
	}
}

// Package packet defines the memory-request and reply packets that travel
// through the simulated on-chip network, including their flit sizing. The
// asymmetry in flit counts (write requests and read replies carry data, read
// requests and write acks do not) is what makes write traffic contend on the
// request path and read traffic contend on the reply path — the effect the
// paper exploits for the TPC and GPC covert channels (§3.4).
//
// Packets are recycled, and each has exactly one owner at a time:
//
//   - The issuing SM allocates it, or takes one from its free list, and
//     fills in a request.
//   - The links carry it to its L2 slice; Slice.Accept takes ownership.
//   - Once the slice has serviced it, nothing else holds the request, so
//     the slice turns it into its reply in place: only Kind changes.
//   - The reply always ends at the SM named by Tag.SM, across an NVLink
//     mesh too. SM.OnReply releases it onto that SM's free list for its
//     next request.
//
// Release poisons a packet: its Kind becomes Released and its Tag.SM -1,
// so a released packet handed back to SM.OnReply or Slice.Accept panics
// instead of silently aliasing a live request.
package packet

import "fmt"

// Kind identifies the packet type.
type Kind uint8

const (
	// ReadReq is an L2 read request (address only, 1 flit).
	ReadReq Kind = iota
	// WriteReq is an L2 write request carrying a cache line of data.
	WriteReq
	// ReadReply carries the requested cache line back to the SM.
	ReadReply
	// WriteReply is the write acknowledgment (1 flit).
	WriteReply
	// AtomicReq is a read-modify-write performed at the L2 slice; used by
	// the global-memory baseline covert channel (Table 2).
	AtomicReq
	// AtomicReply returns the pre-image of an atomic (1 data flit).
	AtomicReply

	// Released marks a packet on an SM's free list. It is neither a
	// request nor a reply, so no slice or SM accepts it.
	Released Kind = 0xff
)

// String returns a short mnemonic for logging and tests.
func (k Kind) String() string {
	switch k {
	case ReadReq:
		return "RD"
	case WriteReq:
		return "WR"
	case ReadReply:
		return "RDACK"
	case WriteReply:
		return "WRACK"
	case AtomicReq:
		return "ATOM"
	case AtomicReply:
		return "ATOMACK"
	case Released:
		return "FREED"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsRequest reports whether the packet travels on the request subnet
// (SM -> L2) rather than the reply subnet.
func (k Kind) IsRequest() bool {
	return k == ReadReq || k == WriteReq || k == AtomicReq
}

// Flit counts per packet type. A 32-byte sector plus header spans
// DataFlits 40-byte flits; control packets are a single flit.
const (
	CtrlFlits = 1
	DataFlits = 4
)

// FlitsFor returns the number of flits a packet of the given kind occupies
// on a link.
func FlitsFor(k Kind) int {
	switch k {
	case WriteReq, ReadReply:
		return DataFlits
	case AtomicReq, AtomicReply:
		return 2 * CtrlFlits // address + operand / pre-image
	default:
		return CtrlFlits
	}
}

// WarpTag identifies the (SM, warp, memory operation) a request belongs to,
// so that replies can be matched and coarse-grain (per-warp) arbitration can
// group packets.
type WarpTag struct {
	SM   int
	Warp int
	Op   uint64 // per-warp monotonically increasing memory-op sequence
}

// Packet is one NoC packet. Packets are allocated by the SM load/store unit
// and threaded through links by pointer; the struct is never copied after
// issue, so latency stamps stay consistent. See the package comment for who
// owns a packet when.
type Packet struct {
	ID   uint64
	Kind Kind
	Tag  WarpTag

	Addr  uint64 // byte address (line-aligned by the coalescer)
	Slice int    // destination L2 slice (request) or source slice (reply)

	SrcSM int // issuing SM

	// SrcDev and DstDev identify the issuing and owning GPU of a cross-GPU
	// packet in a multi-device mesh (internal/mesh). Both are zero for all
	// single-GPU traffic, so a standalone engine never observes them. A
	// request is stamped at NVLink egress; its reply keeps the request's
	// values, so the mesh routes replies back by SrcDev.
	SrcDev int
	DstDev int

	// IssueCycle is when the LSU injected the packet (age-based
	// arbitration orders by it).
	IssueCycle uint64

	// BypassL1 marks probe traffic compiled with -dlcm=cg (§4.2).
	BypassL1 bool
}

// Release poisons p as it goes onto a free list (see the package comment).
func (p *Packet) Release() {
	p.Kind = Released
	p.Tag.SM = -1
}

// Flits returns the serialization length of the packet on a link.
func (p *Packet) Flits() int { return FlitsFor(p.Kind) }

// ReplyKind maps a request kind to the kind of its reply.
func ReplyKind(k Kind) (Kind, error) {
	switch k {
	case ReadReq:
		return ReadReply, nil
	case WriteReq:
		return WriteReply, nil
	case AtomicReq:
		return AtomicReply, nil
	default:
		return 0, fmt.Errorf("packet: %v is not a request kind", k)
	}
}

// String renders a compact description for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%v#%d sm%d w%d op%d addr=%#x slice=%d",
		p.Kind, p.ID, p.Tag.SM, p.Tag.Warp, p.Tag.Op, p.Addr, p.Slice)
}

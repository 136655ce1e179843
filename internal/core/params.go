// Package core implements the paper's contribution: the interconnect-based
// covert channel (§4). A sender (trojan) and receiver (spy) kernel are
// co-located on the shared NoC hierarchy by exploiting the thread-block
// scheduler (§4.3); they synchronize through the per-SM clock registers
// (§4.1); and they communicate by modulating contention on the TPC or GPC
// channel, which the receiver observes as L2 round-trip latency (§4.2,
// Algorithm 2). Multi-TPC and multi-GPC variants parallelize transmission
// across the whole GPU for the headline ~24 Mbps figure, and a multi-level
// mode trades error rate for ~1.6x more bandwidth by modulating the degree
// of coalescing (§5, Fig 14).
package core

import (
	"fmt"
)

// Kind selects which shared channel carries the covert transmission.
type Kind int

const (
	// TPCChannel uses the 2:1 mux shared by the two SMs of one TPC;
	// the sender modulates *write* contention (§3.4).
	TPCChannel Kind = iota
	// GPCChannel uses the concentrated GPC channel shared by the TPCs of
	// one GPC; the sender modulates *read* contention (§3.4, §4.5).
	GPCChannel
	// NVLinkChannel uses an inter-GPU NVLink link of a multi-GPU mesh
	// (internal/mesh): the sender floods the link with remote writes while
	// the receiver times remote reads whose replies share the same link —
	// the cross-GPU channel of NVBleed / "Beyond the Bridge" (PAPERS.md).
	NVLinkChannel
)

// String names the channel kind.
func (k Kind) String() string {
	switch k {
	case TPCChannel:
		return "TPC"
	case GPCChannel:
		return "GPC"
	case NVLinkChannel:
		return "NVLink"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params configures a covert-channel transmission (Algorithm 2).
type Params struct {
	Kind Kind

	// Iterations is the number of memory operations used to communicate
	// one symbol (the Fig 10 x-axis). More iterations raise the
	// probability that sender and receiver traffic overlap, trading
	// bandwidth for a lower error rate.
	Iterations int

	// SlotCycles is the timing slot T. Zero derives a default from
	// Iterations and the channel kind.
	SlotCycles uint64

	// SyncPeriod is the number of symbols between clock-register
	// resynchronizations (Algorithm 2's Sync_period). Zero disables
	// periodic resync, reproducing the accumulating drift of Fig 9(a).
	SyncPeriod int

	// Thresholds are the mean-slot-latency cut points between adjacent
	// contention levels (len = levels-1): one threshold separating
	// "contended" from "free" for the 1-bit channel. Use Calibrate to
	// measure them. Empty means a placeholder ladder from the channel
	// kind's default.
	Thresholds []float64

	// BitsPerSymbol selects 1 (binary, default) or 2 (the 4-level channel
	// of Fig 14, signalling with 0/8/16/32 uncoalesced requests).
	BitsPerSymbol int

	// SenderWarps is the number of warps the sender activates per SM
	// (the paper uses 5 for the TPC channel and 8 for the GPC channel).
	SenderWarps int

	// SenderCoalesced/ReceiverCoalesced force fully-coalesced accesses
	// (one request per warp) to reproduce the Fig 13 error-rate study.
	SenderCoalesced   bool
	ReceiverCoalesced bool

	// Coding selects the error-correcting code applied over each unit's
	// Symbol stream before transmission (coding.go). The default,
	// CodingNone, transmits the payload raw — the paper's protocol — and
	// leaves every wire byte identical to the uncoded channel.
	Coding Coding

	// Repeat is the repetition factor for CodingRepetition (default 3).
	// Must be odd so the majority vote cannot tie, and zero unless
	// repetition coding is selected.
	Repeat int

	// PreambleSymbols prepends this many known alternating symbols to each
	// unit's wire stream. The decoder correlates against the pattern to
	// re-acquire slot alignment after desync (see recoverData); zero
	// disables the preamble.
	PreambleSymbols int

	// ResyncGuardSlots extends each receiver's listening window by this
	// many slots beyond the wire stream, giving the preamble search room
	// to find a late-locking receiver. Requires PreambleSymbols > 0.
	ResyncGuardSlots int

	// Seed drives the per-program jitter streams.
	Seed int64
}

// Levels returns the number of distinguishable contention levels.
func (p *Params) Levels() int { return 1 << p.BitsPerSymbol }

// LevelLanes maps a symbol to the number of unique memory requests used to
// signal it: 0 for silence, up to the full 32 uncoalesced requests. For the
// 2-bit channel this yields the paper's 0/8/16/32 split (0%, 25%, 50%, 100%
// of lanes).
func (p *Params) LevelLanes(symbol, simtWidth int) int {
	levels := p.Levels()
	if symbol <= 0 {
		return 0
	}
	if symbol >= levels {
		symbol = levels - 1
	}
	if p.SenderCoalesced {
		// Fig 13: a coalesced sender emits a single request per warp
		// regardless of the symbol.
		return 1
	}
	return simtWidth * symbol / (levels - 1)
}

// withDefaults fills derived fields and validates. It returns a copy.
func (p Params) withDefaults() (Params, error) {
	if p.BitsPerSymbol == 0 {
		p.BitsPerSymbol = 1
	}
	if p.BitsPerSymbol < 1 || p.BitsPerSymbol > 2 {
		return p, fmt.Errorf("core: BitsPerSymbol %d not in {1,2}", p.BitsPerSymbol)
	}
	if p.Iterations == 0 {
		p.Iterations = 4
	}
	if p.Iterations < 1 {
		return p, fmt.Errorf("core: non-positive iterations %d", p.Iterations)
	}
	if p.SenderWarps == 0 {
		switch p.Kind {
		case GPCChannel:
			p.SenderWarps = 8
		default:
			p.SenderWarps = 5
		}
	}
	if p.SenderWarps < 1 {
		return p, fmt.Errorf("core: non-positive sender warps %d", p.SenderWarps)
	}
	if p.SlotCycles == 0 {
		p.SlotCycles = DefaultSlot(p.Kind, p.Iterations)
	}
	if p.SyncPeriod < 0 {
		return p, fmt.Errorf("core: negative sync period %d", p.SyncPeriod)
	}
	if len(p.Thresholds) == 0 {
		// A placeholder ladder from a usable default for the calibrated
		// Volta model; experiments normally run Calibrate instead, which
		// places measured midpoints. Spacing mirrors the graded contention
		// of Fig 14.
		for i := 0; i < p.Levels()-1; i++ {
			p.Thresholds = append(p.Thresholds, defaultThreshold(p.Kind)+float64(25*i))
		}
	}
	if len(p.Thresholds) != p.Levels()-1 {
		return p, fmt.Errorf("core: %d thresholds for %d levels", len(p.Thresholds), p.Levels())
	}
	for i := 1; i < len(p.Thresholds); i++ {
		if p.Thresholds[i] <= p.Thresholds[i-1] {
			return p, fmt.Errorf("core: thresholds not increasing: %v", p.Thresholds)
		}
	}
	switch p.Coding {
	case CodingNone:
		if p.Repeat != 0 {
			return p, fmt.Errorf("core: Repeat %d set without CodingRepetition", p.Repeat)
		}
	case CodingRepetition:
		if p.Repeat == 0 {
			p.Repeat = 3
		}
		if p.Repeat < 1 || p.Repeat%2 == 0 {
			return p, fmt.Errorf("core: repetition factor %d must be odd and positive", p.Repeat)
		}
	case CodingHamming74:
		if p.Repeat != 0 {
			return p, fmt.Errorf("core: Repeat %d set with Hamming coding", p.Repeat)
		}
		if p.BitsPerSymbol != 1 {
			return p, fmt.Errorf("core: Hamming(7,4) codes bits; BitsPerSymbol must be 1, got %d", p.BitsPerSymbol)
		}
	default:
		return p, fmt.Errorf("core: unknown coding %d", int(p.Coding))
	}
	if p.PreambleSymbols < 0 {
		return p, fmt.Errorf("core: negative preamble length %d", p.PreambleSymbols)
	}
	if p.ResyncGuardSlots < 0 {
		return p, fmt.Errorf("core: negative guard slots %d", p.ResyncGuardSlots)
	}
	if p.ResyncGuardSlots > 0 && p.PreambleSymbols == 0 {
		return p, fmt.Errorf("core: ResyncGuardSlots needs a preamble to align against")
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p, nil
}

// DefaultSlot returns the default timing-slot length for a channel kind and
// iteration count: slightly larger than the iterations' worst-case L2
// round-trip time, as §4.4 prescribes ("a value of T that is slightly larger
// than the value of L2 access round-trip latency"). The GPC channel uses a
// larger slot because more SMs communicate per symbol (§4.5).
func DefaultSlot(k Kind, iterations int) uint64 {
	switch k {
	case GPCChannel:
		return uint64(250 + 450*iterations)
	case NVLinkChannel:
		// A remote round trip pays the NVLink hop both ways (~2x180 cycles
		// with the NVLink3 preset) plus the serialization of a whole
		// uncoalesced reply burst through a ~0.52 flits/cycle link, and the
		// slot must also absorb the sender's flood drain, so both terms are
		// far larger than on-die.
		return uint64(2000 + 2000*iterations)
	default:
		// Per-iteration budget: ~288 cycles of shared-channel drain for
		// the sender's flood plus the probe round trip, and a fixed term
		// covering the reply tail and the per-slot scheduling jitter.
		return uint64(160 + 360*iterations)
	}
}

// syncModulus is the modulus of the periodic Synchronization(): both sides
// busy-wait until the clock register's residue matches ("the lower n bits
// of the clock registers are compared against a fixed value", §4.4). It
// only needs to exceed the residual divergence between the two sides, so
// about two slots keeps the resync overhead small.
func (p *Params) syncModulus() uint64 { return nextPow2(2 * p.SlotCycles) }

// initModulus is the modulus of the one-time initial synchronization, which
// must absorb the kernel launch skew. Cooperating MPS processes coordinate
// their launches on the CPU (§2.2 reports only a one-time synchronization
// overhead), so the skew the GPU sees is bounded: both kernels land in the
// same window of at least 1<<16 cycles and align on its boundary.
func (p *Params) initModulus() uint64 { return max(p.syncModulus(), 1<<16) }

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func defaultThreshold(k Kind) float64 {
	switch k {
	case GPCChannel:
		return 260
	case NVLinkChannel:
		return 500
	default:
		return 250
	}
}

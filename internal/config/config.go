// Package config defines the GPU, NoC, and memory-system parameters used by
// the simulator. The default configuration reproduces Table 1 of the paper
// (a Volta V100-like GPU: 1200 MHz, 40 TPCs with 2 SMs each grouped into 6
// GPCs, 48 L2 slices, 24 memory controllers, a crossbar interconnect with
// 40-byte flits and two subnets).
package config

import (
	"fmt"
	"sync/atomic"

	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// ArbPolicy selects the arbitration algorithm used by NoC muxes (§6).
type ArbPolicy int

const (
	// ArbRR is the baseline locally-fair round-robin arbitration.
	ArbRR ArbPolicy = iota
	// ArbCRR is coarse-grain round-robin: the grant is held so that the
	// packets of one warp travel back-to-back (per-warp arbitration).
	ArbCRR
	// ArbSRR is strict round-robin: time slots are statically assigned to
	// inputs even when they are idle (temporal partitioning; the paper's
	// countermeasure).
	ArbSRR
	// ArbAge grants the oldest packet first (globally fair, but it does
	// not mitigate the covert channel, §6).
	ArbAge
	// ArbFixed always prefers the lowest-numbered input; used in tests to
	// demonstrate starvation and as a worst-case reference.
	ArbFixed
)

// String returns the short name used in experiment output.
func (p ArbPolicy) String() string {
	switch p {
	case ArbRR:
		return "RR"
	case ArbCRR:
		return "CRR"
	case ArbSRR:
		return "SRR"
	case ArbAge:
		return "AGE"
	case ArbFixed:
		return "FIXED"
	default:
		return fmt.Sprintf("ArbPolicy(%d)", int(p))
	}
}

// DRAMTiming holds the HBM2 bank timing parameters of Table 1, in memory
// controller cycles.
type DRAMTiming struct {
	TCL  int // CAS latency
	TRP  int // row precharge
	TRC  int // row cycle
	TRAS int // row active time
	TRCD int // RAS-to-CAS delay
	TRRD int // row-to-row activation delay
}

// NoCConfig holds the interconnect parameters. Link rates are expressed as
// rational flits/cycle (Num/Den) so that calibrated non-integer speedups (for
// example the reply-side GPC speedup that yields the 2.14x seven-TPC read
// degradation of Fig 5b) can be modeled exactly.
type NoCConfig struct {
	// LSUInjectPeriod is the minimum number of cycles between consecutive
	// packet injections by one SM's load/store unit. With one packet every
	// 3 cycles, two reading SMs stay under the TPC channel capacity (reads
	// show no TPC contention, Fig 5a) while write packets (4 flits each)
	// still oversubscribe it and contend 2:1.
	LSUInjectPeriod int

	// Request-path rates in flits/cycle.
	TPCReqRateNum, TPCReqRateDen       int // TPC channel (the 2:1 mux output)
	GPCReqRateNum, GPCReqRateDen       int // GPC channel (the 7:1 mux output)
	XbarPortRateNum, XbarPortRateDen   int // crossbar port toward an L2 slice
	SliceAcceptRateNum, SliceAcceptDen int // L2 slice ingress

	// Reply-path rates in flits/cycle.
	SliceEjectRateNum, SliceEjectRateDen int // L2 slice egress
	XbarRetRateNum, XbarRetRateDen       int // crossbar return port per GPC
	GPCRepRateNum, GPCRepRateDen         int // GPC reply channel (speedup)
	TPCRepRateNum, TPCRepRateDen         int // TPC reply channel

	// Fixed pipeline latencies (cycles) per hop.
	TPCLinkLatency  int
	GPCLinkLatency  int
	XbarLatency     int
	ReplyXbarLat    int
	ReplyGPCLatency int
	ReplyTPCLatency int

	// Arbitration policy applied at every mux.
	Arbitration ArbPolicy
	// CRRHoldLimit bounds how many packets a CRR grant can hold for one
	// warp before the arbiter moves on (guards against livelock).
	CRRHoldLimit int
}

// MeshTopology selects how the GPUs of a multi-device mesh (internal/mesh)
// are wired together by NVLink links.
type MeshTopology int

const (
	// TopoFullMesh wires every ordered device pair with a dedicated
	// point-to-point link (the DGX-style fully-connected fabric for small
	// device counts). This is the default.
	TopoFullMesh MeshTopology = iota
	// TopoRing wires device d to d+1 and d-1 (mod N) only; longer routes
	// forward hop by hop in the shorter direction, ties clockwise.
	TopoRing
	// TopoNVSwitch routes every pair through a central switch: one ingress
	// link per device into the switch and one arbitrated egress link per
	// device out of it, adding SwitchLatency per traversal.
	TopoNVSwitch
)

// String returns the flag/name spelling of the topology.
func (t MeshTopology) String() string {
	switch t {
	case TopoFullMesh:
		return "full"
	case TopoRing:
		return "ring"
	case TopoNVSwitch:
		return "nvswitch"
	default:
		return fmt.Sprintf("MeshTopology(%d)", int(t))
	}
}

// ParseTopology maps the -topology flag spellings back to a MeshTopology.
func ParseTopology(s string) (MeshTopology, error) {
	switch s {
	case "full", "fullmesh", "all-to-all":
		return TopoFullMesh, nil
	case "ring":
		return TopoRing, nil
	case "nvswitch", "switch":
		return TopoNVSwitch, nil
	default:
		return 0, fmt.Errorf("config: unknown mesh topology %q (want full, ring, or nvswitch)", s)
	}
}

// NVLinkConfig parameterizes the inter-GPU links of a mesh. The zero value
// means "use the NVLink3 defaults" — mesh construction normalizes it with
// WithDefaults, so a Config that never touches NVLink still builds a
// realistic fabric.
type NVLinkConfig struct {
	// Topology selects the fabric wiring (full mesh, ring, NVSwitch).
	Topology MeshTopology
	// RateNum/RateDen is the per-direction link bandwidth in flits/cycle.
	// The NVLink3 default models one link of the bundle — 25 GB/s per
	// direction / (40-byte flits x 1.2 GHz) = 25/48 ~ 0.52 flits/cycle —
	// the granularity at which cross-GPU contention is observable: traffic
	// between a device pair rides a fixed link of the bundle, so a flood on
	// that link backs it up even while sibling links stay idle. Set 25/4
	// (6.25 flits/cycle) to model the full 300 GB/s 12-link aggregate
	// instead.
	RateNum, RateDen int
	// HopLatency is the one-way latency of a single NVLink hop in core
	// cycles. NVBleed-style microbenchmarks put remote GPU access around
	// 2-3x local; 180 cycles per direction lands in that band on the
	// Table 1 clock.
	HopLatency int
	// SwitchLatency is the extra latency an NVSwitch traversal adds on top
	// of the two hops (TopoNVSwitch only).
	SwitchLatency int
}

// WithDefaults returns the config with every zero field replaced by the
// NVLink3-derived default.
func (n NVLinkConfig) WithDefaults() NVLinkConfig {
	if n.RateNum == 0 && n.RateDen == 0 {
		n.RateNum, n.RateDen = 25, 48 // one NVLink3 link, ~0.52 flits/cycle
	}
	if n.RateDen == 0 {
		n.RateDen = 1
	}
	if n.HopLatency == 0 {
		n.HopLatency = 180
	}
	if n.SwitchLatency == 0 {
		n.SwitchLatency = 60
	}
	return n
}

// Config is the full simulated-GPU configuration.
type Config struct {
	Name string

	// Core features (Table 1).
	CoreClockMHz int // 1200 MHz
	SIMTWidth    int // 32 lanes per warp
	SMsPerTPC    int // 2
	NumGPCs      int // 6
	// MaxTPCsPerGPC is the number of physical TPC slots per GPC (7 on
	// GV100). Physical slots are interleaved across GPCs: slot s sits at
	// position s/NumGPCs of GPC s%NumGPCs.
	MaxTPCsPerGPC int
	// DisabledTPCSlots lists physical slots fused off for yield. The
	// evaluated V100 disables one TPC in each of two GPCs (§3.3); slots 34
	// and 35 reproduce the Fig 4 logical mapping, where GPC5 holds TPC39
	// instead of TPC35. Logical TPC ids enumerate enabled slots in slot
	// order.
	DisabledTPCSlots []int

	// Caches (Table 1).
	L1SizeBytes      int // 128 KB unified L1/shared memory per SM
	L1LineBytes      int
	L1Ways           int
	NumL2Slices      int // 48
	L2SliceSizeBytes int // 96 KB per slice
	L2LineBytes      int
	L2Ways           int
	L2HitLatency     int // tag+data pipeline latency, cycles
	L2MSHRs          int

	// Memory model (Table 1).
	NumMCs       int // 24
	DRAM         DRAMTiming
	DRAMBanksPME int // banks per memory controller
	MCQueueDepth int

	NoC NoCConfig

	// SM microarchitecture.
	MaxWarpsPerSM   int
	LSUQueueDepth   int // per-SM pending request budget (MSHR-like)
	WarpIssueJitter int // max scheduler start jitter, cycles (noise model)
	L2ServiceJitter int // max per-request L2 service jitter, cycles (noise)
	ClockSkewTPCMax int // |clock() difference| bound within a TPC (<5, §4.1)
	ClockSkewGPCMax int // bound within a GPC (<15, §4.1)
	// ClockFuzzBits implements the clock-fuzzing countermeasure discussed
	// in §6 (TimeWarp-style): clock() reads are quantized to multiples of
	// 2^ClockFuzzBits, degrading the precision of clock-register
	// synchronization. Zero disables fuzzing.
	ClockFuzzBits    int
	ClockGPCSpreadLo uint32
	ClockGPCSpreadHi uint32 // per-GPC base clock offsets span (Fig 6: ~0..5e9 scaled to 32-bit)

	Seed int64 // deterministic RNG seed for all noise sources

	// MeshGPUs is the device count a multi-GPU mesh built from this
	// configuration should have. It is advisory: a standalone engine.New
	// ignores it, and experiments that build meshes treat 0 as "the
	// experiment's default" (typically 2). Negative values fail Validate.
	MeshGPUs int

	// NVLink parameterizes the inter-GPU fabric of a mesh built from this
	// configuration. The zero value selects the NVLink3 defaults (see
	// NVLinkConfig.WithDefaults); a standalone engine never reads it.
	NVLink NVLinkConfig

	// ExhaustiveTick disables the engine's activity-driven scheduling: every
	// SM, NoC link, L2 slice, and memory controller is ticked on every cycle
	// whether or not it holds work, exactly as the original run loop did.
	// Activity-driven runs are cycle-for-cycle identical to exhaustive runs
	// by construction (components are only skipped when ticking them is a
	// no-op), so this flag never influences simulation results — it exists
	// as the reference mode the bit-identity regressions compare against,
	// and is ignored by Validate.
	ExhaustiveTick bool

	// Meter, when non-nil, accumulates the number of simulated cycles
	// executed by every engine instance built from this configuration
	// (copies of the Config share the pointer). The experiment runner
	// attaches one meter per experiment to attribute simulation work even
	// when experiments run concurrently. It never influences simulation
	// behavior and is ignored by Validate.
	Meter *CycleMeter

	// Probes, when non-nil, is the instrumentation registry every component
	// built from this configuration registers its metrics with (copies of
	// the Config share the pointer, so an experiment that builds several
	// engines accumulates one metric set). nil disables instrumentation
	// entirely — components keep a single nil check on their hot paths and
	// the simulation output is byte-identical either way. Like Meter it
	// never influences simulation behavior and is ignored by Validate.
	Probes *probe.Registry

	// Telemetry, when non-nil, is the windowed-aggregation sampler the
	// engine steps once per simulated cycle (and across idle fast-forward
	// jumps), turning Probes snapshots into the per-window stream
	// internal/telemetry documents. Copies of the Config share the pointer,
	// so the window timeline is continuous across every engine instance
	// built from one configuration. Requires Probes to be set — engine.New
	// rejects a sampler with no registry to aggregate. Like Probes it never
	// influences simulation behavior and is ignored by Validate.
	Telemetry *telemetry.Sampler
}

// CycleMeter is a concurrency-safe counter of simulated engine cycles. The
// zero value is ready to use; both methods are safe on a nil receiver, so
// unmetered configurations pay only a nil check.
type CycleMeter struct{ n atomic.Uint64 }

// Add records n additional simulated cycles.
func (m *CycleMeter) Add(n uint64) {
	if m != nil {
		m.n.Add(n)
	}
}

// Load returns the cycles recorded so far (0 on a nil meter).
func (m *CycleMeter) Load() uint64 {
	if m == nil {
		return 0
	}
	return m.n.Load()
}

// Volta returns the Table 1 configuration: a Volta V100-like GPU with 40
// enabled TPCs across 6 GPCs, 48 L2 slices, 24 HBM2 memory controllers, and a
// hierarchical crossbar NoC with 40-byte flits and separate request/reply
// subnets. Link rates are calibrated so the contention shapes of §3.4 hold
// (see DESIGN.md §3).
func Volta() Config {
	return Config{
		Name:          "volta-v100",
		CoreClockMHz:  1200,
		SIMTWidth:     32,
		SMsPerTPC:     2,
		NumGPCs:       6,
		MaxTPCsPerGPC: 7,
		// One TPC disabled in each of GPC4 and GPC5 (40 of 42 enabled).
		DisabledTPCSlots: []int{34, 35},

		L1SizeBytes:      128 * 1024,
		L1LineBytes:      32,
		L1Ways:           4,
		NumL2Slices:      48,
		L2SliceSizeBytes: 96 * 1024,
		L2LineBytes:      32,
		L2Ways:           16,
		L2HitLatency:     34,
		L2MSHRs:          64,

		NumMCs:       24,
		DRAM:         DRAMTiming{TCL: 12, TRP: 12, TRC: 40, TRAS: 28, TRCD: 12, TRRD: 3},
		DRAMBanksPME: 16,
		MCQueueDepth: 64,

		NoC: NoCConfig{
			LSUInjectPeriod: 3,
			TPCReqRateNum:   1, TPCReqRateDen: 1,
			GPCReqRateNum: 6, GPCReqRateDen: 1,
			XbarPortRateNum: 2, XbarPortRateDen: 1,
			SliceAcceptRateNum: 1, SliceAcceptDen: 1,

			SliceEjectRateNum: 1, SliceEjectRateDen: 1,
			XbarRetRateNum: 6, XbarRetRateDen: 1,
			// Reply-side GPC speedup: each reading SM demands ~1.33 reply
			// flits/cycle (one 4-flit reply per 3-cycle injection slot), so
			// 7 fully-active TPCs demand ~18.7 flits/cycle; a capacity of
			// 8.72 reproduces the 2.14x degradation at 7 TPCs while <=3
			// TPCs (8.0) stay just under capacity (Fig 5b).
			GPCRepRateNum: 872, GPCRepRateDen: 100,
			// Reply-side TPC speedup 3x: two reading SMs in one TPC
			// (2.67 flits/cycle) do not contend (Fig 5a, read bar ~1x).
			TPCRepRateNum: 3, TPCRepRateDen: 1,

			TPCLinkLatency:  6,
			GPCLinkLatency:  8,
			XbarLatency:     10,
			ReplyXbarLat:    10,
			ReplyGPCLatency: 8,
			ReplyTPCLatency: 6,

			Arbitration:  ArbRR,
			CRRHoldLimit: 32,
		},

		MaxWarpsPerSM:    32,
		LSUQueueDepth:    32,
		WarpIssueJitter:  96,
		L2ServiceJitter:  6,
		ClockSkewTPCMax:  4,
		ClockSkewGPCMax:  14,
		ClockGPCSpreadLo: 0,
		ClockGPCSpreadHi: 5_000_000_000 & 0xFFFFFFFF, // wraps into 32-bit space like the real register

		Seed: 1,
	}
}

// Small returns a reduced configuration (2 GPCs x 2 TPCs x 2 SMs, 8 L2
// slices) that keeps unit and property tests fast while exercising every
// code path of the full topology.
func Small() Config {
	c := Volta()
	c.Name = "small"
	c.NumGPCs = 2
	c.MaxTPCsPerGPC = 2
	c.DisabledTPCSlots = nil
	c.NumL2Slices = 8
	c.NumMCs = 4
	// Rescale the GPC reply speedup to the smaller topology: one fully
	// reading TPC (2.67 flits/cycle) fits under the 3.2 capacity, while
	// the whole 2-TPC GPC (5.33) oversubscribes by ~1.7x, mirroring the
	// Volta calibration where <=3 TPCs are free and 7 contend.
	c.NoC.GPCRepRateNum = 320
	c.NoC.GPCRepRateDen = 100
	return c
}

// NumTPCs returns the number of enabled TPCs (physical slots minus disabled).
func (c *Config) NumTPCs() int {
	return c.NumGPCs*c.MaxTPCsPerGPC - len(c.DisabledTPCSlots)
}

// TPCsPerGPC returns the number of enabled TPCs in each GPC.
func (c *Config) TPCsPerGPC() []int {
	out := make([]int, c.NumGPCs)
	for i := range out {
		out[i] = c.MaxTPCsPerGPC
	}
	for _, s := range c.DisabledTPCSlots {
		if g := s % c.NumGPCs; g >= 0 && g < c.NumGPCs {
			out[g]--
		}
	}
	return out
}

// NumSMs returns the total number of enabled SMs.
func (c *Config) NumSMs() int { return c.NumTPCs() * c.SMsPerTPC }

// TPCOfSM returns the TPC index housing SM id (SM 2i and 2i+1 share TPC i,
// the co-location found by the Fig 2 reverse engineering).
func (c *Config) TPCOfSM(sm int) int { return sm / c.SMsPerTPC }

// SMsOfTPC returns the SM ids inside TPC tpc.
func (c *Config) SMsOfTPC(tpc int) []int {
	out := make([]int, c.SMsPerTPC)
	for i := range out {
		out[i] = tpc*c.SMsPerTPC + i
	}
	return out
}

// GPCOfTPC returns the GPC index of logical TPC tpc under the interleaved
// physical mapping reverse-engineered in §3.3/Fig 4. Logical ids enumerate
// enabled physical slots in slot order, and slot s belongs to GPC
// s mod NumGPCs; with the Volta disabled slots this yields
// GPC5 = {5,11,17,23,29,39}, matching the paper.
func (c *Config) GPCOfTPC(tpc int) int {
	if tpc < 0 || tpc >= c.NumTPCs() {
		return -1
	}
	logical := 0
	for s := 0; s < c.NumGPCs*c.MaxTPCsPerGPC; s++ {
		if c.slotDisabled(s) {
			continue
		}
		if logical == tpc {
			return s % c.NumGPCs
		}
		logical++
	}
	return -1
}

// TPCsOfGPC returns the logical TPC ids assigned to GPC gpc, ascending.
func (c *Config) TPCsOfGPC(gpc int) []int {
	var out []int
	logical := 0
	for s := 0; s < c.NumGPCs*c.MaxTPCsPerGPC; s++ {
		if c.slotDisabled(s) {
			continue
		}
		if s%c.NumGPCs == gpc {
			out = append(out, logical)
		}
		logical++
	}
	return out
}

func (c *Config) slotDisabled(s int) bool {
	for _, d := range c.DisabledTPCSlots {
		if d == s {
			return true
		}
	}
	return false
}

// GPCOfSM returns the GPC housing SM sm.
func (c *Config) GPCOfSM(sm int) int { return c.GPCOfTPC(c.TPCOfSM(sm)) }

// SlicesPerMC returns the number of L2 slices that share one memory
// controller.
func (c *Config) SlicesPerMC() int { return c.NumL2Slices / c.NumMCs }

// CyclesToSeconds converts a core-clock cycle count to seconds.
func (c *Config) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (float64(c.CoreClockMHz) * 1e6)
}

// BitsPerSecond converts "bits transferred in cycles" to a bitrate.
func (c *Config) BitsPerSecond(bits int, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bits) / c.CyclesToSeconds(cycles)
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (c *Config) Validate() error {
	switch {
	case c.CoreClockMHz <= 0:
		return fmt.Errorf("config: non-positive core clock %d", c.CoreClockMHz)
	case c.SIMTWidth <= 0:
		return fmt.Errorf("config: non-positive SIMT width %d", c.SIMTWidth)
	case c.SMsPerTPC <= 0:
		return fmt.Errorf("config: bad SMs-per-TPC count %d", c.SMsPerTPC)
	case c.NumGPCs <= 0:
		return fmt.Errorf("config: bad GPC count %d", c.NumGPCs)
	case c.MaxTPCsPerGPC <= 0:
		return fmt.Errorf("config: bad TPC slots per GPC %d", c.MaxTPCsPerGPC)
	}
	slots := c.NumGPCs * c.MaxTPCsPerGPC
	seen := make(map[int]bool)
	for _, s := range c.DisabledTPCSlots {
		if s < 0 || s >= slots {
			return fmt.Errorf("config: disabled slot %d out of range [0,%d)", s, slots)
		}
		if seen[s] {
			return fmt.Errorf("config: disabled slot %d listed twice", s)
		}
		seen[s] = true
	}
	for g, n := range c.TPCsPerGPC() {
		if n <= 0 {
			return fmt.Errorf("config: GPC %d has %d enabled TPCs", g, n)
		}
	}
	switch {
	case c.NumL2Slices <= 0 || c.L2SliceSizeBytes <= 0 || c.L2LineBytes <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("config: bad L2 geometry")
	case c.L2SliceSizeBytes%(c.L2LineBytes*c.L2Ways) != 0:
		return fmt.Errorf("config: L2 slice size %d not divisible by line*ways", c.L2SliceSizeBytes)
	case c.NumMCs <= 0 || c.NumL2Slices%c.NumMCs != 0:
		return fmt.Errorf("config: %d slices not divisible across %d MCs", c.NumL2Slices, c.NumMCs)
	case c.L2HitLatency < 1:
		return fmt.Errorf("config: L2 hit latency %d < 1", c.L2HitLatency)
	case c.L2MSHRs <= 0:
		return fmt.Errorf("config: bad L2 MSHR count %d", c.L2MSHRs)
	case c.DRAM.TRC < c.DRAM.TRAS:
		return fmt.Errorf("config: tRC %d < tRAS %d", c.DRAM.TRC, c.DRAM.TRAS)
	case c.MaxWarpsPerSM <= 0 || c.LSUQueueDepth <= 0:
		return fmt.Errorf("config: bad SM limits")
	}
	for _, r := range []struct {
		name     string
		num, den int
	}{
		{"TPCReq", c.NoC.TPCReqRateNum, c.NoC.TPCReqRateDen},
		{"GPCReq", c.NoC.GPCReqRateNum, c.NoC.GPCReqRateDen},
		{"XbarPort", c.NoC.XbarPortRateNum, c.NoC.XbarPortRateDen},
		{"SliceAccept", c.NoC.SliceAcceptRateNum, c.NoC.SliceAcceptDen},
		{"SliceEject", c.NoC.SliceEjectRateNum, c.NoC.SliceEjectRateDen},
		{"XbarRet", c.NoC.XbarRetRateNum, c.NoC.XbarRetRateDen},
		{"GPCRep", c.NoC.GPCRepRateNum, c.NoC.GPCRepRateDen},
		{"TPCRep", c.NoC.TPCRepRateNum, c.NoC.TPCRepRateDen},
	} {
		if r.num <= 0 || r.den <= 0 {
			return fmt.Errorf("config: non-positive %s link rate %d/%d", r.name, r.num, r.den)
		}
	}
	if c.NoC.LSUInjectPeriod <= 0 {
		return fmt.Errorf("config: bad LSU inject period %d", c.NoC.LSUInjectPeriod)
	}
	if c.NoC.CRRHoldLimit <= 0 {
		return fmt.Errorf("config: bad CRR hold limit %d", c.NoC.CRRHoldLimit)
	}
	if c.MeshGPUs < 0 {
		return fmt.Errorf("config: negative mesh GPU count %d", c.MeshGPUs)
	}
	switch c.NVLink.Topology {
	case TopoFullMesh, TopoRing, TopoNVSwitch:
	default:
		return fmt.Errorf("config: unknown mesh topology %d", int(c.NVLink.Topology))
	}
	if n := c.NVLink; n.RateNum < 0 || n.RateDen < 0 || n.HopLatency < 0 || n.SwitchLatency < 0 {
		return fmt.Errorf("config: negative NVLink parameter (rate %d/%d, hop %d, switch %d)",
			n.RateNum, n.RateDen, n.HopLatency, n.SwitchLatency)
	}
	return nil
}

// Clone returns a deep copy suitable for handing to a second engine
// instance: the shared-pointer fields that would otherwise alias state
// across devices are replaced. Probes and Meter, when set, become fresh
// instances (a registry and meter must have exactly one engine's worth of
// components behind each name for per-device metrics to mean anything);
// Telemetry is dropped to nil, because a sampler aggregates exactly one
// registry and the clone no longer feeds the original's. DisabledTPCSlots
// is copied so the clone's topology cannot be mutated through the parent.
// Plain-value fields (including NVLink and NoC) copy as usual.
func (c *Config) Clone() Config {
	out := *c
	if c.DisabledTPCSlots != nil {
		out.DisabledTPCSlots = append([]int(nil), c.DisabledTPCSlots...)
	}
	if c.Probes != nil {
		out.Probes = probe.NewRegistry()
	}
	if c.Meter != nil {
		out.Meter = &CycleMeter{}
	}
	out.Telemetry = nil
	return out
}

// DeviceSeed derives the per-device RNG seed for device dev of a mesh built
// with base seed. Device 0 keeps the base seed unchanged, so a 1-GPU mesh is
// bit-identical to a standalone engine; higher devices mix the device index
// through FNV-1a so no two devices replay one noise stream (the same scheme
// experiments.DeriveSeed uses for per-experiment seeds).
func DeviceSeed(seed int64, dev int) int64 {
	if dev == 0 {
		return seed
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(seed>>(8*i)) & 0xFF
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(dev>>(8*i)) & 0xFF
		h *= prime64
	}
	h &^= 1 << 63 // keep the seed non-negative for readability in logs
	if h == 0 {
		h = 1
	}
	return int64(h)
}

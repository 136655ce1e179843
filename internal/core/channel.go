package core

import (
	"fmt"
	"strings"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
)

// PairResult is the outcome of one parallel sub-channel (one TPC pair or one
// GPC group).
type PairResult struct {
	// Unit is the TPC id (TPC channels) or GPC id (GPC channels).
	Unit int
	// Sent is the unit's data chunk; Received is the raw wire stream the
	// receiver decoded slot by slot; Decoded is the data recovered after
	// preamble alignment and code correction (equal to Received under
	// CodingNone with no preamble). Errors compares Sent against Decoded.
	Sent     []Symbol
	Received []Symbol
	Decoded  []Symbol
	Errors   int
	Trace    []SlotTrace
}

// Result aggregates a covert transmission.
type Result struct {
	Kind          Kind
	Pairs         []PairResult
	SymbolsSent   int
	SymbolErrors  int
	ErrorRate     float64
	BitsSent      int
	Cycles        uint64  // wall-clock cycles of the transmission
	BitsPerSecond float64 // at the configured core clock
}

// Transmission is a prepared covert-channel run: kernels to launch plus the
// bookkeeping needed to decode afterwards.
type Transmission struct {
	cfg    *config.Config
	params Params

	senderSpec   device.KernelSpec
	receiverSpec device.KernelSpec

	receivers []*receiverProgram // one per active unit, same order as chunks
	units     []int              // unit id per receiver
	data      [][]Symbol         // payload symbols per unit (pre-coding)
	chunks    [][]Symbol         // wire symbols per unit (preamble + coded data)
}

// windowSpan separates per-SM probe windows; each window holds two warp
// footprints (64 lines) and stays L2-resident after preloading.
const windowSpan = 4096

func smWindow(smid int) uint64 { return uint64(smid) * windowSpan }

func splitPayload(payload []Symbol, n int) [][]Symbol {
	chunks := make([][]Symbol, n)
	base := len(payload) / n
	rem := len(payload) % n
	idx := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		chunks[i] = payload[idx : idx+size]
		idx += size
	}
	return chunks
}

// NewTransmission prepares an on-die transmission over the given units of
// the channel p.Kind selects: TPCs for TPCChannel, GPCs for GPCChannel (nil
// means all of them, the multi-TPC or multi-GPC channel). The payload is
// split across the units; each carries its chunk independently. Sender and
// receiver are co-located by the §4.3 thread-block scheduling trick: a
// full-width sender launch followed by a full-width receiver launch, each
// program choosing its role from the %smid it observes at runtime, exactly
// like the real attack.
//
//   - TPC channel: the sender runs on the first SM of each TPC and the
//     receiver on the second; the sender signals with writes (§3.4).
//   - GPC channel: the first SM of the GPC's lowest TPC receives, and both
//     SMs of every other TPC send, signalling with reads (§3.4, §4.5).
//
// The NVLink channel needs a mesh; see NewNVLinkTransmission and
// CalibrateRemote.
func NewTransmission(cfg *config.Config, payload []Symbol, units []int, p Params) (*Transmission, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	var n int
	var unitOf func(smid int) int
	switch p.Kind {
	case TPCChannel:
		n, unitOf = cfg.NumTPCs(), cfg.TPCOfSM
	case GPCChannel:
		n, unitOf = cfg.NumGPCs, cfg.GPCOfSM
	case NVLinkChannel:
		return nil, fmt.Errorf("core: the NVLink channel needs a mesh (NewNVLinkTransmission, CalibrateRemote)")
	default:
		return nil, fmt.Errorf("core: unknown channel kind %v", p.Kind)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	if units == nil {
		for u := 0; u < n; u++ {
			units = append(units, u)
		}
	}
	chunkOf := make([]int, n) // unit -> chunk index, -1 when inactive
	for i := range chunkOf {
		chunkOf[i] = -1
	}
	for i, u := range units {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("core: %v %d out of range", p.Kind, u)
		}
		if chunkOf[u] >= 0 {
			return nil, fmt.Errorf("core: %v %d listed twice", p.Kind, u)
		}
		chunkOf[u] = i
	}
	tr := &Transmission{cfg: cfg, params: p, units: units}
	tr.data = splitPayload(payload, len(units))
	tr.chunks = tr.wireChunks()

	first := func(smid int) bool { return smid%cfg.SMsPerTPC == 0 }
	sends, receives := first, func(smid int) bool { return !first(smid) }
	senderBlocks := cfg.NumTPCs() // fills the first SM of every TPC
	if p.Kind == GPCChannel {
		recvTPC := make([]int, cfg.NumGPCs)
		for g := range recvTPC {
			recvTPC[g] = cfg.TPCsOfGPC(g)[0]
		}
		inRecvTPC := func(smid int) bool { return cfg.TPCOfSM(smid) == recvTPC[cfg.GPCOfSM(smid)] }
		sends = func(smid int) bool { return !inRecvTPC(smid) }
		receives = func(smid int) bool { return inRecvTPC(smid) && first(smid) }
		senderBlocks = cfg.NumSMs() // both SM slots of every TPC
	}
	chunk := func(role func(smid int) bool) func(smid int) int {
		return func(smid int) int {
			if !role(smid) {
				return -1
			}
			return chunkOf[unitOf(smid)]
		}
	}
	tr.build(
		kernelSide{blocks: senderBlocks, chunk: chunk(sends), window: smWindow},
		kernelSide{blocks: cfg.NumTPCs(), chunk: chunk(receives), window: smWindow},
		p.Kind == TPCChannel)
	return tr, nil
}

// wireChunks encodes every data chunk into its wire stream (preamble plus
// coded payload; the identity under CodingNone with no preamble).
func (tr *Transmission) wireChunks() [][]Symbol {
	out := make([][]Symbol, len(tr.data))
	for i, d := range tr.data {
		out[i] = tr.params.wireSymbols(d)
	}
	return out
}

// kernelSide describes one of a transmission's two kernels: its grid, and
// what the program a block runs does on the SM it lands on.
type kernelSide struct {
	blocks int
	// chunk returns the index of the chunk the program on smid carries, or
	// -1 when the program exits at once (its block only reserved the SM).
	chunk  func(smid int) int
	window addrFunc
	phase  phaseFunc // nil = phase 0 (on-die channels)
}

// build makes tr's sender and receiver kernels: SenderWarps sender warps
// per block, signalling with writes when write is set and with reads
// otherwise, and one receiver warp per block that listens for its chunk's
// whole wire stream plus the alignment guard.
func (tr *Transmission) build(send, recv kernelSide, write bool) {
	cfg, pp := tr.cfg, tr.params
	name := strings.ToLower(pp.Kind.String())
	tr.senderSpec = device.KernelSpec{
		Name:          "cc-sender-" + name,
		Blocks:        send.blocks,
		WarpsPerBlock: pp.SenderWarps,
		New: func(b, w int) device.Program {
			return &senderProgram{
				clock: newSlotClock(&tr.params, send.phase, pp.Seed^int64(b*64+w+1)*2654435761),
				chunk: func(smid int) []Symbol {
					if ci := send.chunk(smid); ci >= 0 {
						return tr.chunks[ci]
					}
					return nil
				},
				window: send.window,
				write:  write,
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
			}
		},
	}
	tr.receivers = make([]*receiverProgram, len(tr.chunks))
	tr.receiverSpec = device.KernelSpec{
		Name:          "cc-receiver-" + name,
		Blocks:        recv.blocks,
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			r := &receiverProgram{
				clock:  newSlotClock(&tr.params, recv.phase, pp.Seed^int64(b+7)*40503),
				window: recv.window,
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
			}
			r.listen = func(smid int) (int, bool) {
				ci := recv.chunk(smid)
				if ci < 0 {
					return 0, false
				}
				tr.receivers[ci] = r
				return len(tr.chunks[ci]) + tr.params.ResyncGuardSlots, true
			}
			return r
		},
	}
}

// Run executes the transmission on a fresh GPU built from the
// transmission's config, with any co kernels launched alongside it, and
// returns the decoded result.
func (tr *Transmission) Run(co ...device.KernelSpec) (Result, error) {
	g, err := engine.New(*tr.cfg)
	if err != nil {
		return Result{}, err
	}
	if err := tr.Launch(g, 0); err != nil {
		return Result{}, err
	}
	for _, k := range co {
		if _, err := g.Launch(k); err != nil {
			return Result{}, err
		}
	}
	return tr.Finish(g)
}

// Launch preloads every SM's probe window and places the sender and
// receiver kernels on g without running the simulation, launching the
// receiver launchSkew cycles after the sender (0 = back-to-back, the
// cudaStream case; large skews model the MPS cross-process launch of §2.2).
// Callers can co-schedule additional kernels (for example the §5
// third-kernel noise study) before Finish.
func (tr *Transmission) Launch(g *engine.GPU, launchSkew uint64) error {
	g.Preload(0, uint64(tr.cfg.NumSMs())*windowSpan)
	if _, err := g.Launch(tr.senderSpec); err != nil {
		return err
	}
	if _, err := g.LaunchAt(g.Now()+launchSkew, tr.receiverSpec); err != nil {
		return err
	}
	return nil
}

// Finish runs every kernel launched on r to completion and decodes the
// transmission.
func (tr *Transmission) Finish(r engine.KernelRunner) (Result, error) {
	symbols := 0
	for _, c := range tr.chunks {
		symbols += len(c) + tr.params.ResyncGuardSlots
	}
	// Budget: generous multiple of the ideal transmission time.
	budget := uint64(symbols+64) * tr.params.SlotCycles * 8
	if budget < 4_000_000 {
		budget = 4_000_000
	}
	if err := r.RunKernels(budget); err != nil {
		return Result{}, err
	}
	return tr.decode()
}

func (tr *Transmission) decode() (Result, error) {
	res := Result{Kind: tr.params.Kind}
	var span uint64
	for i, chunk := range tr.data {
		r := tr.receivers[i]
		if r == nil {
			return res, fmt.Errorf("core: no receiver activated for unit %d (placement failed)", tr.units[i])
		}
		decoded := tr.params.recoverData(r.Received, len(chunk))
		pr := PairResult{Unit: tr.units[i], Sent: chunk, Received: r.Received, Decoded: decoded, Trace: r.Trace}
		for j := range chunk {
			if j >= len(decoded) || decoded[j] != chunk[j] {
				pr.Errors++
			}
		}
		res.Pairs = append(res.Pairs, pr)
		res.SymbolsSent += len(chunk)
		res.SymbolErrors += pr.Errors
		// A receiver whose unit carries no symbols completes no slot and
		// has no span.
		if r.clock.slot > 0 {
			span = max(span, r.clock.last-r.clock.first)
		}
	}
	if res.SymbolsSent > 0 {
		res.ErrorRate = float64(res.SymbolErrors) / float64(res.SymbolsSent)
	}
	res.BitsSent = res.SymbolsSent * tr.params.BitsPerSymbol
	res.Cycles = span
	res.BitsPerSecond = tr.cfg.BitsPerSecond(res.BitsSent, span)
	return res, nil
}

// Calibrate measures the contended and free mean slot latencies by
// transmitting a known alternating preamble over the channel, and returns
// params with thresholds set to the midpoints between adjacent level means.
// This is the empirical threshold determination of §4.4.
//
// Any co kernels are launched alongside the calibration transmission, so a
// channel that will operate under background traffic can measure its level
// means — and place its thresholds — under that same traffic (noise-aware
// recalibration; pass the generator kernels from internal/noise). The
// calibration transmission itself always runs uncoded: coding and preamble
// only shape the wire stream, and calibration reads raw per-slot latencies
// from the trace, not decoded symbols.
func Calibrate(cfg *config.Config, p Params, preambleSlots int, co ...device.KernelSpec) (Params, error) {
	return calibrate(p, preambleSlots, func(cal Params, payload []Symbol) (Result, error) {
		tr, err := NewTransmission(cfg, payload, []int{0}, cal)
		if err != nil {
			return Result{}, err
		}
		return tr.Run(co...)
	})
}

// calibrate is the part of Calibrate and CalibrateRemote that does not
// depend on the medium: it sends the known calibration payload, uncoded,
// through transmit and returns p, fully defaulted, with thresholds at the
// measured level-mean midpoints.
func calibrate(p Params, preambleSlots int, transmit func(cal Params, payload []Symbol) (Result, error)) (Params, error) {
	p2, err := p.withDefaults()
	if err != nil {
		return p, err
	}
	levels := p2.Levels()
	payload := calibrationPayload(preambleSlots, levels)
	cal := p2
	cal.Coding, cal.Repeat, cal.PreambleSymbols, cal.ResyncGuardSlots = CodingNone, 0, 0, 0
	res, err := transmit(cal, payload)
	if err != nil {
		return p, err
	}
	ths, err := thresholdsFromTrace(res.Pairs[0].Trace, payload, levels)
	if err != nil {
		return p, err
	}
	// Return the fully-defaulted parameters (slot, warps) with the
	// measured thresholds, so callers can rely on every derived field.
	p2.Thresholds = ths
	return p2, nil
}

// calibrationPayload is the known alternating symbol pattern a calibration
// transmission sends so every contention level is sampled.
func calibrationPayload(preambleSlots, levels int) []Symbol {
	if preambleSlots <= 0 {
		preambleSlots = 32
	}
	payload := make([]Symbol, preambleSlots)
	for i := range payload {
		payload[i] = Symbol(i % levels)
	}
	return payload
}

// thresholdsFromTrace places a threshold at the midpoint between the mean
// observed slot latencies of each adjacent pair of levels in a calibration
// trace (the empirical threshold determination of §4.4).
func thresholdsFromTrace(trace []SlotTrace, payload []Symbol, levels int) ([]float64, error) {
	sums := make([]float64, levels)
	counts := make([]int, levels)
	for i, st := range trace {
		if i >= len(payload) {
			break
		}
		lvl := int(payload[i])
		sums[lvl] += st.MeanLatency
		counts[lvl]++
	}
	ths := make([]float64, 0, levels-1)
	for l := 0; l+1 < levels; l++ {
		if counts[l] == 0 || counts[l+1] == 0 {
			return nil, fmt.Errorf("core: calibration level %d unsampled", l)
		}
		lo := sums[l] / float64(counts[l])
		hi := sums[l+1] / float64(counts[l+1])
		// Require a real margin: separations inside the noise floor mean
		// the channel does not exist (e.g. the coalesced sender of
		// Fig 13), not that a threshold between two near-equal means
		// would decode anything.
		const minSeparation = 5.0
		if hi-lo < minSeparation {
			return nil, fmt.Errorf("core: calibration found no usable separation between levels %d and %d (%.1f vs %.1f)",
				l, l+1, lo, hi)
		}
		ths = append(ths, (lo+hi)/2)
	}
	return ths, nil
}

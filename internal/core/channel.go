package core

import (
	"fmt"
	"math/rand"

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

	preloadBase uint64
	preloadSize uint64
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

// NewTPCTransmission prepares a TPC-channel transmission over the given TPCs
// (nil means all TPCs — the multi-TPC channel). The payload is split across
// the active TPCs; each TPC carries its chunk independently, sender on one
// SM and receiver on the other, co-located by the §4.3 thread-block
// scheduling trick (a full-width sender launch followed by a full-width
// receiver launch).
func NewTPCTransmission(cfg *config.Config, payload []Symbol, tpcs []int, p Params) (*Transmission, error) {
	p.Kind = TPCChannel
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	if tpcs == nil {
		for t := 0; t < cfg.NumTPCs(); t++ {
			tpcs = append(tpcs, t)
		}
	}
	active := map[int]int{} // tpc -> chunk index
	for i, t := range tpcs {
		if t < 0 || t >= cfg.NumTPCs() {
			return nil, fmt.Errorf("core: TPC %d out of range", t)
		}
		if _, dup := active[t]; dup {
			return nil, fmt.Errorf("core: TPC %d listed twice", t)
		}
		active[t] = i
	}
	tr := &Transmission{cfg: cfg, params: p, units: tpcs}
	tr.data = splitPayload(payload, len(tpcs))
	tr.chunks = tr.wireChunks()

	// Sender: one block per TPC (fills SM slot 0 of every TPC); active
	// only on the chosen TPCs. The symbol chunk is selected at runtime
	// from the observed %smid, exactly like the real attack.
	pp := tr.params
	senderChunk := func(smid int) []Symbol {
		if smid%cfg.SMsPerTPC != 0 {
			return nil
		}
		ci, ok := active[cfg.TPCOfSM(smid)]
		if !ok {
			return nil
		}
		return tr.chunks[ci]
	}
	tr.senderSpec = device.KernelSpec{
		Name:          "cc-sender-tpc",
		Blocks:        cfg.NumTPCs(),
		WarpsPerBlock: pp.SenderWarps,
		New: func(b, w int) device.Program {
			return &senderProgram{
				p:      &tr.params,
				chunk:  senderChunk,
				window: smWindow,
				write:  true, // TPC channel signals with writes (§3.4)
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b*64+w+1)*2654435761)),
			}
		},
	}

	// Receiver: one block per TPC (fills SM slot 1); active on the chosen
	// TPCs, one probing warp each.
	tr.receivers = make([]*receiverProgram, len(tpcs))
	tr.receiverSpec = device.KernelSpec{
		Name:          "cc-receiver-tpc",
		Blocks:        cfg.NumTPCs(),
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			r := &receiverProgram{
				p: &tr.params,
				active: func(smid int) bool {
					if smid%cfg.SMsPerTPC == 0 {
						return false
					}
					_, ok := active[cfg.TPCOfSM(smid)]
					return ok
				},
				window: func(smid int) uint64 { return smWindow(smid) },
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b+7)*40503)),
			}
			return r
		},
	}
	// The receiver count per unit is bound after placement, in Run: the
	// program discovers its TPC at runtime, so here we wrap New to patch
	// count/registration lazily via the active() callback instead.
	tr.bindReceivers(func(smid int) (int, bool) {
		ci, ok := active[cfg.TPCOfSM(smid)]
		return ci, ok && smid%cfg.SMsPerTPC != 0
	})

	tr.preloadBase = 0
	tr.preloadSize = uint64(cfg.NumSMs()) * windowSpan
	return tr, nil
}

// NewGPCTransmission prepares a GPC-channel transmission over the given GPCs
// (nil = all). Within each GPC, the lowest TPC is the receiver and every
// other TPC sends (both of its SMs, using reads, §4.5). The sender kernel is
// launched across both SM slots of the whole GPU; the receiver kernel rides
// the next launch wave.
func NewGPCTransmission(cfg *config.Config, payload []Symbol, gpcs []int, p Params) (*Transmission, error) {
	p.Kind = GPCChannel
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	if gpcs == nil {
		for g := 0; g < cfg.NumGPCs; g++ {
			gpcs = append(gpcs, g)
		}
	}
	active := map[int]int{} // gpc -> chunk index
	recvTPC := map[int]int{}
	for i, g := range gpcs {
		if g < 0 || g >= cfg.NumGPCs {
			return nil, fmt.Errorf("core: GPC %d out of range", g)
		}
		if _, dup := active[g]; dup {
			return nil, fmt.Errorf("core: GPC %d listed twice", g)
		}
		active[g] = i
		recvTPC[g] = cfg.TPCsOfGPC(g)[0]
	}
	tr := &Transmission{cfg: cfg, params: p, units: gpcs}
	tr.data = splitPayload(payload, len(gpcs))
	tr.chunks = tr.wireChunks()

	pp := tr.params
	senderChunk := func(smid int) []Symbol {
		g := cfg.GPCOfSM(smid)
		ci, ok := active[g]
		if !ok || cfg.TPCOfSM(smid) == recvTPC[g] {
			return nil
		}
		return tr.chunks[ci]
	}
	tr.senderSpec = device.KernelSpec{
		Name:          "cc-sender-gpc",
		Blocks:        cfg.NumSMs(), // both SM slots of every TPC
		WarpsPerBlock: pp.SenderWarps,
		New: func(b, w int) device.Program {
			return &senderProgram{
				p:      &tr.params,
				chunk:  senderChunk,
				window: smWindow,
				write:  false, // GPC channel signals with reads (§3.4)
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b*64+w+1)*2654435761)),
			}
		},
	}

	tr.receivers = make([]*receiverProgram, len(gpcs))
	tr.receiverSpec = device.KernelSpec{
		Name:          "cc-receiver-gpc",
		Blocks:        cfg.NumTPCs(),
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			return &receiverProgram{
				p: &tr.params,
				active: func(smid int) bool {
					g := cfg.GPCOfSM(smid)
					_, ok := active[g]
					return ok && cfg.TPCOfSM(smid) == recvTPC[g] && smid%cfg.SMsPerTPC == 0
				},
				window: func(smid int) uint64 { return smWindow(smid) },
				lineB:  cfg.L2LineBytes,
				simt:   cfg.SIMTWidth,
				rng:    rand.New(rand.NewSource(pp.Seed ^ int64(b+7)*40503)),
			}
		},
	}
	tr.bindReceivers(func(smid int) (int, bool) {
		g := cfg.GPCOfSM(smid)
		ci, ok := active[g]
		return ci, ok && cfg.TPCOfSM(smid) == recvTPC[g] && smid%cfg.SMsPerTPC == 0
	})

	tr.preloadBase = 0
	tr.preloadSize = uint64(cfg.NumSMs()) * windowSpan
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

// bindReceivers wraps the receiver factory so each constructed program
// registers itself under its unit's slot (discovered from its SM at runtime)
// and learns its chunk length.
func (tr *Transmission) bindReceivers(classify func(smid int) (chunkIdx int, active bool)) {
	inner := tr.receiverSpec.New
	tr.receiverSpec.New = func(b, w int) device.Program {
		prog := inner(b, w).(*receiverProgram)
		innerActive := prog.active
		prog.active = func(smid int) bool {
			if !innerActive(smid) {
				return false
			}
			ci, ok := classify(smid)
			if !ok {
				return false
			}
			// Listen for the whole wire stream plus the alignment guard.
			prog.count = len(tr.chunks[ci]) + tr.params.ResyncGuardSlots
			tr.receivers[ci] = prog
			return true
		}
		return prog
	}
}

// Params returns the fully-defaulted parameters in effect.
func (tr *Transmission) Params() Params { return tr.params }

// Run executes the transmission on a fresh GPU built from the
// transmission's config and returns the decoded result.
func (tr *Transmission) Run() (Result, error) {
	g, err := engine.New(*tr.cfg)
	if err != nil {
		return Result{}, err
	}
	return tr.RunOn(g, 0)
}

// RunOn executes the transmission on an existing GPU, launching the receiver
// launchSkew cycles after the sender (0 = back-to-back, the cudaStream case;
// large skews model the MPS cross-process launch of §2.2).
func (tr *Transmission) RunOn(g *engine.GPU, launchSkew uint64) (Result, error) {
	if err := tr.Launch(g, launchSkew); err != nil {
		return Result{}, err
	}
	return tr.Finish(g)
}

// Launch places the sender and receiver kernels on g without running the
// simulation, so callers can co-schedule additional kernels (for example
// the §5 third-kernel noise study) before Finish.
func (tr *Transmission) Launch(g *engine.GPU, launchSkew uint64) error {
	g.Preload(tr.preloadBase, tr.preloadSize)
	if _, err := g.Launch(tr.senderSpec); err != nil {
		return err
	}
	if _, err := g.LaunchAt(g.Now()+launchSkew, tr.receiverSpec); err != nil {
		return err
	}
	return nil
}

// KernelRunner runs every launched kernel to completion within a cycle
// budget: an *engine.GPU or a *mesh.Mesh.
type KernelRunner interface {
	RunKernels(budget uint64) error
}

// Finish runs every kernel launched on r to completion and decodes the
// transmission.
func (tr *Transmission) Finish(r KernelRunner) (Result, error) {
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
		if d := r.LastOp - r.FirstOp; d > span {
			span = d
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
		var tr *Transmission
		var err error
		switch cal.Kind {
		case GPCChannel:
			tr, err = NewGPCTransmission(cfg, payload, []int{0}, cal)
		default:
			tr, err = NewTPCTransmission(cfg, payload, []int{0}, cal)
		}
		if err != nil {
			return Result{}, err
		}
		g, err := engine.New(*cfg)
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
	// Return the fully-defaulted parameters (slot, moduli, warps) with the
	// measured thresholds, so callers can rely on every derived field.
	p2.Thresholds = ths
	p2.Threshold = ths[0]
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

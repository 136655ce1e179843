// Package gpunoc is the public facade of the library: a cycle-level GPU /
// hierarchical-NoC simulator plus a full implementation of the
// interconnect-based covert channel from "Network-on-Chip
// Microarchitecture-based Covert Channel in GPUs" (MICRO 2021).
//
// The typical flow is:
//
//	cfg := gpunoc.VoltaConfig()                     // Table 1 GPU model
//	params, _ := gpunoc.Calibrate(&cfg, gpunoc.ChannelParams{Kind: gpunoc.TPCChannel})
//	res, recovered, _ := gpunoc.SendBytes(&cfg, []byte("secret"), params)
//	fmt.Println(res.BitsPerSecond, res.ErrorRate, string(recovered))
//
// Lower layers are exposed for experimentation: engine.GPU runs arbitrary
// device programs, reveng reverse-engineers the topology from timing alone,
// experiments regenerates every figure and table of the paper, and baseline
// provides the prior-work channels of the Table 2 comparison.
package gpunoc

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/experiments"
	"gpunoc/internal/noise"
	"gpunoc/internal/reveng"
)

// Config is the simulated GPU configuration (re-exported).
type Config = config.Config

// ArbPolicy selects NoC arbitration (RR baseline, CRR, SRR countermeasure).
type ArbPolicy = config.ArbPolicy

// Arbitration policies.
const (
	ArbRR    = config.ArbRR
	ArbCRR   = config.ArbCRR
	ArbSRR   = config.ArbSRR
	ArbAge   = config.ArbAge
	ArbFixed = config.ArbFixed
)

// VoltaConfig returns the Table 1 Volta V100-like configuration.
func VoltaConfig() Config { return config.Volta() }

// SmallConfig returns a reduced topology (2 GPCs x 2 TPCs x 2 SMs) that
// keeps demos and tests fast while exercising the full hierarchy.
func SmallConfig() Config { return config.Small() }

// ChannelKind selects which shared interconnect channel carries a covert
// transmission.
type ChannelKind = core.Kind

// Channel kinds.
const (
	TPCChannel = core.TPCChannel
	GPCChannel = core.GPCChannel
)

// ChannelParams configures a covert transmission (Algorithm 2).
type ChannelParams = core.Params

// ChannelResult is the decoded outcome of a transmission.
type ChannelResult = core.Result

// Symbol is one transmitted unit (a bit, or two bits in multi-level mode).
type Symbol = core.Symbol

// Transmission is a prepared covert-channel run.
type Transmission = core.Transmission

// Coding selects the error-correcting code layered over a transmission's
// symbol stream (ChannelParams.Coding).
type Coding = core.Coding

// Coding schemes.
const (
	CodingNone       = core.CodingNone
	CodingRepetition = core.CodingRepetition
	CodingHamming74  = core.CodingHamming74
)

// NoiseKind selects a background-traffic generator's temporal pattern.
type NoiseKind = noise.Kind

// Noise generator kinds.
const (
	NoiseStream = noise.Stream
	NoiseBurst  = noise.Burst
	NoiseRandom = noise.Random
)

// NoiseSpec describes one background-traffic generator kernel.
type NoiseSpec = noise.Spec

// NoiseKernels builds generator kernels for the given specs (silent specs
// produce none); launch them on a GPU alongside a transmission, or pass
// them to Calibrate for noise-aware thresholds.
func NoiseKernels(cfg *Config, specs ...NoiseSpec) ([]device.KernelSpec, error) {
	return noise.Kernels(cfg, specs...)
}

// GPU is the simulated device (for custom kernels and experiments).
type GPU = engine.GPU

// NewGPU builds a simulated GPU from cfg.
func NewGPU(cfg Config) (*GPU, error) { return engine.New(cfg) }

// Calibrate determines the channel's latency thresholds empirically (§4.4)
// by transmitting a known preamble, and returns params ready for use. Any
// co kernels (e.g. NoiseKernels output) run alongside the calibration so
// thresholds reflect the channel's operating noise.
func Calibrate(cfg *Config, p ChannelParams, co ...device.KernelSpec) (ChannelParams, error) {
	return core.Calibrate(cfg, p, 0, co...)
}

// NewTPCTransmission prepares a TPC-channel transmission over the given TPCs
// (nil = all TPCs, the multi-TPC channel).
func NewTPCTransmission(cfg *Config, payload []Symbol, tpcs []int, p ChannelParams) (*Transmission, error) {
	p.Kind = core.TPCChannel
	return core.NewTransmission(cfg, payload, tpcs, p)
}

// NewGPCTransmission prepares a GPC-channel transmission over the given GPCs
// (nil = all GPCs, the multi-GPC channel).
func NewGPCTransmission(cfg *Config, payload []Symbol, gpcs []int, p ChannelParams) (*Transmission, error) {
	p.Kind = core.GPCChannel
	return core.NewTransmission(cfg, payload, gpcs, p)
}

// SendBytes transmits data over the on-die covert channel configured by p
// (all TPCs or GPCs of the kind; the NVLink channel is rejected) and returns
// the decoded result plus the recovered bytes: each unit's data after
// preamble alignment and code correction, with symbols a cut-short unit
// never received read as zero.
func SendBytes(cfg *Config, data []byte, p ChannelParams) (ChannelResult, []byte, error) {
	bps := p.BitsPerSymbol
	if bps == 0 {
		bps = 1
	}
	payload, err := core.BytesToSymbols(data, bps)
	if err != nil {
		return ChannelResult{}, nil, err
	}
	tr, err := core.NewTransmission(cfg, payload, nil, p)
	if err != nil {
		return ChannelResult{}, nil, err
	}
	res, err := tr.Run()
	if err != nil {
		return ChannelResult{}, nil, err
	}
	// Reassemble the decoded data in payload order.
	decoded := make([]Symbol, 0, len(payload))
	for _, pair := range res.Pairs {
		decoded = append(decoded, pair.Decoded...)
		decoded = append(decoded, make([]Symbol, len(pair.Sent)-len(pair.Decoded))...)
	}
	got, err := core.SymbolsToBytes(decoded, bps)
	if err != nil {
		return res, nil, fmt.Errorf("gpunoc: reassembly failed: %w", err)
	}
	return res, got, nil
}

// BytesToSymbols and SymbolsToBytes convert payloads (re-exported helpers).
func BytesToSymbols(data []byte, bitsPerSymbol int) ([]Symbol, error) {
	return core.BytesToSymbols(data, bitsPerSymbol)
}

// SymbolsToBytes packs decoded symbols back into bytes.
func SymbolsToBytes(symbols []Symbol, bitsPerSymbol int) ([]byte, error) {
	return core.SymbolsToBytes(symbols, bitsPerSymbol)
}

// ReverseEngineerTopology recovers the TPC pairing of one SM (Fig 2) and the
// TPC->GPC grouping (Fig 3/4) purely from timing measurements, the way the
// paper's attacker does.
func ReverseEngineerTopology(cfg *Config) (pairOfSM0 int, gpcGroups [][]int, err error) {
	points, err := reveng.TPCSweep(cfg, 0, 4, 10)
	if err != nil {
		return 0, nil, err
	}
	pair, err := reveng.PairedSM(points)
	if err != nil {
		return 0, nil, err
	}
	opt := reveng.GPCProbeOptions{Reps: 8}
	if cfg.NumTPCs() <= 8 {
		opt.Background = -1
	}
	groups, err := reveng.MapGPCs(cfg, opt, 0)
	if err != nil {
		return 0, nil, err
	}
	return pair, groups, nil
}

// Experiments re-exports the per-figure harness.
type (
	// Figure is one regenerated paper artifact.
	Figure = experiments.Figure
	// ExperimentOptions scales experiment effort.
	ExperimentOptions = experiments.Options
)

// Experiment scales.
const (
	QuickScale = experiments.Quick
	FullScale  = experiments.Full
)

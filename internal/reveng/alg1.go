package reveng

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
)

// Activation is one SM's part in an Algorithm 1 launch: Warps warps on SM
// each stream Ops uncoalesced writes, or reads when Write is false. Warps
// below 1 count as 1.
type Activation struct {
	SM    int
	Ops   int
	Warps int
	Write bool
}

// Layout places the activated warps' streaming windows: warp w of SM s
// streams from Base + (s*Slots + w%Slots)*Span, wrapping at 4 KB, and a run
// preloads the first min(Span, 4 KB) of every slot an activated warp
// streams, so every window it touches is L2-resident.
type Layout struct {
	Base  uint64
	Slots int
	Span  uint64
}

// WarpLayout is the layout of the contention figures and gpusim: each SM
// has warps slots, and each slot its own 8 KB window, counted from base.
func WarpLayout(base uint64, warps int) Layout {
	return Layout{Base: base, Slots: warps, Span: 8192}
}

// wrapBytes keeps each warp's stream inside the first 4 KB of its window.
const wrapBytes = 4096

// budget bounds every Algorithm 1 run; only a livelock reaches it.
const budget = 100_000_000

// Bench is a built Algorithm 1 kernel. Its grid covers every SM with one
// block of the largest activation's warp count; each warp reads %smid on
// its first step, as the paper's kernel does, and exits at once unless its
// SM is activated with Ops > 0 and the warp is one of the activation's
// Warps. The others time a device.Streamer over their window.
type Bench struct {
	// Spec is the kernel to launch; callers may rename it.
	Spec device.KernelSpec

	windows []uint64 // ascending base of every slot an activated warp streams
	extent  uint64   // bytes each of them streams: min(Span, wrapBytes)
	streams []*timedStream
}

// NewBench builds the Algorithm 1 kernel for acts on cfg's GPU.
func NewBench(cfg *config.Config, acts []Activation, lay Layout) (*Bench, error) {
	if lay.Slots < 1 || lay.Span == 0 {
		return nil, fmt.Errorf("reveng: layout %+v has no windows", lay)
	}
	bySM := map[int]Activation{}
	warps := 1
	for _, a := range acts {
		if a.SM < 0 || a.SM >= cfg.NumSMs() {
			return nil, fmt.Errorf("reveng: SM %d out of range", a.SM)
		}
		if _, dup := bySM[a.SM]; dup {
			return nil, fmt.Errorf("reveng: SM %d activated twice", a.SM)
		}
		a.Warps = max(a.Warps, 1)
		bySM[a.SM] = a
		warps = max(warps, a.Warps)
	}
	b := &Bench{extent: min(lay.Span, wrapBytes)}
	for sm := 0; sm < cfg.NumSMs(); sm++ {
		a, ok := bySM[sm]
		if !ok || a.Ops <= 0 {
			continue
		}
		for slot := 0; slot < min(a.Warps, lay.Slots); slot++ {
			b.windows = append(b.windows, lay.Base+uint64(sm*lay.Slots+slot)*lay.Span)
		}
	}
	b.Spec = device.KernelSpec{
		Name:          "alg1",
		Blocks:        cfg.NumSMs(),
		WarpsPerBlock: warps,
		New: func(_, w int) device.Program {
			s := &timedStream{acts: bySM, lay: lay, lineBytes: cfg.L2LineBytes, warp: w}
			b.streams = append(b.streams, s)
			return s
		},
	}
	return b, nil
}

// Run preloads the windows the activated warps stream into mem's L2, in
// ascending address order, launches the kernel on dev, runs r until every
// launched kernel has finished, and returns each activated SM's time in
// cycles: that of its slowest warp. On one GPU, dev, mem and r are the same
// device.
func (b *Bench) Run(dev, mem *engine.GPU, r engine.KernelRunner) (map[int]uint64, error) {
	for _, w := range b.windows {
		mem.Preload(w, b.extent)
	}
	if _, err := dev.Launch(b.Spec); err != nil {
		return nil, err
	}
	if err := r.RunKernels(budget); err != nil {
		return nil, err
	}
	out := map[int]uint64{}
	for _, s := range b.streams {
		if s.finished {
			out[s.sm] = max(out[s.sm], s.end-s.start)
		}
	}
	return out, nil
}

// Measure runs the Algorithm 1 kernel for acts on a fresh GPU built from
// cfg and returns each activated SM's time in cycles.
func Measure(cfg *config.Config, acts []Activation, lay Layout) (map[int]uint64, error) {
	b, err := NewBench(cfg, acts, lay)
	if err != nil {
		return nil, err
	}
	g, err := engine.New(*cfg)
	if err != nil {
		return nil, err
	}
	return b.Run(g, g, g)
}

// timedStream is one warp of the Algorithm 1 kernel. It binds to its
// activation on its first step and records its start and end clocks, the
// way the paper's kernel reads clock().
type timedStream struct {
	acts      map[int]Activation
	lay       Layout
	lineBytes int
	warp      int

	bound    bool
	active   bool
	finished bool
	sm       int
	start    uint64
	end      uint64
	inner    device.Streamer
}

// Step implements device.Program.
func (s *timedStream) Step(ctx *device.Ctx) device.Op {
	if !s.bound {
		s.bound = true
		a, ok := s.acts[ctx.SMID]
		if !ok || s.warp >= a.Warps || a.Ops <= 0 {
			return device.Done()
		}
		s.active = true
		s.sm = ctx.SMID
		s.start = ctx.Clock64
		slot := uint64(ctx.SMID*s.lay.Slots + s.warp%s.lay.Slots)
		s.inner = device.Streamer{
			Base:        s.lay.Base + slot*s.lay.Span,
			LineBytes:   s.lineBytes,
			Write:       a.Write,
			Count:       a.Ops,
			Uncoalesced: true,
			WrapBytes:   wrapBytes,
		}
	}
	if !s.active {
		return device.Done()
	}
	op := s.inner.Step(ctx)
	if op.Kind == device.OpDone && !s.finished {
		s.finished = true
		s.end = ctx.Clock64
	}
	return op
}

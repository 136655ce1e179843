// Package engine is the cycle-driven top level of the GPU simulator: it owns
// the SMs, the hierarchical NoC, the L2/memory partitions, the per-SM clock
// registers, and the thread-block scheduler, and advances them all in a
// deterministic tick order. Kernels (device.KernelSpec) are launched onto
// the GPU, placed by the reverse-engineered scheduler of §4.3, and run to
// completion; the engine reports per-kernel execution times, which is the
// measurement every figure of the paper is built from.
package engine

import (
	"fmt"

	"gpunoc/internal/clockreg"
	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/mem"
	"gpunoc/internal/noc"
	"gpunoc/internal/packet"
	"gpunoc/internal/probe"
	"gpunoc/internal/sched"
	"gpunoc/internal/sm"
	"gpunoc/internal/tbsched"
	"gpunoc/internal/telemetry"
)

// BlockPlacement records where one block of a launched kernel landed.
type BlockPlacement struct {
	Block int
	SM    int
}

// Kernel is a resident kernel launch.
type Kernel struct {
	ID     int
	Spec   device.KernelSpec
	Blocks []BlockPlacement

	LaunchedAt uint64
	FinishedAt uint64
	done       bool
}

// Running reports whether the kernel has unfinished warps.
func (k *Kernel) Running() bool { return !k.done }

// Duration returns the kernel execution time in cycles (0 while running).
func (k *Kernel) Duration() uint64 {
	if !k.done {
		return 0
	}
	return k.FinishedAt - k.LaunchedAt
}

// GPU is the simulated device.
type GPU struct {
	cfg    config.Config
	clocks *clockreg.Bank
	net    *noc.Network
	part   *mem.Partition
	sms    []*sm.SM
	sched  *tbsched.Scheduler

	kernels []*Kernel
	now     uint64

	// Activity-driven scheduling: SMs are woken by AddWarp/OnReply and
	// parked by step once Quiescent() holds. smSet is nil when
	// cfg.ExhaustiveTick is set, selecting the tick-everything reference
	// path. running counts kernels not yet done, so Run can fast-forward
	// across stretches where no component holds work.
	smSet   *sched.ActiveSet
	running int

	// rmt is the cross-GPU seam (see remote.go): nil on a standalone
	// device, set by ConnectRemote when the GPU joins a mesh. The hot
	// paths pay one nil check when unconnected.
	rmt *remoteState

	// trace is cached from the registry so updateKernels can emit one span
	// per completed kernel; nil when tracing is disabled.
	trace       *probe.Trace
	kernelTrack probe.TrackID

	schedCycles *probe.Counter // cycles actually stepped (not fast-forwarded)
	smTicks     *probe.Counter // SM Tick calls under the activity scheduler
	ffwdCycles  *probe.Counter // cycles skipped by Run's idle fast-forward

	// tel is cached from the configuration so the run loops pay a single
	// nil check per cycle when telemetry is off. The sampler is stepped
	// outside step() — the hot-allocation lint root — because emitting a
	// window builds the window's maps, which allocates.
	tel *telemetry.Sampler
}

// New builds a GPU for cfg. The configuration is copied; later mutations of
// the caller's value do not affect the instance.
func New(cfg config.Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg}

	var err error
	if g.clocks, err = clockreg.New(&g.cfg); err != nil {
		return nil, err
	}
	if g.sched, err = tbsched.New(&g.cfg); err != nil {
		return nil, err
	}
	if g.part, err = mem.NewPartition(&g.cfg, g.onReplyFromSlice); err != nil {
		return nil, err
	}
	if g.net, err = noc.New(&g.cfg, g.onRequestAtSlice, g.onReplyAtSM); err != nil {
		return nil, err
	}
	g.sms = make([]*sm.SM, g.cfg.NumSMs())
	for i := range g.sms {
		i := i
		g.sms[i], err = sm.New(i, &g.cfg, g.clocks, func(now uint64, p *packet.Packet) {
			if g.rmt != nil {
				if d := g.rmt.owner(p.Addr); d != g.rmt.dev {
					g.rmt.pushRequest(p, d)
					return
				}
			}
			p.Slice = g.part.SliceFor(p.Addr)
			g.net.InjectRequest(now, i, p)
		})
		if err != nil {
			return nil, err
		}
	}
	if !g.cfg.ExhaustiveTick {
		g.smSet = sched.NewActiveSet(len(g.sms))
		for i, s := range g.sms {
			s.SetWaker(func() { g.smSet.Wake(i) })
		}
	}
	if g.cfg.Telemetry != nil {
		if g.cfg.Probes == nil {
			return nil, fmt.Errorf("engine: config carries a telemetry sampler but no probe registry to aggregate (set Config.Probes)")
		}
		g.tel = g.cfg.Telemetry
	}
	if g.cfg.Probes != nil {
		if tr := g.cfg.Probes.Tracer(); tr != nil {
			g.trace = tr
			g.kernelTrack = tr.Track("kernels")
		}
		g.schedCycles = g.cfg.Probes.Counter("sched/cycles")
		g.smTicks = g.cfg.Probes.Counter("sched/sm_ticks")
		g.ffwdCycles = g.cfg.Probes.Counter("sched/ffwd_cycles")
	}
	return g, nil
}

func (g *GPU) onRequestAtSlice(now uint64, p *packet.Packet) { g.part.Accept(now, p) }

// onReplyFromSlice routes a completed reply: cross-GPU replies (a request
// stamped SrcDev != DstDev at NVLink egress keeps the stamps through the
// slice) leave for the origin device through the remote reply outbox instead
// of entering the local reply subnet.
func (g *GPU) onReplyFromSlice(now uint64, p *packet.Packet) {
	if g.rmt != nil && p.SrcDev != p.DstDev {
		g.rmt.pushReply(p)
		return
	}
	g.net.InjectReply(now, p)
}
func (g *GPU) onReplyAtSM(now uint64, p *packet.Packet) { g.sms[p.Tag.SM].OnReply(now, p) }

// Config returns the (immutable) configuration.
func (g *GPU) Config() *config.Config { return &g.cfg }

// Clocks exposes the clock register bank (reverse engineering reads skews).
func (g *GPU) Clocks() *clockreg.Bank { return g.clocks }

// Network exposes the NoC for link statistics.
func (g *GPU) Network() *noc.Network { return g.net }

// Partition exposes the memory partitions (preloads, stats).
func (g *GPU) Partition() *mem.Partition { return g.part }

// SM returns SM i.
func (g *GPU) SM(i int) *sm.SM { return g.sms[i] }

// Probes returns the instrumentation registry this GPU was built with, or
// nil when the configuration carried none.
func (g *GPU) Probes() *probe.Registry { return g.cfg.Probes }

// ProbeSnapshot captures the registry's metrics at the current cycle. It
// returns the zero Snapshot when instrumentation is disabled.
func (g *GPU) ProbeSnapshot() probe.Snapshot { return g.cfg.Probes.Snapshot(g.now) }

// Now returns the current cycle.
func (g *GPU) Now() uint64 { return g.now }

// Preload warms the L2 with [base, base+size).
func (g *GPU) Preload(base, size uint64) { g.part.Preload(base, size) }

// Launch places a kernel's blocks via the thread-block scheduler and makes
// its warps resident. It mirrors a cudaStream launch: placement happens
// immediately at the current cycle; warps begin after the per-SM dispatch
// jitter.
func (g *GPU) Launch(spec device.KernelSpec) (*Kernel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sms, err := g.sched.Assign(spec.Blocks)
	if err != nil {
		return nil, err
	}
	k := &Kernel{ID: len(g.kernels), Spec: spec, LaunchedAt: g.now}
	for b, smID := range sms {
		k.Blocks = append(k.Blocks, BlockPlacement{Block: b, SM: smID})
		for w := 0; w < spec.WarpsPerBlock; w++ {
			prog := spec.New(b, w)
			if prog == nil {
				return nil, fmt.Errorf("engine: kernel %q produced nil program for block %d warp %d",
					spec.Name, b, w)
			}
			if err := g.sms[smID].AddWarp(g.now, k.ID, b, w, prog); err != nil {
				return nil, err
			}
		}
	}
	g.kernels = append(g.kernels, k)
	g.running++
	return k, nil
}

// LaunchAt runs the simulation until cycle at, then launches the kernel —
// convenient for modeling the one-time process skew of an MPS-style launch
// (§2.2).
func (g *GPU) LaunchAt(at uint64, spec device.KernelSpec) (*Kernel, error) {
	if at < g.now {
		return nil, fmt.Errorf("engine: launch cycle %d is in the past (now %d)", at, g.now)
	}
	g.RunFor(at - g.now)
	return g.Launch(spec)
}

// step advances the GPU by one cycle in a fixed component order: SMs issue,
// the fabric moves packets, the memory partitions service requests. Under
// activity-driven scheduling only active SMs tick (in ascending id order,
// matching the exhaustive loop); an SM whose warps are all stalled on memory
// parks itself until a reply or a new warp wakes it.
func (g *GPU) step() {
	if g.smSet == nil {
		for _, s := range g.sms {
			s.Tick(g.now)
		}
	} else if !g.smSet.Empty() {
		for i, s := range g.sms {
			if !g.smSet.Active(i) {
				continue
			}
			s.Tick(g.now)
			if g.smTicks != nil {
				g.smTicks.Inc()
			}
			if s.Quiescent() {
				g.smSet.Park(i)
			}
		}
	}
	g.net.Tick(g.now)
	g.part.Tick(g.now)
	g.updateKernels()
	if g.schedCycles != nil {
		g.schedCycles.Inc()
	}
	g.now++
}

func (g *GPU) updateKernels() {
	for _, k := range g.kernels {
		if k.done {
			continue
		}
		running := 0
		for _, bp := range k.Blocks {
			running += g.sms[bp.SM].RunningWarps(k.ID)
			if running > 0 {
				break
			}
		}
		if running == 0 {
			k.done = true
			k.FinishedAt = g.now
			g.running--
			if g.trace != nil {
				g.trace.Span(g.kernelTrack, k.Spec.Name, k.LaunchedAt, g.now)
			}
			for _, bp := range k.Blocks {
				// Release occupancy and recycle warp slots.
				if err := g.sched.Release(bp.SM); err != nil {
					panic(fmt.Sprintf("engine: release kernel %d block on SM %d: %v", k.ID, bp.SM, err))
				}
			}
			//lint:allow hotalloc runs once per kernel completion, not per cycle
			seen := map[int]bool{}
			for _, bp := range k.Blocks {
				if !seen[bp.SM] {
					seen[bp.SM] = true
					g.sms[bp.SM].ReclaimFinished()
				}
			}
		}
	}
}

// Stepper is a simulated system that Run can drive: one GPU or an NVLink
// mesh of them.
type Stepper interface {
	// Quiet reports whether stepping would be a no-op: every component is
	// parked and nothing can change state until the next launch.
	Quiet() bool
	// StepCycle advances exactly one cycle.
	StepCycle()
	// SkipCycles advances n cycles without stepping; Run calls it only
	// while Quiet holds.
	SkipCycles(n uint64)
}

// Run advances s until cond returns true or budget cycles have passed, and
// reports how many cycles it advanced and whether cond fired. A nil cond
// never fires. It is the one loop behind every RunFor and RunUntil, of a GPU
// and of a mesh alike: a busy system is stepped one cycle at a time, and a
// quiet one is skipped, since nothing can change state until the next
// launch and every per-cycle observable (clock registers, probe snapshots)
// is a pure function of the cycle number. cond is evaluated at every cycle
// boundary, skipped ones included, so it fires at the cycle and on the
// state the stepped loop would have; without a cond the remaining budget is
// skipped in one jump.
func Run(s Stepper, cond func() bool, budget uint64) (ran uint64, fired bool) {
	for ran < budget {
		if cond != nil && cond() {
			return ran, true
		}
		if !s.Quiet() {
			s.StepCycle()
			ran++
			continue
		}
		if cond == nil {
			s.SkipCycles(budget - ran)
			return budget, false
		}
		s.SkipCycles(1)
		ran++
	}
	return ran, cond != nil && cond()
}

// Quiet reports whether every component is parked, no kernel is running
// and no packet waits in a remote outbox: no future cycle can do work until
// the next Launch or AcceptRemote. Always false in exhaustive mode.
func (g *GPU) Quiet() bool {
	if g.rmt != nil && !g.rmt.boxesEmpty() {
		return false
	}
	return g.smSet != nil && g.running == 0 && g.smSet.Empty() &&
		g.net.Quiet() && g.part.Quiet()
}

// StepCycle advances the device one cycle, then steps the telemetry sampler
// by one (outside step(); see the tel field).
func (g *GPU) StepCycle() {
	g.step()
	if g.tel != nil {
		g.tel.Step(1, g.cfg.Probes)
	}
}

// SkipCycles advances the device n cycles without stepping; the caller must
// have established Quiet (a mesh checks it across all devices and links).
// The registry cannot change while the device is parked, so handing the
// sampler the whole span in one call emits the windows stepping would have.
func (g *GPU) SkipCycles(n uint64) {
	g.now += n
	if g.ffwdCycles != nil {
		g.ffwdCycles.Add(n)
	}
	if g.tel != nil {
		g.tel.Step(n, g.cfg.Probes)
	}
}

// RunFor advances the simulation n cycles.
func (g *GPU) RunFor(n uint64) {
	Run(g, nil, n)
	g.cfg.Meter.Add(n)
}

// RunUntil advances the simulation until cond returns true or the cycle
// budget is exhausted; it reports whether cond fired.
func (g *GPU) RunUntil(cond func() bool, budget uint64) bool {
	ran, fired := Run(g, cond, budget)
	g.cfg.Meter.Add(ran)
	return fired
}

// RunKernels runs until every launched kernel has completed, with a cycle
// budget to guard against livelock. It returns an error on budget
// exhaustion.
func (g *GPU) RunKernels(budget uint64) error {
	ok := g.RunUntil(func() bool {
		for _, k := range g.kernels {
			if !k.done {
				return false
			}
		}
		return true
	}, budget)
	if !ok {
		return fmt.Errorf("engine: kernels still running after %d-cycle budget", budget)
	}
	return nil
}

// Idle reports whether no component holds queued work.
func (g *GPU) Idle() bool {
	for _, s := range g.sms {
		if !s.Idle() {
			return false
		}
	}
	return g.net.Idle() && g.part.Idle()
}

// Kernels returns all launches in order.
func (g *GPU) Kernels() []*Kernel { return g.kernels }

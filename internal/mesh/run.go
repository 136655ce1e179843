// The mesh's global cycle and run API. The mesh is an engine.Stepper, so
// RunFor and RunUntil are engine.Run over the whole mesh, the same loop that
// drives a single GPU.
package mesh

import (
	"fmt"

	"gpunoc/internal/device"
	"gpunoc/internal/engine"
	"gpunoc/internal/link"
)

// NumDevices returns the number of GPUs in the mesh.
func (m *Mesh) NumDevices() int { return len(m.gpus) }

// GPU returns device d. Callers may launch kernels, preload memory, and
// inspect state through it, but must not step it — the mesh owns the clock.
func (m *Mesh) GPU(d int) *engine.GPU { return m.gpus[d] }

// Now returns the global cycle. Every device's engine.Now agrees with it.
func (m *Mesh) Now() uint64 { return m.now }

// Links returns the fabric links in canonical tick order, for stats and
// tests. Callers must not enqueue on or tick them.
func (m *Mesh) Links() []*link.Link { return m.links }

// LaunchAt runs the whole mesh until global cycle at, then launches the
// kernel on device d — the multi-device analogue of engine.LaunchAt for
// modeling MPS-style launch skew.
func (m *Mesh) LaunchAt(d int, at uint64, spec device.KernelSpec) (*engine.Kernel, error) {
	if at < m.now {
		return nil, fmt.Errorf("mesh: launch cycle %d is in the past (now %d)", at, m.now)
	}
	m.RunFor(at - m.now)
	return m.gpus[d].Launch(spec)
}

// stepCycle advances the whole mesh one global cycle in the canonical
// order: per device ascending — deliver inbound packets, step the device,
// drain its outboxes onto first-hop links — then tick every fabric link in
// build order. Link deliveries land in inboxes and are consumed at the
// start of the destination's next cycle.
func (m *Mesh) stepCycle() {
	now := m.now
	for d, g := range m.gpus {
		if box := m.inbox[d]; len(box) != 0 {
			for _, p := range box {
				g.AcceptRemote(now, p)
			}
			m.inbox[d] = box[:0]
		}
		g.StepCycle()
		g.DrainRemote(m.drains[d])
	}
	for _, l := range m.links {
		l.Tick(now)
	}
	m.now++
}

// StepCycle advances the whole mesh one global cycle. The work stays in
// stepCycle, the symbol cmd/gpunoc-bench's traced run attributes
// mesh.step_s to.
func (m *Mesh) StepCycle() { m.stepCycle() }

// Quiet reports whether no future cycle can do work: every device parked
// with empty outboxes, every fabric link drained, every inbox empty.
func (m *Mesh) Quiet() bool {
	for _, g := range m.gpus {
		if !g.Quiet() {
			return false
		}
	}
	for _, l := range m.links {
		if !l.Idle() {
			return false
		}
	}
	for _, box := range m.inbox {
		if len(box) != 0 {
			return false
		}
	}
	return true
}

// SkipCycles advances the whole mesh n cycles without stepping; the caller
// must have established Quiet. Device clocks, fast-forward counters and
// telemetry samplers all advance as if stepped.
func (m *Mesh) SkipCycles(n uint64) {
	for _, g := range m.gpus {
		g.SkipCycles(n)
	}
	m.now += n
}

// meterAdd records n global cycles: n per device on each device's own
// meter, and n per device on the base configuration's meter (the experiment
// runner's "cycles summed over every engine instance" convention).
func (m *Mesh) meterAdd(n uint64) {
	for _, c := range m.cfgs {
		c.Meter.Add(n)
	}
	m.meter.Add(n * uint64(len(m.gpus)))
}

// RunFor advances the mesh n global cycles.
func (m *Mesh) RunFor(n uint64) {
	engine.Run(m, nil, n)
	m.meterAdd(n)
}

// RunUntil advances the mesh until cond returns true or the cycle budget is
// exhausted; it reports whether cond fired.
func (m *Mesh) RunUntil(cond func() bool, budget uint64) bool {
	ran, fired := engine.Run(m, cond, budget)
	m.meterAdd(ran)
	return fired
}

// RunKernels runs until every kernel launched on every device has
// completed, with a global cycle budget to guard against livelock.
func (m *Mesh) RunKernels(budget uint64) error {
	ok := m.RunUntil(func() bool {
		for _, g := range m.gpus {
			for _, k := range g.Kernels() {
				if k.Running() {
					return false
				}
			}
		}
		return true
	}, budget)
	if !ok {
		return fmt.Errorf("mesh: kernels still running after %d-cycle budget", budget)
	}
	return nil
}

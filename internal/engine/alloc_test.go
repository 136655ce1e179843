package engine

import "testing"

// TestTickPathAllocatesNothing is the allocation gate on the steady-state
// tick path: once a BenchmarkEngineTick workload is warm, running it 1000
// more cycles allocates nothing. Packets, coalescer scratch, slice event
// heaps, DRAM requests and MSHR waiter lists are all recycled, so a new
// allocation under GPU.step, Link.Tick, Slice.Tick, Controller.Tick or
// SM.Tick fails this test.
//
// sparse-telemetry is exempt by design: once per window the sampler builds
// the window's maps. It is stepped outside GPU.step for that reason.
func TestTickPathAllocatesNothing(t *testing.T) {
	for _, w := range tickWorkloads {
		if w.name == "sparse-telemetry" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			g := w.build(t)
			if n := testing.AllocsPerRun(5, func() { g.RunFor(1000) }); n != 0 {
				t.Errorf("%v allocations per 1000 steady-state cycles, want 0", n)
			}
		})
	}
}

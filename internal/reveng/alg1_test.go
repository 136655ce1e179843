package reveng

import (
	"fmt"
	"reflect"
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/device"
	"gpunoc/internal/engine"
)

// TestMeasurePinsTimes pins per-SM times of the Algorithm 1 kernel in both
// window layouts. The values were recorded with the two runners this kernel
// replaced (the §3 probes' and the contention figures'), so a change here
// changes every report built on them.
func TestMeasurePinsTimes(t *testing.T) {
	small, volta := config.Small(), config.Volta()
	probeLayout := Layout{Slots: 2, Span: 4096}
	acts := func(sms []int, write bool, warps, ops int) []Activation {
		var out []Activation
		for _, sm := range sms {
			out = append(out, Activation{SM: sm, Ops: ops, Warps: warps, Write: write})
		}
		return out
	}
	for _, c := range []struct {
		name string
		cfg  *config.Config
		acts []Activation
		lay  Layout
		want map[int]uint64
	}{
		{"probe layout, small writes", &small, acts([]int{0, 1, 5}, true, 4, 12), probeLayout,
			map[int]uint64{0: 12286, 1: 12322, 5: 6158}},
		{"probe layout, volta reads", &volta, acts([]int{0, 1, 2, 3}, false, 2, 8), probeLayout,
			map[int]uint64{0: 1559, 1: 1592, 2: 1574, 3: 1624}},
		// SM0 writes while its TPC mate reads more ops with fewer warps.
		{"warp layout, mixed pair", &small, []Activation{
			{SM: 0, Ops: 10, Warps: 4, Write: true},
			{SM: 1, Ops: 25, Warps: 2, Write: false},
		}, WarpLayout(0, 4), map[int]uint64{0: 6411, 1: 7399}},
	} {
		got, err := Measure(c.cfg, c.acts, c.lay)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: times %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchKernelShape pins the grid: one block per SM with the largest
// activation's warp count, since every warp's dispatch-jitter draw depends
// on it.
func TestBenchKernelShape(t *testing.T) {
	cfg := config.Small()
	b, err := NewBench(&cfg, []Activation{{SM: 2, Ops: 1, Warps: 3}, {SM: 5, Ops: 1}}, WarpLayout(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.Blocks != cfg.NumSMs() || b.Spec.WarpsPerBlock != 3 {
		t.Errorf("grid %d blocks x %d warps, want %d x 3", b.Spec.Blocks, b.Spec.WarpsPerBlock, cfg.NumSMs())
	}
}

// TestBenchWarpsExitOnFirstStep checks the three ways a warp sits out: its
// SM has no activation, its index is at or past the activation's Warps, or
// the activation has no ops. Each exits on its first step without a memory
// op; an active warp streams from its window.
func TestBenchWarpsExitOnFirstStep(t *testing.T) {
	cfg := config.Small()
	b, err := NewBench(&cfg, []Activation{{SM: 1, Ops: 3, Warps: 2, Write: true}, {SM: 2, Ops: 0, Warps: 4}},
		WarpLayout(1<<20, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sm   int
		warp int
	}{
		{"unactivated SM", 0, 0},
		{"warp past the activation's Warps", 1, 2},
		{"activation with no ops", 2, 0},
	} {
		prog := b.Spec.New(c.sm, c.warp)
		if op := prog.Step(&device.Ctx{SMID: c.sm, Warp: c.warp}); op.Kind != device.OpDone {
			t.Errorf("%s: first op %+v, want done", c.name, op)
		}
	}
	if op := b.Spec.New(1, 1).Step(&device.Ctx{SMID: 1, Warp: 1}); op.Kind != device.OpMem || !op.Mem.Write {
		t.Errorf("active warp: first op %+v, want a write", op)
	}
}

// TestBenchWindows pins where each layout puts a warp's stream: in the
// probe layout an SM's warps alternate between the two 4 KB halves of its
// 8 KB window; in the warp layout each warp slot has its own 8 KB window
// from the base.
func TestBenchWindows(t *testing.T) {
	cfg := config.Small()
	for _, c := range []struct {
		name     string
		lay      Layout
		sm, warp int
		want     uint64
	}{
		{"probe layout, even warp", Layout{Slots: 2, Span: 4096}, 5, 2, 5 * 8192},
		{"probe layout, odd warp", Layout{Slots: 2, Span: 4096}, 5, 3, 5*8192 + 4096},
		{"warp layout", WarpLayout(1<<20, 4), 5, 3, 1<<20 + (5*4+3)*8192},
	} {
		b, err := NewBench(&cfg, []Activation{{SM: c.sm, Ops: 5, Warps: 4}}, c.lay)
		if err != nil {
			t.Fatal(err)
		}
		prog := b.Spec.New(c.sm, c.warp)
		ctx := &device.Ctx{SMID: c.sm, Warp: c.warp}
		// Each op steps one uncoalesced warp footprint (32 lines of 32
		// bytes, 1 KB) on, so the fifth wraps back to the window's start.
		for i, off := range []uint64{0, 1024, 2048, 3072, 0} {
			if op := prog.Step(ctx); op.Mem.Base != c.want+off {
				t.Errorf("%s: op %d at %#x, want %#x", c.name, i, op.Mem.Base, c.want+off)
			}
		}
	}
}

// TestMeasureValidation rejects activations outside the GPU, an SM
// activated twice, and a layout without windows.
func TestMeasureValidation(t *testing.T) {
	cfg := config.Small()
	for _, c := range []struct {
		name string
		acts []Activation
		lay  Layout
	}{
		{"negative SM", []Activation{{SM: -1, Ops: 1}}, WarpLayout(0, 1)},
		{"SM past the GPU", []Activation{{SM: cfg.NumSMs(), Ops: 1}}, WarpLayout(0, 1)},
		{"duplicate SM", []Activation{{SM: 0, Ops: 1}, {SM: 0, Ops: 1}}, WarpLayout(0, 1)},
		{"no windows", []Activation{{SM: 0, Ops: 1}}, Layout{}},
	} {
		if _, err := Measure(&cfg, c.acts, c.lay); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

// TestBenchKeepsWindowsResident holds Layout's promise that every window an
// activated warp streams is L2-resident. On Volta with eight warps per SM
// (gpusim's -config volta -warps 8), preloading every SM's windows would
// take 80 x 8 x 8 KB = 5 MiB, past the 4.5 MiB L2, and evict activated
// windows; a run preloads only the activated ones and misses nothing.
func TestBenchKeepsWindowsResident(t *testing.T) {
	cfg := config.Volta()
	acts := []Activation{{SM: 0, Ops: 20, Warps: 8, Write: true}, {SM: 1, Ops: 20, Warps: 8, Write: true}}
	b, err := NewBench(&cfg, acts, WarpLayout(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(g, g, g); err != nil {
		t.Fatal(err)
	}
	if st := g.Partition().Stats(); st.Misses != 0 || st.Hits != st.Served || st.Served == 0 {
		t.Errorf("L2 %+v, want every access a hit", st)
	}
}

// TestPreloadOfIdleWindowsChangesNothing checks that skipping the idle SMs'
// windows moves no time: on small, where every SM's windows fit the L2, a
// run preceded by a preload of all of them (NumSMs*Slots*Span bytes from
// Base) returns the same per-SM times as a plain Measure, for the
// activation sets of fig2, fig5 and fig8 at quick scale.
func TestPreloadOfIdleWindowsChangesNothing(t *testing.T) {
	cfg := config.Small()
	act := func(sm, ops int, write bool) Activation { return Activation{SM: sm, Ops: ops, Warps: 4, Write: write} }
	type run struct {
		name string
		acts []Activation
		lay  Layout
	}
	var runs []run
	for other := 1; other < cfg.NumSMs(); other++ {
		runs = append(runs, run{fmt.Sprintf("fig2 SM0+SM%d", other),
			[]Activation{act(0, 8, true), act(other, 8, true)}, Layout{Slots: 2, Span: 4096}})
	}
	for _, write := range []bool{true, false} {
		runs = append(runs, run{fmt.Sprintf("fig5 TPC write=%v", write),
			[]Activation{act(0, 8, write), act(1, 24, write)}, WarpLayout(0, 4)})
		gpc := cfg.TPCsOfGPC(0)
		for n := 1; n <= len(gpc); n++ {
			var acts []Activation
			for _, tpc := range gpc[:n] {
				ops := 24
				if tpc == gpc[0] {
					ops = 8
				}
				for _, sm := range cfg.SMsOfTPC(tpc) {
					acts = append(acts, act(sm, ops, write))
				}
			}
			runs = append(runs, run{fmt.Sprintf("fig5 GPC n=%d write=%v", n, write), acts, WarpLayout(0, 4)})
		}
	}
	for _, contender := range []int{1, cfg.SMsOfTPC(1)[0]} {
		for _, c := range []int{1, 2, 3, 4, 6, 7, 8, 9} {
			runs = append(runs, run{fmt.Sprintf("fig8 SM%d ops=%d", contender, c),
				[]Activation{act(0, 10, true), act(contender, c, true)}, WarpLayout(0, 4)})
		}
	}
	for _, r := range runs {
		got, err := Measure(&cfg, r.acts, r.lay)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		b, err := NewBench(&cfg, r.acts, r.lay)
		if err != nil {
			t.Fatal(err)
		}
		g, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Preload(r.lay.Base, uint64(cfg.NumSMs()*r.lay.Slots)*r.lay.Span)
		want, err := b.Run(g, g, g)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: times %v, want %v as after a preload of every window", r.name, got, want)
		}
	}
}

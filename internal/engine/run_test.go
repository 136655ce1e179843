package engine_test

// engine.Run is the one loop behind RunFor and RunUntil of a GPU and of an
// NVLink mesh. These tests pin its contract on a fake Stepper, and check on
// a mesh what ffwd_test.go checks on a GPU: a quiet stretch re-evaluates
// cond at every skipped cycle boundary. This file is an external test
// package because internal/mesh imports internal/engine.

import (
	"testing"

	"gpunoc/internal/config"
	"gpunoc/internal/engine"
	"gpunoc/internal/mesh"
)

// fakeStepper is busy until cycle busyUntil and quiet from then on.
type fakeStepper struct {
	now, busyUntil   uint64
	stepped, skipped uint64
	jumps            int
}

func (f *fakeStepper) Quiet() bool { return f.now >= f.busyUntil }
func (f *fakeStepper) StepCycle()  { f.stepped++; f.now++ }
func (f *fakeStepper) SkipCycles(n uint64) {
	if !f.Quiet() {
		panic("SkipCycles while busy")
	}
	f.skipped += n
	f.jumps++
	f.now += n
}

func TestRunStepsBusyCyclesAndSkipsQuietOnes(t *testing.T) {
	// Without a cond the quiet remainder is skipped in one jump.
	f := &fakeStepper{busyUntil: 3}
	ran, fired := engine.Run(f, nil, 10)
	if ran != 10 || fired || f.now != 10 {
		t.Errorf("Run(nil, 10) = (%d, %v) at cycle %d, want (10, false) at 10", ran, fired, f.now)
	}
	if f.stepped != 3 || f.skipped != 7 || f.jumps != 1 {
		t.Errorf("stepped %d, skipped %d in %d jumps; want 3, 7 in 1", f.stepped, f.skipped, f.jumps)
	}

	// A cond that never fires is evaluated once at every boundary,
	// 0 through the budget, skipped ones included.
	f = &fakeStepper{busyUntil: 3}
	var evals []uint64
	ran, fired = engine.Run(f, func() bool { evals = append(evals, f.now); return false }, 10)
	if ran != 10 || fired || f.stepped != 3 || f.skipped != 7 {
		t.Errorf("never-true cond: ran %d fired %v, stepped %d skipped %d", ran, fired, f.stepped, f.skipped)
	}
	if len(evals) != 11 {
		t.Fatalf("cond evaluated at %v, want each of cycles 0..10 once", evals)
	}
	for i, c := range evals {
		if c != uint64(i) {
			t.Fatalf("cond evaluated at %v, want each of cycles 0..10 once", evals)
		}
	}

	// A cond that fires mid-skip stops the clock there; one that fires
	// only at the final boundary still counts as fired.
	for _, at := range []uint64{1, 6, 10} {
		f = &fakeStepper{busyUntil: 3}
		ran, fired = engine.Run(f, func() bool { return f.now >= at }, 10)
		if ran != at || !fired || f.now != at {
			t.Errorf("cond at %d: Run = (%d, %v) at cycle %d", at, ran, fired, f.now)
		}
	}

	// A zero budget only evaluates cond.
	f = &fakeStepper{}
	if ran, fired = engine.Run(f, func() bool { return true }, 0); ran != 0 || !fired {
		t.Errorf("zero budget, true cond: Run = (%d, %v), want (0, true)", ran, fired)
	}
}

// TestRunUntilCondFiresMidSkipOnMesh is TestRunUntilCondFiresMidSkip on a
// 2-device mesh, which is quiet from cycle 0: the cond must fire at exactly
// cycle 1000, not at the end of the budget.
func TestRunUntilCondFiresMidSkipOnMesh(t *testing.T) {
	m, err := mesh.New(config.Small(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Quiet() {
		t.Fatal("a fresh mesh must be quiet")
	}
	if !m.RunUntil(func() bool { return m.Now() >= 1000 }, 1_000_000) {
		t.Fatal("Now-dependent cond never fired")
	}
	if m.Now() != 1000 {
		t.Errorf("cond fired at cycle %d, want exactly 1000", m.Now())
	}
	for d := 0; d < m.NumDevices(); d++ {
		if got := m.GPU(d).Now(); got != 1000 {
			t.Errorf("device %d at cycle %d, want 1000 in lockstep with the mesh", d, got)
		}
	}
}

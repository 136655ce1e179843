package main

import (
	"strings"
	"testing"
)

func boolPtr(b bool) *bool { return &b }

// runs returns n copies of v: n repeated runs that all measured v.
func runs(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestCompareUngatedIsPrintedNotEnforced(t *testing.T) {
	base := map[string]baselineEntry{
		"idle":      {After: 1.0, Gate: boolPtr(false)},
		"saturated": {After: 100.0},
	}
	measured := map[string][]float64{
		"idle":      {50.0}, // 50x drift, but ungated
		"saturated": {101.0},
	}
	var out strings.Builder
	if err := compare(&out, base, measured, "BENCH_tick.json"); err != nil {
		t.Fatalf("ungated drift must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "UNGATED") {
		t.Errorf("gate:false entry must print an UNGATED line, got:\n%s", out.String())
	}
}

func TestCompareGatedDriftFails(t *testing.T) {
	base := map[string]baselineEntry{"saturated": {After: 100.0}}
	measured := map[string][]float64{"saturated": {200.0}}
	var out strings.Builder
	err := compare(&out, base, measured, "BENCH_tick.json")
	if err == nil {
		t.Fatal("a 2x regression on a gated metric must fail")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("want a FAIL line, got:\n%s", out.String())
	}
}

func TestCompareMissingBenchmarksAllReported(t *testing.T) {
	base := map[string]baselineEntry{
		"saturated": {After: 100.0},
		"gone-b":    {After: 1.0},
		"gone-a":    {After: 1.0, Gate: boolPtr(false)},
	}
	measured := map[string][]float64{"saturated": {100.0}}
	var out strings.Builder
	err := compare(&out, base, measured, "BENCH_tick.json")
	if err == nil {
		t.Fatal("baseline entries naming vanished benchmarks must fail")
	}
	msg := err.Error()
	// Every stale entry is listed, in sorted order, gated or not.
	if !strings.Contains(msg, "gone-a, gone-b") {
		t.Errorf("error must list all missing entries sorted, got: %v", err)
	}
}

func TestParseBench(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkEngineTick/idle-8         	200000	         0.5 ns/op
BenchmarkEngineTick/saturated      	200000	       184.7 ns/op
BenchmarkOther/saturated-8         	    20	  16300000 ns/op
BenchmarkEngineTick/saturated      	200000	       190.1 ns/op
PASS
`)
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got["idle"]) != 1 || got["idle"][0] != 0.5 {
		t.Fatalf("parseBench = %v, want only the EngineTick results", got)
	}
	if s := got["saturated"]; len(s) != 2 || s[0] != 184.7 || s[1] != 190.1 {
		t.Errorf("parseBench kept saturated runs %v, want both repeats [184.7 190.1] in order", s)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		runs []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},       // odd count: the middle value
		{[]float64{8, 2, 4, 6}, 5},    // even count: the mean of the two middle values
		{[]float64{1, 1, 100, 1}, 1},  // an outlier does not move it
		{[]float64{7, 3, 3, 9, 7}, 7}, // duplicates
	} {
		in := append([]float64(nil), c.runs...)
		if got := median(c.runs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.runs, got, c.want)
		}
		for i := range in {
			if in[i] != c.runs[i] {
				t.Fatalf("median reordered its input: %v, was %v", c.runs, in)
			}
		}
	}
}

// TestCompareOneOutlierInTenPasses pins why the gate reads medians: one run
// in ten that is 40% slow, the kind of one-off stall a shared runner shows
// with the code unchanged, must not fail it.
func TestCompareOneOutlierInTenPasses(t *testing.T) {
	base := map[string]baselineEntry{"saturated": {After: 100.0}}
	r := runs(10, 100.0)
	r[3] = 140.0
	var out strings.Builder
	if err := compare(&out, base, map[string][]float64{"saturated": r}, "BENCH_tick.json"); err != nil {
		t.Fatalf("one 40%% outlier in ten runs must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "median of 10") {
		t.Errorf("report must name the run count, got:\n%s", out.String())
	}
}

// TestCompareAllRunsOffFails is the other side: when every run is 30% off,
// in either direction, the median is too and the gate fails.
func TestCompareAllRunsOffFails(t *testing.T) {
	base := map[string]baselineEntry{"saturated": {After: 100.0}}
	for _, v := range []float64{130.0, 70.0} {
		var out strings.Builder
		err := compare(&out, base, map[string][]float64{"saturated": runs(10, v)}, "BENCH_tick.json")
		if err == nil {
			t.Errorf("ten runs at %v against a 100 baseline must fail", v)
		}
		if !strings.Contains(out.String(), "FAIL") {
			t.Errorf("want a FAIL line for ten runs at %v, got:\n%s", v, out.String())
		}
	}
}

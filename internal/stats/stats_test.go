package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) should fail")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should fail")
	}
	xs := []float64{3, -2, 8, 0}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if lo != -2 || hi != 8 {
		t.Errorf("Min/Max = %v/%v", lo, hi)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	a, b, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 1, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("fit = %v + %vx (r2=%v)", a, b, r2)
	}
	if _, _, _, err := LinearFit(x, y[:3]); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x should fail")
	}
	// Constant y is a perfect horizontal fit.
	_, b, r2, err = LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || b != 0 || r2 != 1 {
		t.Errorf("constant fit: b=%v r2=%v err=%v", b, r2, err)
	}
}

// Property: mean is always within [min, max].
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

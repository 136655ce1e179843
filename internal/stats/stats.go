// Package stats provides a small statistics toolkit over float64 slices.
// The experiments' shape checks use LinearFit, Min and Max, and the probe
// histograms report their distribution as a Dist; the other helpers have no
// caller outside this package's tests.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
// Slices with fewer than two elements have zero variance.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// LinearFit fits y = a + b*x by least squares and returns the intercept a,
// slope b, and the coefficient of determination r2.
func LinearFit(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: mismatched lengths")
	}
	if len(x) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: degenerate x values")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2, nil
}

// Histogram bins xs into n equal-width buckets between min and max and
// returns the per-bucket counts along with the bucket edges (n+1 values).
func Histogram(xs []float64, n int) (counts []int, edges []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if n <= 0 {
		return nil, nil, errors.New("stats: non-positive bucket count")
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if lo == hi {
		hi = lo + 1
	}
	counts = make([]int, n)
	edges = make([]float64, n+1)
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + width*float64(i)
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts, edges, nil
}

// Normalize divides every element of xs by base and returns a new slice.
// A zero base yields a copy of xs unchanged, which keeps ratio plots sane
// when a baseline measurement failed.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if base != 0 {
			out[i] = x / base
		} else {
			out[i] = x
		}
	}
	return out
}

// Running accumulates streaming statistics without retaining samples.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator (Welford's algorithm).
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased running variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased running standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample seen (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample seen (0 when empty).
func (r *Running) Max() float64 { return r.max }

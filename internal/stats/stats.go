// Package stats holds the few statistics the repo uses over float64
// slices: the experiments' shape checks use LinearFit, Min and Max, and the
// probe histograms report their distribution as a Dist.
package stats

import "errors"

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

// Dist is the standard distribution summary: sample count, mean, the 50th /
// 95th / 99th percentiles, and the maximum. It is the one shape every
// component reports a latency distribution in — link queue waits, L2
// service latencies, DRAM queue waits, SM operation latencies.
type Dist struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

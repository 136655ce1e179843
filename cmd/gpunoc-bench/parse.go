package main

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// together with the sample count it was taken over; 0 for no values.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// summaryRow is one row of ccbench's stderr Summary table.
type summaryRow struct {
	id     string
	cycles uint64
	status string
}

// summary is ccbench's stderr Summary: one row per experiment plus the
// totals row.
type summary struct {
	rows        []summaryRow
	totalCycles uint64
	experiments int
	failed      int
}

// parseSummary reads the Summary table ccbench prints to stderr:
//
//	experiment               wall         cycles     cycles/s  status
//	fig3                  10.134s         813867      0.0803M  ok
//	total                  15.481s        1556284               3 experiments, 0 failed
//
// Lines before the header (diagnostics) are ignored. It fails when the
// totals row is missing or malformed, or when the row count disagrees with it.
func parseSummary(stderr string) (summary, error) {
	var s summary
	inTable, sawTotal := false, false
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !inTable {
			inTable = f[0] == "experiment" && len(f) >= 5 && f[1] == "wall"
			continue
		}
		if f[0] == "total" {
			// total <wall> <cycles> <n> experiments, <k> failed
			if len(f) != 7 || f[4] != "experiments," || f[6] != "failed" {
				return s, fmt.Errorf("malformed Summary total row %q", line)
			}
			var err error
			if s.totalCycles, err = strconv.ParseUint(f[2], 10, 64); err != nil {
				return s, fmt.Errorf("Summary total cycles: %w", err)
			}
			if s.experiments, err = strconv.Atoi(f[3]); err != nil {
				return s, fmt.Errorf("Summary experiment count: %w", err)
			}
			if s.failed, err = strconv.Atoi(f[5]); err != nil {
				return s, fmt.Errorf("Summary failed count: %w", err)
			}
			sawTotal = true
			break
		}
		if len(f) != 5 {
			return s, fmt.Errorf("malformed Summary row %q", line)
		}
		cycles, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return s, fmt.Errorf("Summary row %q: %w", line, err)
		}
		s.rows = append(s.rows, summaryRow{id: f[0], cycles: cycles, status: f[4]})
	}
	if !sawTotal {
		return s, fmt.Errorf("no Summary total row in ccbench stderr")
	}
	if len(s.rows) != s.experiments {
		return s, fmt.Errorf("Summary lists %d rows but totals %d experiments", len(s.rows), s.experiments)
	}
	return s, nil
}

// profileRow is one function's CPU time from `go tool pprof -top`, in
// seconds: flat is time in the function itself, cum includes its callees.
type profileRow struct {
	flat, cum float64
}

// profile is a parsed `go tool pprof -top` listing.
type profile struct {
	total float64 // "Total samples" in seconds
	funcs map[string]profileRow
}

// parsePprofTop parses the text `go tool pprof -top` prints:
//
//	Duration: 5.01s, Total samples = 4.70s (93.80%)
//	      flat  flat%   sum%        cum   cum%
//	     1.20s 25.53% 25.53%      2.30s 48.94%  gpunoc/internal/noc.(*Network).Tick
func parsePprofTop(out string) (profile, error) {
	p := profile{funcs: map[string]profileRow{}}
	inTable, sawTotal := false, false
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "Total samples = "); i >= 0 {
			rest := strings.Fields(line[i+len("Total samples = "):])
			if len(rest) == 0 {
				return p, fmt.Errorf("malformed pprof total line %q", line)
			}
			t, err := parsePprofDuration(rest[0])
			if err != nil {
				return p, err
			}
			p.total, sawTotal = t, true
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		flat, err := parsePprofDuration(f[0])
		if err != nil {
			return p, fmt.Errorf("pprof row %q: %w", line, err)
		}
		cum, err := parsePprofDuration(f[3])
		if err != nil {
			return p, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.Join(f[5:], " ")
		r := p.funcs[name]
		r.flat += flat
		r.cum += cum
		p.funcs[name] = r
	}
	if !sawTotal {
		return p, fmt.Errorf("no \"Total samples\" line in pprof output")
	}
	return p, nil
}

// parsePprofDuration parses pprof's duration cells: "0", "10ms", "1.20s",
// "1.50mins", "2hrs", "250us".
func parsePprofDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		secs   float64
	}{
		{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1},
	}
	if s == "0" {
		return 0, nil
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return v * u.secs, nil
		}
	}
	return 0, fmt.Errorf("pprof duration %q: unknown unit", s)
}

// packageOf returns the import path of the package a pprof function name
// belongs to: "gpunoc/internal/ring.(*Buffer[...]).Push" → "gpunoc/internal/ring".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// digest is the hex md5 of b, the form the pinned output digests take.
func digest(b []byte) string {
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:])
}

// digestFiles digests a set of output files by name: each file contributes
// its name, a NUL and its bytes, in name order.
func digestFiles(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := md5.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchcheck gates benchmark results against the checked-in baseline.
//
// It reads `go test -bench` output (stdin by default), takes the median of
// every EngineTick sub-benchmark's repeated runs, and compares it against
// the "after" numbers recorded in BENCH_tick.json, failing when a gated
// median drifts more than ±25% from its baseline. A median of -count 10
// runs rides out the one-off slow run that would fail a single-run gate.
// Baseline entries with "gate": false are reported but never enforced (the
// idle number is an O(1) fast-forward measured in fractions of a
// nanosecond — pure environment noise).
//
// Usage:
//
//	go test ./internal/engine ./internal/mesh -run xxx -bench EngineTick \
//	    -benchtime 200000x -count 10 | go run ./cmd/benchcheck -baseline BENCH_tick.json
//
// A failure means either a real regression (fix it) or an intentional
// performance change (regenerate the baseline with the commands recorded in
// the file's "how" section and commit the new numbers alongside the change).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tolerance is the allowed fractional drift of a median from its baseline.
const tolerance = 0.25

type baselineEntry struct {
	After float64 `json:"after"`
	Gate  *bool   `json:"gate"`
	Note  string  `json:"note"`
}

type baseline struct {
	EngineTick map[string]baselineEntry `json:"engine_tick_ns_per_cycle"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkEngineTick/sparse-2sm-8   200000   184.7 ns/op
//
// The trailing -N is the GOMAXPROCS suffix, omitted when it is 1.
var benchLine = regexp.MustCompile(`^BenchmarkEngineTick/(\S+?)(-\d+)?\s+\d+\s+([0-9.eE+-]+) ns/op`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_tick.json", "baseline JSON file")
	in := flag.String("in", "-", "benchmark output to read ('-' for stdin)")
	flag.Parse()

	if err := run(*baselinePath, *in); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
}

func run(baselinePath, in string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	if len(base.EngineTick) == 0 {
		return fmt.Errorf("%s: no engine_tick_ns_per_cycle entries", baselinePath)
	}

	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	measured, err := parseBench(src)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no BenchmarkEngineTick results in input")
	}
	return compare(os.Stdout, base.EngineTick, measured, baselinePath)
}

// compare reports the median of every measured sub-benchmark against the
// baseline. Gated entries outside the tolerance band fail; "gate": false
// entries print an UNGATED line so unenforced metrics stay visible in CI
// logs instead of being silently skipped; a baseline entry whose benchmark
// no longer exists in the input is an error (a renamed or deleted benchmark
// must take its baseline entry with it).
func compare(w io.Writer, base map[string]baselineEntry, measured map[string][]float64, baselinePath string) error {
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		runs := measured[name]
		got := median(runs)
		entry, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%-12s %10.4f ns/op  median of %2d  (no baseline entry — add one to %s)\n",
				name, got, len(runs), baselinePath)
			continue
		}
		gated := entry.Gate == nil || *entry.Gate
		drift := got/entry.After - 1
		status := "ok"
		if !gated {
			status = "UNGATED"
		} else if drift > tolerance || drift < -tolerance {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "%-12s %10.4f ns/op  median of %2d  baseline %10.4f  drift %+6.1f%%  %s\n",
			name, got, len(runs), entry.After, drift*100, status)
	}
	var missing []string
	for name := range base {
		if _, ok := measured[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("baseline metric(s) %s missing from benchmark output; remove stale entries from %s or restore the benchmark",
			strings.Join(missing, ", "), baselinePath)
	}
	if failures > 0 {
		return fmt.Errorf("%d median(s) outside the ±%.0f%% band; if intentional, regenerate %s (see its \"how\" section)",
			failures, tolerance*100, baselinePath)
	}
	return nil
}

// median returns the middle value of runs, or the mean of the two middle
// values for an even count. runs is never empty: parseBench only creates an
// entry when it appends a run.
func median(runs []float64) float64 {
	s := append([]float64(nil), runs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// parseBench collects every EngineTick result line, keeping each repeated
// run of a sub-benchmark (go test -count N prints one line per run).
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

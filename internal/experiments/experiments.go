// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated GPU. Each Fig*/Table* function runs the
// corresponding workload and returns the same rows/series the paper
// reports, and registers itself (id, paper section, run/check functions) in
// the package Registry; cmd/ccbench and the bench harness at the repository
// root discover the full artifact set from there.
//
// The Runner fans registered experiments out over a bounded worker pool —
// the engine is single-goroutine, so parallelism lives across the
// independent engine instances each experiment builds. Per-experiment seeds
// derive from the suite seed and the experiment id (DeriveSeed), making
// Report output byte-identical at any worker count.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not a V100), but each function documents the shape that must
// hold and Check* helpers assert it.
package experiments

import (
	"fmt"
	"strings"

	"gpunoc/internal/config"
	"gpunoc/internal/reveng"
)

// Series is one named curve of an experiment figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is the regenerated data for one paper artifact.
type Figure struct {
	ID    string // "fig2", "table2", ...
	Title string
	// XLabel/YLabel mirror the paper's axes.
	XLabel, YLabel string
	Series         []Series
	// Rows holds table-style output (Table 1/2 and summaries).
	Header []string
	Rows   [][]string
	// Notes records deviations and observations.
	Notes []string
}

// Scale selects how much work each experiment does.
type Scale int

const (
	// Quick shrinks payloads/reps so the whole suite runs in seconds —
	// used by unit tests and -short benchmarks.
	Quick Scale = iota
	// Full approximates the paper's sample sizes.
	Full
)

// Options configures an experiment run.
type Options struct {
	Scale Scale
	Seed  int64
	// Metrics attaches a fresh probe.Registry to each experiment's Config
	// copy; the Runner snapshots it into Result.Metrics when the experiment
	// finishes. Instrumentation never influences simulation results, so
	// figures are identical with and without it.
	Metrics bool
	// Telemetry attaches a windowed telemetry sampler (DefaultWindowCycles,
	// with a paper-rate detector watching) to each experiment's Config copy,
	// creating a probe registry if Metrics did not already; the Runner
	// collects the stream into Result.TelemetryWindows/TelemetryEvents.
	// Like Metrics, it never influences simulation results.
	Telemetry bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) pick(quick, full int) int {
	if o.Scale == Full {
		return full
	}
	return quick
}

// addSeries appends a curve.
func (f *Figure) addSeries(name string, x, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// note records an observation.
func (f *Figure) note(format string, args ...interface{}) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// seriesByName finds a series (tests use it).
func (f *Figure) seriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Render produces a plain-text rendering of the figure for reports.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Header) > 0 {
		fmt.Fprintf(&b, "%s\n", strings.Join(f.Header, " | "))
		for _, row := range f.Rows {
			fmt.Fprintf(&b, "%s\n", strings.Join(row, " | "))
		}
	}
	for _, s := range f.Series {
		fmt.Fprintf(&b, "series %q (%s -> %s):\n", s.Name, f.XLabel, f.YLabel)
		for i := range s.X {
			fmt.Fprintf(&b, "  %10.3f  %12.4f\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// soloTime measures one SM running the Algorithm 1 streamer alone (the
// normalization baseline of the contention figures).
func soloTime(cfg *config.Config, sm, ops, warps int, write bool) (uint64, error) {
	times, err := reveng.Measure(cfg, []reveng.Activation{{SM: sm, Ops: ops, Warps: warps, Write: write}},
		reveng.WarpLayout(0, warps))
	if err != nil {
		return 0, err
	}
	t := times[sm]
	if t == 0 {
		return 0, fmt.Errorf("experiments: no solo measurement for SM %d", sm)
	}
	return t, nil
}

// CSV renders the figure's series (or table rows) as CSV for plotting. Series
// figures emit long-format rows: series,x,y. Table figures emit the header
// and rows verbatim.
func (f *Figure) CSV() string {
	var b strings.Builder
	if len(f.Rows) > 0 {
		fmt.Fprintf(&b, "%s\n", strings.Join(csvEscape(f.Header), ","))
		for _, row := range f.Rows {
			fmt.Fprintf(&b, "%s\n", strings.Join(csvEscape(row), ","))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "series,%s,%s\n", csvField(f.XLabel), csvField(f.YLabel))
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvField(s.Name), s.X[i], s.Y[i])
		}
	}
	return b.String()
}

func csvEscape(fields []string) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = csvField(f)
	}
	return out
}

func csvField(f string) string {
	if strings.ContainsAny(f, ",\"\n") {
		return `"` + strings.ReplaceAll(f, `"`, `""`) + `"`
	}
	return f
}

// Command ccbench regenerates the paper's tables and figures on the
// simulated GPU and prints them as a plain-text report. It is the
// command-line face of the internal/experiments harness: experiments come
// from the package registry (every Fig*/Table* registers itself), and a
// bounded worker pool runs them concurrently — each experiment owns its
// engine instances, so the suite parallelizes across experiments. Per-
// experiment seeds are derived from the suite seed and the experiment id,
// which makes the report byte-identical at any -parallel setting.
//
// Usage:
//
//	ccbench [-config volta|small] [-scale quick|full] [-seed N]
//	        [-only fig10,table2,...] [-parallel N]
//	        [-check] [-csv DIR] [-metrics DIR] [-telemetry DIR]
//	        [-cache-dir DIR] [-gpus N] [-topology full|ring|nvswitch]
//	ccbench -list
//
// -gpus and -topology shape the simulated multi-GPU mesh used by the
// cross-GPU experiments (nvlink-remote-vs-local, nvlink-channel); on-die
// experiments ignore them. -gpus 0 leaves each experiment's default (2).
//
// The default suite seed is 5, matching every command line and number in
// docs/EXPERIMENTS.md, so a bare `ccbench` reproduces the documented
// outputs.
//
// -metrics DIR attaches a probe registry to every experiment and writes one
// <id>.metrics.json and <id>.metrics.csv per experiment into DIR. The files
// are deterministic: byte-identical across runs and at any -parallel
// setting, because each experiment owns a private registry and snapshots
// are sorted by metric name.
//
// -cache-dir DIR enables the content-addressed result cache: each
// completed experiment is stored under its cache key — (config hash, config
// name, suite seed, experiment id, scale, observer flags) — and a later run
// with the same key is served from disk without simulating. -parallel is
// deliberately not part of the key: results are identical at every
// setting, so a warm run renders byte-identically to the cold run that
// populated the cache. Failed experiments are never cached.
//
// -telemetry DIR attaches a windowed telemetry sampler (with a paper-rate
// covert-channel detector watching) to every experiment and writes one
// <id>.windows.jsonl and <id>.events.jsonl per experiment into DIR. Like
// -metrics, the streams are byte-identical across runs and at any -parallel
// setting; CI diffs them to prove it. Output directories are probed for
// writability up front — a directory that cannot be created or written fails
// fast with exit status 2 before any simulation runs.
//
// The report goes to stdout; a per-experiment timing/cycles summary goes to
// stderr (wall times vary run to run, so they are kept out of the
// deterministic stream).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpunoc/internal/config"
	"gpunoc/internal/experiments"
	"gpunoc/internal/telemetry"
)

// ensureWritableDir creates dir if missing and proves it is writable by
// creating and removing a probe file, so a bad output directory fails fast
// (exit 2) before hours of simulation, not after.
func ensureWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	probe := filepath.Join(dir, ".writable")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return fmt.Errorf("output directory %s is not writable: %w", dir, err)
	}
	if err := os.Remove(probe); err != nil {
		return fmt.Errorf("output directory %s: removing probe file: %w", dir, err)
	}
	return nil
}

func main() {
	cfgName := flag.String("config", "volta", "GPU configuration: volta or small")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 5, "suite seed; each experiment derives its own seed from it (5 matches docs/EXPERIMENTS.md)")
	only := flag.String("only", "", "comma-separated subset of experiments (see -list)")
	csvDir := flag.String("csv", "", "directory to also write per-experiment CSV files into (created if missing)")
	metricsDir := flag.String("metrics", "", "directory to write per-experiment probe metrics (JSON+CSV) into (created if missing)")
	telemetryDir := flag.String("telemetry", "", "directory to write per-experiment telemetry window/event JSONL streams into (created if missing)")
	cacheDir := flag.String("cache-dir", "", "directory for the content-addressed result cache; repeated runs with the same key are served from it without simulating")
	parallel := flag.Int("parallel", 0, "experiments to run concurrently (0 = GOMAXPROCS)")
	gpus := flag.Int("gpus", 0, "GPUs per simulated mesh for the cross-GPU experiments (0 = their default of 2)")
	topology := flag.String("topology", "", "NVLink mesh topology: full, ring, or nvswitch (empty = config default)")
	check := flag.Bool("check", false, "also assert each experiment's paper-shape Check")
	list := flag.Bool("list", false, "list registered experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			note := ""
			if e.FixedScale {
				note = " [ignores -scale]"
			}
			fmt.Printf("%-16s %-28s %s%s\n", e.ID, e.Section, e.Title, note)
		}
		return
	}

	var cfg config.Config
	switch *cfgName {
	case "volta":
		cfg = config.Volta()
	case "small":
		cfg = config.Small()
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	if *gpus < 0 {
		fmt.Fprintf(os.Stderr, "ccbench: negative -gpus %d\n", *gpus)
		os.Exit(2)
	}
	cfg.MeshGPUs = *gpus
	if *topology != "" {
		topo, err := config.ParseTopology(*topology)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			os.Exit(2)
		}
		cfg.NVLink.Topology = topo
	}

	opt := experiments.Options{Seed: *seed}
	switch *scaleName {
	case "quick":
		opt.Scale = experiments.Quick
	case "full":
		opt.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "ccbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	// Validate -only before any work: unknown ids fail fast with the full
	// list of valid ones. Empty tokens ("fig2,,fig3") are ignored.
	known := map[string]bool{}
	var knownIDs []string
	for _, e := range experiments.All() {
		known[e.ID] = true
		knownIDs = append(knownIDs, e.ID)
	}
	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !known[id] {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q\nvalid ids: %s\n",
					id, strings.Join(knownIDs, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, dir := range []string{*csvDir, *metricsDir, *telemetryDir, *cacheDir} {
		if dir == "" {
			continue
		}
		if err := ensureWritableDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
			os.Exit(2)
		}
	}
	opt.Metrics = *metricsDir != ""
	opt.Telemetry = *telemetryDir != ""

	runner := experiments.Runner{
		Parallel: *parallel,
		Options:  opt,
		Check:    *check,
	}
	if *cacheDir != "" {
		runner.Cache = &experiments.Cache{Dir: *cacheDir}
		runner.ConfigName = cfg.Name
	}
	results, err := runner.Run(&cfg, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccbench: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("gpunoc ccbench: config=%s scale=%s seed=%d\n\n", cfg.Name, *scaleName, *seed)
	fmt.Print(experiments.Report(results))

	failed := false
	for _, res := range results {
		if res.Err != nil {
			failed = true
			continue
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.Figure.ID+".csv")
			if err := os.WriteFile(path, []byte(res.Figure.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
		if *metricsDir != "" {
			blob, err := json.MarshalIndent(res.Metrics, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: encoding metrics for %s: %v\n", res.Experiment.ID, err)
				failed = true
				continue
			}
			base := filepath.Join(*metricsDir, res.Experiment.ID)
			if err := os.WriteFile(base+".metrics.json", append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: writing %s.metrics.json: %v\n", base, err)
				failed = true
			}
			if err := os.WriteFile(base+".metrics.csv", []byte(res.Metrics.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: writing %s.metrics.csv: %v\n", base, err)
				failed = true
			}
		}
		if *telemetryDir != "" {
			base := filepath.Join(*telemetryDir, res.Experiment.ID)
			var wb, eb strings.Builder
			if err := telemetry.WriteWindowsJSONL(&wb, res.TelemetryWindows); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: encoding windows for %s: %v\n", res.Experiment.ID, err)
				failed = true
				continue
			}
			if err := telemetry.WriteEventsJSONL(&eb, res.TelemetryEvents); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: encoding events for %s: %v\n", res.Experiment.ID, err)
				failed = true
				continue
			}
			if err := os.WriteFile(base+".windows.jsonl", []byte(wb.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: writing %s.windows.jsonl: %v\n", base, err)
				failed = true
			}
			if err := os.WriteFile(base+".events.jsonl", []byte(eb.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: writing %s.events.jsonl: %v\n", base, err)
				failed = true
			}
		}
	}

	fmt.Fprint(os.Stderr, experiments.Summary(results))
	if failed {
		os.Exit(1)
	}
}

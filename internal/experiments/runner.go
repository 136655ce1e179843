// The parallel experiment Runner. Every experiment builds its own engine
// instances, and the engine is strictly single-goroutine (see the note on
// link.Link), so the suite parallelizes across experiments: a bounded worker
// pool, one private Config copy and derived seed per experiment, and results
// collected back into registry order so reports are byte-identical at any
// worker count.

package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// Result is the structured outcome of one experiment run.
type Result struct {
	// Experiment is the registry entry that produced this result.
	Experiment Experiment
	// Seed is the derived per-experiment seed (DeriveSeed of the suite
	// seed and the experiment id).
	Seed int64
	// Figure is the regenerated artifact (nil when Err is set).
	Figure *Figure
	// Err is the run error, or the Check failure when the Runner ran in
	// Check mode. A panic in Run or Check becomes an Err carrying the
	// panic value.
	Err error
	// Wall is the host wall-clock time the experiment took.
	Wall time.Duration
	// Cycles is the total number of simulated GPU cycles the experiment
	// executed, summed over every engine instance it built.
	Cycles uint64
	// Metrics is the probe snapshot taken when the experiment finished
	// (zero unless Options.Metrics was set). Every engine the experiment
	// built shares one registry, so same-name metrics accumulate across
	// engine instances; the snapshot is deterministic at any Parallel
	// setting because each experiment owns a private registry.
	Metrics probe.Snapshot
	// TelemetryWindows is the windowed telemetry stream of the experiment's
	// engines and TelemetryEvents the accompanying detector events (empty
	// unless Options.Telemetry was set). Both are deterministic at any
	// Parallel setting: each experiment owns a private sampler fed only by
	// the engines it builds. An experiment that attaches its own sampler to
	// a Config copy (the detection experiments do) bypasses the
	// runner-level stream for those runs.
	TelemetryWindows []telemetry.Window
	// TelemetryEvents holds the runner-level detector's events; see
	// TelemetryWindows.
	TelemetryEvents []telemetry.Event
	// Cached reports that the result was served from the Runner's result
	// cache without simulating (Cycles then reports the cold run's count).
	Cached bool
}

// Runner fans experiments out over a bounded worker pool. The zero value
// runs every experiment in the default registry sequentially at Quick scale.
type Runner struct {
	// Registry supplies the experiments; nil means the package default.
	Registry *Registry
	// Parallel bounds the worker pool; values < 1 mean GOMAXPROCS.
	Parallel int
	// Options is the suite-wide configuration. Options.Seed is the
	// *suite* seed: each experiment runs with DeriveSeed(suite, id), so
	// results do not depend on which other experiments run or in what
	// order.
	Options Options
	// Check also applies each experiment's Check function, folding a
	// failure into Result.Err. Check is re-applied to cache hits, so a
	// cached figure that no longer satisfies its invariant still fails.
	Check bool
	// Cache, when non-nil with a directory set, serves repeated
	// (config, seed, experiment, scale) runs from disk and stores fresh
	// successful results. Failures are never cached.
	Cache *Cache
	// ConfigName names the base configuration in cache keys ("small",
	// "volta"); informational but part of the key.
	ConfigName string
	// OnMeter, when set, is called at the start of each experiment run
	// (from the worker goroutine) with the experiment id and its private
	// cycle meter, which the caller may poll concurrently for progress.
	// It is not called for cache hits.
	OnMeter func(id string, meter *config.CycleMeter)
}

// Run executes the experiments named by ids (every registered experiment
// when ids is empty) against cfg and returns their results in registry
// order, regardless of completion order. cfg is copied per experiment — the
// copy gets the derived seed and a private cycle meter — so the caller's
// value is never mutated and experiments never share mutable state. The only
// error Run itself returns is an unknown id; per-experiment failures are
// reported in Result.Err so one failing artifact does not hide the rest.
func (r *Runner) Run(cfg *config.Config, ids []string) ([]Result, error) {
	reg := r.Registry
	if reg == nil {
		reg = defaultRegistry
	}
	var exps []Experiment
	if len(ids) == 0 {
		exps = reg.Experiments()
	} else {
		for _, id := range ids {
			e, ok := reg.Get(id)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
					id, strings.Join(reg.IDs(), ", "))
			}
			exps = append(exps, e)
		}
		sort.SliceStable(exps, func(i, j int) bool {
			if exps[i].Order != exps[j].Order {
				return exps[i].Order < exps[j].Order
			}
			return exps[i].ID < exps[j].ID
		})
	}

	workers := r.Parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]Result, len(exps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runOne(cfg, exps[i])
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// runOne executes a single experiment with its own Config copy, derived
// seed, and cycle meter.
func (r *Runner) runOne(cfg *config.Config, e Experiment) Result {
	seed := DeriveSeed(r.Options.seed(), e.ID)
	key := NewCacheKey(cfg, r.ConfigName, r.Options, e.ID)
	if ent, ok := r.Cache.Get(key); ok {
		res := Result{
			Experiment:       e,
			Seed:             seed,
			Figure:           ent.Figure,
			Cycles:           ent.Cycles,
			Metrics:          ent.Metrics,
			TelemetryWindows: ent.TelemetryWindows,
			TelemetryEvents:  ent.TelemetryEvents,
			Cached:           true,
		}
		if r.Check && e.Check != nil {
			cc := *cfg
			cc.Seed = seed
			if cerr := recovered(func() error { return e.Check(&cc, ent.Figure) }); cerr != nil {
				res.Err = fmt.Errorf("check failed on cached result: %w", cerr)
			}
		}
		return res
	}
	c := *cfg
	c.Seed = seed
	c.Meter = &config.CycleMeter{}
	if r.OnMeter != nil {
		r.OnMeter(e.ID, c.Meter)
	}
	if r.Options.Metrics {
		c.Probes = probe.NewRegistry()
	}
	var telRec *telemetry.Recorder
	var telDet *telemetry.Detector
	if r.Options.Telemetry {
		if c.Probes == nil {
			c.Probes = probe.NewRegistry()
		}
		telRec = &telemetry.Recorder{}
		telDet = telemetry.NewDetector(telemetry.DetectorConfig{})
		c.Telemetry = telemetry.NewSampler(0, telRec, telDet)
	}

	opt := r.Options
	opt.Seed = seed

	start := time.Now() //lint:allow determinism wall time feeds the stderr Summary only, never the deterministic Report
	var f *Figure
	err := recovered(func() (err error) {
		f, err = e.Run(&c, opt)
		return err
	})
	if err == nil && r.Check && e.Check != nil {
		if cerr := recovered(func() error { return e.Check(&c, f) }); cerr != nil {
			err = fmt.Errorf("check failed: %w", cerr)
		}
	}
	res := Result{
		Experiment: e,
		Seed:       seed,
		Figure:     f,
		Err:        err,
		Wall:       time.Since(start), //lint:allow determinism wall time feeds the stderr Summary only, never the deterministic Report
		Cycles:     c.Meter.Load(),
	}
	if r.Options.Metrics {
		res.Metrics = c.Probes.Snapshot(c.Meter.Load())
	}
	if r.Options.Telemetry {
		res.TelemetryWindows = telRec.Windows()
		res.TelemetryEvents = telDet.Events()
	}
	if res.Err == nil && r.Cache != nil {
		// A failed Put (full disk, unwritable dir) costs only the cache.
		_ = r.Cache.Put(&Entry{
			Key:              key,
			Figure:           res.Figure,
			Cycles:           res.Cycles,
			Metrics:          res.Metrics,
			TelemetryWindows: res.TelemetryWindows,
			TelemetryEvents:  res.TelemetryEvents,
		})
	}
	return res
}

// recovered calls fn and returns its error, or a panic inside fn as an
// error carrying the panic value, so a panicking experiment fails alone
// instead of taking down the process (gpunoc-server runs jobs through the
// Runner).
func recovered(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return fn()
}

// Report renders the deterministic part of a result set: each successful
// figure in order, separated by blank lines, then one line per failed
// experiment. Given the same suite seed and experiment set, the string is
// byte-identical at any Parallel setting (wall times and cycle counts are
// deliberately excluded; see Summary).
func Report(results []Result) string {
	var b strings.Builder
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		b.WriteString(res.Figure.Render())
		b.WriteString("\n")
	}
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(&b, "FAILED %s: %v\n", res.Experiment.ID, res.Err)
		}
	}
	return b.String()
}

// Summary renders a per-experiment accounting table — wall time, simulated
// cycles, simulation rate, status — plus totals. It is diagnostic output
// (wall times vary run to run), so callers should keep it out of any stream
// that is compared byte-for-byte.
func Summary(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %14s %12s  %s\n", "experiment", "wall", "cycles", "cycles/s", "status")
	var wall time.Duration
	var cycles uint64
	failed := 0
	for _, res := range results {
		status := "ok"
		if res.Cached {
			// Cycles on a cached row is the cold run's count; no new
			// simulation happened, which is exactly what the status says.
			status = "cached"
		}
		if res.Err != nil {
			status = "FAILED"
			failed++
		}
		rate := "-"
		if secs := res.Wall.Seconds(); secs > 0 && res.Cycles > 0 {
			rate = fmt.Sprintf("%.3gM", float64(res.Cycles)/secs/1e6)
		}
		fmt.Fprintf(&b, "%-16s %12s %14d %12s  %s\n",
			res.Experiment.ID, res.Wall.Round(time.Millisecond), res.Cycles, rate, status)
		wall += res.Wall
		cycles += res.Cycles
	}
	fmt.Fprintf(&b, "%-16s %12s %14d %12s  %d experiments, %d failed\n",
		"total", wall.Round(time.Millisecond), cycles, "", len(results), failed)
	return b.String()
}

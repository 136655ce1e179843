// Registry of paper artifacts. Every Fig*/Table* regenerator registers
// itself here (from init funcs next to its implementation), so the CLI, the
// benchmark harness, and the parallel Runner all discover experiments from
// one place instead of maintaining hand-written closure tables.
// (The package doc comment lives in experiments.go.)

package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"gpunoc/internal/config"
)

// Experiment is one registered paper artifact: an id, provenance, and the
// functions that regenerate and validate it.
type Experiment struct {
	// ID is the stable short name used by `ccbench -only` and benchmark
	// sub-names (e.g. "fig10", "table2", "srr-defeat").
	ID string
	// Title is a one-line description of what the artifact shows.
	Title string
	// Section names the paper artifact this regenerates (e.g.
	// "§4.5, Figure 10"), or "beyond the paper" for extra ablations.
	Section string
	// Order positions the experiment in reports; ties break by ID. The
	// registered set uses the paper's presentation order.
	Order int
	// Run regenerates the artifact. It must be a pure function of
	// (cfg, opt): no package-level mutable state, so registered
	// experiments may run concurrently on distinct Config values. Run may
	// itself build engines from cfg on several goroutines (the sweeps do,
	// through fanOut) when cfg carries no probe registry or telemetry
	// sampler; with one it builds them one at a time on its own goroutine.
	Run func(cfg *config.Config, opt Options) (*Figure, error)
	// Check, if non-nil, asserts the qualitative shape the paper reports
	// (who wins, by what factor). It receives the configuration the
	// experiment ran with, since some shapes depend on the topology. The
	// Runner applies it when Check mode is on; the benchmark harness
	// always does.
	Check func(cfg *config.Config, f *Figure) error
	// Metrics, if non-nil, extracts the artifact's headline numbers for
	// benchmark reporting (metric name -> value).
	Metrics func(f *Figure) map[string]float64
	// FixedScale is true when Run ignores Options.Scale (the artifact has
	// one natural size, e.g. a configuration table). The default false
	// means the experiment honors `ccbench -scale`.
	FixedScale bool
}

// Registry holds a set of experiments keyed by ID. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	byID map[string]Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]Experiment{}}
}

// Register adds e to the registry. It rejects empty or duplicate IDs and a
// nil Run function.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" {
		return fmt.Errorf("experiments: register: empty ID")
	}
	if e.Run == nil {
		return fmt.Errorf("experiments: register %q: nil Run", e.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("experiments: register %q: duplicate ID", e.ID)
	}
	r.byID[e.ID] = e
	return nil
}

// MustRegister is Register, panicking on error; it is the form used by the
// package init funcs, where a failure is a programming error.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Get returns the experiment registered under id.
func (r *Registry) Get(id string) (Experiment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	return e, ok
}

// Experiments returns every registered experiment sorted by (Order, ID).
// The slice is freshly allocated; callers may reorder it.
func (r *Registry) Experiments() []Experiment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Experiment, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// IDs returns the registered ids in report order.
func (r *Registry) IDs() []string {
	exps := r.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// defaultRegistry holds every experiment in this package; the init funcs in
// ablations.go, channel.go, contention.go, defense.go, and tables.go fill it.
// It is the documented exception to the no-package-state rule: init()
// self-registration writes it exactly once, before main starts, and every
// read afterwards goes through the registry's own mutex.
//
//lint:allow purity registry filled once by init() self-registration, mutex-guarded afterwards
var defaultRegistry = NewRegistry()

// Register adds an experiment to the default registry.
func Register(e Experiment) error { return defaultRegistry.Register(e) }

// MustRegister adds an experiment to the default registry, panicking on a
// duplicate or malformed entry.
func MustRegister(e Experiment) { defaultRegistry.MustRegister(e) }

// Lookup returns the experiment registered under id in the default registry.
func Lookup(id string) (Experiment, bool) { return defaultRegistry.Get(id) }

// All returns every experiment in the default registry in report order.
func All() []Experiment { return defaultRegistry.Experiments() }

// DeriveSeed maps (suiteSeed, id) to the private seed an experiment runs
// with. Deriving per-experiment seeds — rather than sharing the suite seed —
// makes each experiment's output a function of its own id only, so a suite
// renders bit-identically regardless of worker count, completion order, or
// which subset of experiments runs (FNV-1a over the seed bytes and id; the
// result is positive, since 0 means "use the default seed" elsewhere).
func DeriveSeed(suiteSeed int64, id string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(suiteSeed))
	h.Write(b[:])
	io.WriteString(h, id)
	s := int64(h.Sum64() >> 1) // clear the sign bit
	if s == 0 {
		s = 1
	}
	return s
}

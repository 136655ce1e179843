// The machine-readable rule configuration. This file is the single source of
// truth for the invariants docs/ARCHITECTURE.md describes in prose: the
// layering DAG, the determinism bans, the tick-model concurrency bans, and
// the state-purity scope all live in one Go table so the documentation and
// the check cannot drift. `gpunoc-lint -rules` dumps the active configuration
// as JSON.

package lint

import (
	"encoding/json"
	"strings"
)

// Rules is the full analyzer configuration.
type Rules struct {
	// Module is the module path the tables below are relative to.
	Module      string           `json:"module"`
	Layering    LayeringRules    `json:"layering"`
	Determinism DeterminismRules `json:"determinism"`
	TickModel   TickModelRules   `json:"tick_model"`
	Purity      PurityRules      `json:"purity"`
	Godoc       GodocRules       `json:"godoc"`
	HotAlloc    HotAllocRules    `json:"hot_alloc"`
}

// LayeringRules declares the import DAG. Keys and values are module-relative
// package dirs ("" is the root facade package).
type LayeringRules struct {
	// Roots are dir prefixes whose packages sit at the top of the DAG and
	// may import anything in the module (binaries and examples).
	Roots []string `json:"roots"`
	// Allowed maps every library package to the exact set of module-local
	// packages it may import. A package missing from this table is itself
	// a finding: growing the module means declaring the new layer here.
	Allowed map[string][]string `json:"allowed"`
}

// Scope selects the packages an analyzer applies to, by module-relative dir.
// An Include entry ending in "/" is a prefix; "" means the root package.
type Scope struct {
	Include []string `json:"include"`
	Exclude []string `json:"exclude,omitempty"`
}

// Match reports whether the package at module-relative dir rel is in scope.
func (s Scope) Match(rel string) bool {
	in := func(pats []string) bool {
		for _, p := range pats {
			switch {
			case p == "":
				if rel == "" {
					return true
				}
			case strings.HasSuffix(p, "/"):
				if strings.HasPrefix(rel, p) || rel == strings.TrimSuffix(p, "/") {
					return true
				}
			default:
				if rel == p {
					return true
				}
			}
		}
		return false
	}
	return in(s.Include) && !in(s.Exclude)
}

// DeterminismRules configures the wall-clock / environment / global-RNG /
// map-order bans.
type DeterminismRules struct {
	Scope Scope `json:"scope"`
	// BannedCalls are fully qualified functions ("pkgpath.Func") that read
	// ambient state a simulation result must never depend on.
	BannedCalls []string `json:"banned_calls"`
	// GlobalRand lists the math/rand (and math/rand/v2) top-level functions
	// that draw from the globally seeded source. Constructors (New,
	// NewSource, NewZipf) and method calls on a *rand.Rand are fine.
	GlobalRand []string `json:"global_rand"`
}

// TickModelRules configures the single-goroutine tick-model bans for the
// engine and everything below it.
type TickModelRules struct {
	Scope Scope `json:"scope"`
	// BannedImports are concurrency packages engine-and-below code must not
	// use (goroutines, channels, and selects are banned syntactically).
	BannedImports []string `json:"banned_imports"`
	// AtomicAllow names types whose declaration and methods may use the
	// banned imports — the sanctioned concurrency-safe exceptions.
	AtomicAllow []TypeRef `json:"atomic_allow"`
}

// TypeRef names a type: a module-relative package dir plus a type name.
type TypeRef struct {
	Package string `json:"package"`
	Type    string `json:"type"`
}

// GodocRules configures the doc-comment check: every exported symbol in
// scope must carry a doc comment.
type GodocRules struct {
	Scope Scope `json:"scope"`
}

// HotAllocRules configures the steady-state allocation check: allocation
// sites (make, growing append, composite literals, closures, string↔[]byte
// conversions, interface boxing) in functions reachable from the Roots are
// findings unless waived. Scope limits reporting to the simulator core;
// reachability itself is computed over the whole module.
type HotAllocRules struct {
	Roots []FuncRef `json:"roots"`
	Scope Scope     `json:"scope"`
}

// PurityRules configures the package-level mutable-state ban.
type PurityRules struct {
	Scope Scope `json:"scope"`
	// AllowSentinelErrors permits `var ErrX = errors.New(...)` (and
	// fmt.Errorf) declarations, the conventional immutable-by-contract
	// sentinel pattern.
	AllowSentinelErrors bool `json:"allow_sentinel_errors"`
}

// JSON renders the configuration for `gpunoc-lint -rules`.
func (r *Rules) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// simulatorScope covers every package whose code can sit on a result path:
// the root facade and all of internal/ except the lint tooling itself.
func simulatorScope() Scope {
	return Scope{
		Include: []string{"", "internal/"},
		Exclude: []string{"internal/lint"},
	}
}

// engineAndBelow lists the packages inside the tick loop: the engine plus
// every substrate package it drives. experiments and the attack layers above
// the engine may use goroutines (that is where parallelism lives, one level
// up); these packages must not.
func engineAndBelow() []string {
	return []string{
		"internal/arb",
		"internal/cache",
		"internal/clockreg",
		"internal/config",
		"internal/device",
		"internal/dram",
		"internal/engine",
		"internal/link",
		"internal/mem",
		"internal/mesh",
		"internal/noc",
		"internal/noise",
		"internal/packet",
		"internal/probe",
		"internal/ring",
		"internal/sched",
		"internal/sm",
		"internal/stats",
		"internal/tbsched",
		"internal/telemetry",
		"internal/warp",
	}
}

// DefaultRules returns the rule configuration for this repository. The
// Layering.Allowed table is the import DAG of docs/ARCHITECTURE.md: arrows
// only point downward, substrate packages see only config/packet (plus their
// documented intra-substrate edges, e.g. link ← arb), and nothing below
// internal/experiments may import it.
func DefaultRules() *Rules {
	return &Rules{
		Module: "gpunoc",
		Layering: LayeringRules{
			Roots: []string{"cmd/", "examples/"},
			Allowed: map[string][]string{
				// Root facade: the public API re-exports the attack, the
				// engine, and the experiment suite.
				"": {
					"internal/config",
					"internal/core",
					"internal/device",
					"internal/engine",
					"internal/experiments",
					"internal/noise",
					"internal/reveng",
				},

				// Leaves: no module-local imports at all.
				"internal/packet": {},
				"internal/ring":   {},
				"internal/sched":  {},
				"internal/stats":  {},
				"internal/warp":   {},

				// Instrumentation: stats < probe < telemetry < config.
				// probe sits between stats and config so every component a
				// Config reaches can register metrics; telemetry aggregates
				// probe snapshots into windows and sits just below config so
				// a Sampler can travel inside a Config the way the Registry
				// does.
				"internal/probe":     {"internal/stats"},
				"internal/telemetry": {"internal/probe", "internal/stats"},
				"internal/config":    {"internal/probe", "internal/telemetry"},

				// Substrate: config/packet only, plus documented edges
				// (probe is reachable from everything holding a Config).
				"internal/arb":      {"internal/config", "internal/packet", "internal/probe"},
				"internal/cache":    {"internal/config", "internal/packet", "internal/probe"},
				"internal/clockreg": {"internal/config"},
				"internal/device":   {"internal/warp"},
				"internal/dram":     {"internal/config", "internal/probe", "internal/ring"},
				"internal/tbsched":  {"internal/config"},
				"internal/link":     {"internal/arb", "internal/config", "internal/packet", "internal/probe", "internal/ring"},
				"internal/noc": {
					"internal/arb", "internal/config", "internal/link",
					"internal/packet", "internal/probe", "internal/sched",
				},
				"internal/mem": {
					"internal/cache", "internal/config", "internal/dram",
					"internal/packet", "internal/probe", "internal/ring",
					"internal/sched",
				},
				"internal/sm": {
					"internal/cache", "internal/clockreg", "internal/config",
					"internal/device", "internal/packet", "internal/probe",
					"internal/ring", "internal/warp",
				},

				// Background-traffic generators: programs stepped inside the
				// tick loop, so the package sits beside device/warp — it
				// builds KernelSpecs and never reaches up to the engine.
				"internal/noise": {
					"internal/config", "internal/device", "internal/probe",
					"internal/warp",
				},

				// The cycle-driven top level.
				"internal/engine": {
					"internal/clockreg", "internal/config", "internal/device",
					"internal/mem", "internal/noc", "internal/packet",
					"internal/probe", "internal/sched", "internal/sm",
					"internal/tbsched", "internal/telemetry",
				},

				// The multi-GPU mesh: N engines under one global clock,
				// joined by NVLink-parameterized links. It sits between the
				// engine and the attack layer — core places cross-GPU
				// channels on it, and it never reaches above the engine.
				"internal/mesh": {
					"internal/arb", "internal/config", "internal/device",
					"internal/engine", "internal/link", "internal/packet",
				},

				// The attack, prior-work channels, and reverse engineering.
				"internal/reveng": {"internal/config", "internal/device", "internal/engine"},
				"internal/core": {
					"internal/config", "internal/device", "internal/engine",
					"internal/mesh", "internal/warp",
				},
				"internal/baseline": {
					"internal/config", "internal/core", "internal/device",
					"internal/engine", "internal/warp",
				},

				// The experiment suite knows every layer below it; nothing
				// below it (only the root facade and the cmd/examples
				// roots) may import it back.
				"internal/experiments": {
					"internal/baseline", "internal/config", "internal/core",
					"internal/device", "internal/engine", "internal/mesh",
					"internal/noise", "internal/probe", "internal/reveng",
					"internal/stats", "internal/telemetry", "internal/warp",
				},

				// The simulation service: an HTTP face over the experiment
				// harness and its result cache. It sits beside the cmd roots
				// conceptually but is a library (so it can be tested with
				// httptest), and it never reaches below experiments.
				"internal/server": {
					"internal/config", "internal/experiments",
				},

				// Tooling: stdlib only, outside the simulator entirely.
				"internal/lint": {},
			},
		},
		Determinism: DeterminismRules{
			Scope: simulatorScope(),
			BannedCalls: []string{
				"time.Now",
				"time.Since",
				"time.Until",
				"os.Getenv",
				"os.LookupEnv",
				"os.Environ",
			},
			GlobalRand: []string{
				"ExpFloat64", "Float32", "Float64", "Int", "Int31", "Int31n",
				"Int63", "Int63n", "IntN", "Intn", "N", "NormFloat64", "Perm",
				"Read", "Seed", "Shuffle", "Uint32", "Uint64",
			},
		},
		TickModel: TickModelRules{
			Scope:         Scope{Include: engineAndBelow()},
			BannedImports: []string{"sync", "sync/atomic"},
			AtomicAllow: []TypeRef{
				// The one sanctioned atomic: the cycle meter engine copies
				// share so the runner can attribute simulated cycles while
				// experiments run concurrently. It never influences
				// simulation behavior.
				{Package: "internal/config", Type: "CycleMeter"},
			},
		},
		Purity: PurityRules{
			Scope:               simulatorScope(),
			AllowSentinelErrors: true,
		},
		Godoc: GodocRules{
			// Unlike the simulator-only analyzers, the doc-comment check
			// also covers the lint tooling itself; only the cmd/examples
			// roots (package main, no API surface) are out of scope.
			Scope: Scope{Include: []string{"", "internal/"}},
		},
		HotAlloc: HotAllocRules{
			// The steady-state tick roots: the engine's per-cycle step and
			// the component Tick methods it drives. Setup paths (New,
			// Launch) are deliberately absent — allocation there is fine.
			Roots: []FuncRef{
				{Package: "internal/engine", Recv: "GPU", Name: "step"},
				{Package: "internal/link", Recv: "Link", Name: "Tick"},
				{Package: "internal/mem", Recv: "Slice", Name: "Tick"},
				{Package: "internal/dram", Recv: "Controller", Name: "Tick"},
				{Package: "internal/sm", Recv: "SM", Name: "Tick"},
			},
			Scope: Scope{Include: engineAndBelow()},
		},
	}
}

// The content-addressed result cache. A completed experiment run is stored
// as one JSON file named by the SHA-256 of its cache key; a later run with
// the same key is served from the file without simulating. Because every
// field of a Result the Report/metrics/telemetry renderers consume is plain
// JSON (float64/uint64 round-trip exactly through encoding/json), a warm
// run renders byte-identically to the cold run that populated the cache.
// Runner.Parallel is deliberately absent from the key — results are
// identical at every setting, which is exactly what the determinism CI
// pins.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
	"gpunoc/internal/telemetry"
)

// CacheKey identifies one experiment result. Two runs with equal keys
// produce byte-identical reports, metrics, and telemetry streams.
type CacheKey struct {
	// ConfigHash is config.Config.Hash() of the suite's base configuration
	// with the Seed zeroed — the seed travels separately in Seed, and
	// observer and reference-mode knobs are excluded by Hash itself.
	ConfigHash uint64 `json:"config_hash"`
	// ConfigName is the human-readable configuration name ("small",
	// "volta"); informational, but part of the key so listings stay
	// readable and hash collisions across named configs are impossible.
	ConfigName string `json:"config_name"`
	// Seed is the suite seed (per-experiment seeds derive from it and the
	// experiment id).
	Seed int64 `json:"seed"`
	// Experiment is the registry id ("fig2", "table2", ...).
	Experiment string `json:"experiment"`
	// Scale names the Options.Scale ("quick" or "full").
	Scale string `json:"scale"`
	// Metrics and Telemetry record which observer streams the run
	// collected; a cached figure-only run cannot serve a metrics request.
	Metrics   bool `json:"metrics"`
	Telemetry bool `json:"telemetry"`
}

// NewCacheKey builds the key the Runner uses for one experiment run: cfg is
// the suite's base configuration (hashed with the seed zeroed), configName
// its human-readable name, opt the suite options, and experiment the
// registry id. Callers outside the Runner (the simulation server) use it so
// their keys address exactly the entries the Runner reads and writes.
func NewCacheKey(cfg *config.Config, configName string, opt Options, experiment string) CacheKey {
	return CacheKey{
		ConfigHash: cacheConfigHash(cfg),
		ConfigName: configName,
		Seed:       opt.seed(),
		Experiment: experiment,
		Scale:      scaleName(opt.Scale),
		Metrics:    opt.Metrics,
		Telemetry:  opt.Telemetry,
	}
}

// ID returns the content address: the hex SHA-256 of the key's canonical
// JSON encoding (struct field order is fixed, so the encoding is canonical).
func (k CacheKey) ID() string {
	b, err := json.Marshal(k)
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(fmt.Sprintf("experiments: marshal cache key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// scaleName renders an Options.Scale for cache keys.
func scaleName(s Scale) string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// cacheConfigHash hashes cfg for a cache key: the seed is zeroed because it
// is carried (as the suite seed) in the key itself.
func cacheConfigHash(cfg *config.Config) uint64 {
	c := *cfg
	c.Seed = 0
	return c.Hash()
}

// Entry is one cached experiment result: everything the report, metrics,
// and telemetry renderers need to reproduce the cold run's output.
type Entry struct {
	Key              CacheKey           `json:"key"`
	Figure           *Figure            `json:"figure"`
	Cycles           uint64             `json:"cycles"`
	Metrics          probe.Snapshot     `json:"metrics"`
	TelemetryWindows []telemetry.Window `json:"telemetry_windows,omitempty"`
	TelemetryEvents  []telemetry.Event  `json:"telemetry_events,omitempty"`
}

// Cache is a directory of content-addressed experiment results. The zero
// value (empty Dir) is disabled. Safe for concurrent use by independent
// processes: entries are written atomically via rename, and a torn or
// corrupt file reads as a miss, never an error that fails the run.
type Cache struct {
	// Dir is the cache directory, created on first Put.
	Dir string
}

// path returns the entry file for key k.
func (c *Cache) path(k CacheKey) string {
	return filepath.Join(c.Dir, k.ID()+".json")
}

// Get looks k up, reporting (entry, true) on a hit. A missing, unreadable,
// corrupt, or mismatched file is a miss, and so is an entry whose figure
// Report could not render.
func (c *Cache) Get(k CacheKey) (*Entry, bool) {
	if c == nil || c.Dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, false
	}
	var ent Entry
	if err := json.Unmarshal(b, &ent); err != nil || ent.Key != k || !renderable(ent.Figure) {
		return nil, false
	}
	return &ent, true
}

// renderable reports whether f can be rendered: it is present, and every
// series pairs each X with a Y.
func renderable(f *Figure) bool {
	if f == nil {
		return false
	}
	for _, s := range f.Series {
		if len(s.X) != len(s.Y) {
			return false
		}
	}
	return true
}

// Put stores ent, atomically (write to a temp file, then rename).
func (c *Cache) Put(ent *Entry) error {
	if c == nil || c.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(ent, "", " ")
	if err != nil {
		return err
	}
	dst := c.path(ent.Key)
	tmp, err := os.CreateTemp(c.Dir, "put-*.tmp")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, dst); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

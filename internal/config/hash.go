package config

import (
	"fmt"
	"hash/fnv"
)

// Hash returns a stable 64-bit FNV-1a hash of every simulation-relevant
// field of the configuration. Two configurations with equal hashes produce
// bit-identical simulations for the same workload, so the hash is the
// config component of the content-addressed result cache key
// (internal/experiments).
//
// Fields that never influence simulation results are excluded, exactly
// mirroring the set Validate ignores: ExhaustiveTick (reference mode) and
// the observer attachments Meter, Probes, and Telemetry.
func (c *Config) Hash() uint64 {
	n := *c
	n.ExhaustiveTick = false
	n.Meter = nil
	n.Probes = nil
	n.Telemetry = nil
	h := fnv.New64a()
	// %+v prints field names and values of the nested value-type structs
	// in declaration order — a canonical rendering as long as no pointer
	// field is left set (all are nil'd above).
	fmt.Fprintf(h, "%+v", n)
	return h.Sum64()
}

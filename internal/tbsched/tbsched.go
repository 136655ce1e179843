// Package tbsched implements the thread-block scheduler whose placement
// policy §4.3 of the paper reverse-engineers: blocks are interleaved across
// the GPCs first; within a GPC they are interleaved across TPCs; and only
// after every TPC holds one block does a second block land on a TPC (on its
// other SM). Launching a 40-block sender followed by a 40-block receiver
// therefore co-locates one sender and one receiver on every TPC — the
// placement the multi-TPC covert channel relies on.
package tbsched

import (
	"fmt"

	"gpunoc/internal/config"
)

// Scheduler tracks SM occupancy and assigns blocks in the reverse-engineered
// order.
type Scheduler struct {
	cfg   *config.Config
	order []int // SM visit order for placement
	load  []int // resident blocks per SM
}

// New builds a scheduler for cfg.
func New(cfg *config.Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, load: make([]int, cfg.NumSMs())}
	s.order = placementOrder(cfg)
	return s, nil
}

// placementOrder lists SMs in assignment order: SM slot 0 of every TPC in
// GPC-interleaved TPC order, then SM slot 1 of every TPC, and so on.
func placementOrder(cfg *config.Config) []int {
	// GPC-interleaved TPC order: round r takes the r-th TPC of each GPC.
	var tpcs []int
	maxLen := 0
	perGPC := make([][]int, cfg.NumGPCs)
	for g := 0; g < cfg.NumGPCs; g++ {
		perGPC[g] = cfg.TPCsOfGPC(g)
		if len(perGPC[g]) > maxLen {
			maxLen = len(perGPC[g])
		}
	}
	for r := 0; r < maxLen; r++ {
		for g := 0; g < cfg.NumGPCs; g++ {
			if r < len(perGPC[g]) {
				tpcs = append(tpcs, perGPC[g][r])
			}
		}
	}
	order := make([]int, 0, cfg.NumSMs())
	for slot := 0; slot < cfg.SMsPerTPC; slot++ {
		for _, t := range tpcs {
			order = append(order, cfg.SMsOfTPC(t)[slot])
		}
	}
	return order
}

// Assign places n blocks and returns the SM id hosting each block, in block
// order. Placement fills the least-loaded SMs in the reverse-engineered
// visit order, so a fresh GPU sees blocks 0..39 land on distinct TPCs.
func (s *Scheduler) Assign(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tbsched: non-positive block count %d", n)
	}
	out := make([]int, n)
	for b := 0; b < n; b++ {
		best := -1
		for _, smID := range s.order {
			if best == -1 || s.load[smID] < s.load[best] {
				best = smID
			}
		}
		s.load[best]++
		out[b] = best
	}
	return out, nil
}

// Release removes one resident block from SM smID (called when a block's
// warps all finish).
func (s *Scheduler) Release(smID int) error {
	if smID < 0 || smID >= len(s.load) {
		return fmt.Errorf("tbsched: SM %d out of range", smID)
	}
	if s.load[smID] == 0 {
		return fmt.Errorf("tbsched: SM %d has no resident blocks", smID)
	}
	s.load[smID]--
	return nil
}

// Load reports the number of resident blocks on SM smID.
func (s *Scheduler) Load(smID int) int { return s.load[smID] }

// Order exposes the placement visit order (reverse-engineering tests
// validate it against the paper's observation).
func (s *Scheduler) Order() []int { return append([]int(nil), s.order...) }

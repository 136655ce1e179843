// Package cache implements a set-associative cache with LRU replacement and
// MSHR-based miss tracking. It backs the 48 L2 slices (96 KB each on the
// Volta configuration of Table 1) and, optionally, the per-SM L1 that probe
// kernels bypass with the -dlcm=cg analogue.
package cache

import (
	"fmt"

	"gpunoc/internal/probe"
)

// Result describes the outcome of an access.
type Result int

const (
	// Hit means the line was present.
	Hit Result = iota
	// Miss means the line was absent and a new MSHR was allocated; the
	// caller must fetch from memory and call Fill.
	Miss
	// MissMerged means the line was absent but an MSHR for it already
	// exists; the access piggybacks on the outstanding fill.
	MissMerged
	// Stall means no MSHR was available; the access must be retried.
	Stall
)

// String names the result for logs and tests.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case Stall:
		return "stall"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// line is one way of a set, 16 bytes. stamp packs the LRU timestamp and
// the dirty bit as tick<<1 | dirty; ticks are unique, so the smallest stamp
// of a set is its least recently used line.
type line struct {
	tag   uint64
	stamp uint64
}

func (l *line) dirty() bool { return l.stamp&1 != 0 }

// touch records a use at tick, marking the line dirty on a write.
func (l *line) touch(tick uint64, write bool) {
	l.stamp = tick<<1 | l.stamp&1
	if write {
		l.stamp |= 1
	}
}

// Cache is a blocking-free set-associative cache model. It tracks presence
// and recency, not data contents (the simulator is timing-only).
//
// Each set holds only the lines filled into it, in fill order: a fill into
// a set with a free way appends, and nothing ever invalidates a line, so a
// set's memory grows with its fills and a full set is exactly ways long.
// The set table itself is allocated on the first Access or Fill; most
// per-SM L1s never see either, because probe traffic bypasses them.
type Cache struct {
	lineBytes uint64
	numSets   uint64
	ways      int
	sets      [][]line // numSets entries, nil until first used

	mshrs   map[uint64]int // line address -> merged request count
	mshrCap int

	useTick uint64

	// Counters.
	hits, misses, merged, stalls, evictions, writebacks uint64

	pr *cacheProbes // nil when uninstrumented (the fast path)
}

// cacheProbes mirrors the access-outcome counters into a probe.Registry and
// tracks MSHR occupancy as a gauge (its Max is the high-water mark).
type cacheProbes struct {
	hits, misses, merged, stalls *probe.Counter
	mshr                         *probe.Gauge
}

// Instrument registers this cache's metrics with r under the given prefix
// (e.g. "mem/slice3/l2"). A nil registry leaves the cache uninstrumented.
func (c *Cache) Instrument(r *probe.Registry, prefix string) {
	if r == nil {
		return
	}
	c.pr = &cacheProbes{
		hits:   r.Counter(prefix + "/hits"),
		misses: r.Counter(prefix + "/misses"),
		merged: r.Counter(prefix + "/merged"),
		stalls: r.Counter(prefix + "/stalls"),
		mshr:   r.Gauge(prefix + "/mshr_pending"),
	}
}

// New builds a cache of the given total size. sizeBytes must be divisible by
// lineBytes*ways.
func New(sizeBytes, lineBytes, ways, mshrs int) (*Cache, error) {
	switch {
	case sizeBytes <= 0 || lineBytes <= 0 || ways <= 0:
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, lineBytes, ways)
	case lineBytes&(lineBytes-1) != 0:
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	case sizeBytes%(lineBytes*ways) != 0:
		return nil, fmt.Errorf("cache: size %d not divisible by line*ways", sizeBytes)
	case mshrs <= 0:
		return nil, fmt.Errorf("cache: non-positive MSHR count %d", mshrs)
	}
	sets := sizeBytes / (lineBytes * ways)
	return &Cache{
		lineBytes: uint64(lineBytes),
		numSets:   uint64(sets),
		ways:      ways,
		mshrs:     make(map[uint64]int, mshrs),
		mshrCap:   mshrs,
	}, nil
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (c.lineBytes - 1) }

// set returns the filled lines of the set holding lineAddr, allocating the
// set table on first use.
func (c *Cache) set(lineAddr uint64) *[]line {
	if c.sets == nil {
		c.sets = make([][]line, c.numSets)
	}
	return &c.sets[(lineAddr/c.lineBytes)%c.numSets]
}

// find returns the way holding lineAddr, or -1.
func find(set []line, lineAddr uint64) int {
	for w := range set {
		if set[w].tag == lineAddr {
			return w
		}
	}
	return -1
}

// Access looks up addr. On a hit the line's recency is updated (and marked
// dirty for writes). On a miss an MSHR is allocated (Miss) or merged
// (MissMerged); Stall means the MSHR file is full. The caller is responsible
// for calling Fill once the memory fetch returns.
func (c *Cache) Access(addr uint64, write bool) Result {
	la := c.LineAddr(addr)
	set := *c.set(la)
	c.useTick++
	if w := find(set, la); w >= 0 {
		set[w].touch(c.useTick, write)
		c.hits++
		if c.pr != nil {
			c.pr.hits.Inc()
		}
		return Hit
	}
	if _, ok := c.mshrs[la]; ok {
		c.mshrs[la]++
		c.merged++
		if c.pr != nil {
			c.pr.merged.Inc()
		}
		return MissMerged
	}
	if len(c.mshrs) >= c.mshrCap {
		c.stalls++
		if c.pr != nil {
			c.pr.stalls.Inc()
		}
		return Stall
	}
	c.mshrs[la] = 1
	c.misses++
	if c.pr != nil {
		c.pr.misses.Inc()
		c.pr.mshr.Add(1)
	}
	return Miss
}

// Probe reports whether addr is resident without touching recency or
// counters (used by tests and the prime+probe baseline channel). A cache
// that was never filled holds nothing.
func (c *Cache) Probe(addr uint64) bool {
	if c.sets == nil {
		return false
	}
	la := c.LineAddr(addr)
	return find(*c.set(la), la) >= 0
}

// Fill installs the line for addr (completing its MSHR if one is pending)
// and returns the number of merged requests that were waiting plus whether a
// dirty line was evicted (requiring a writeback). Filling an address with no
// pending MSHR is allowed (preloads use it) and returns waiters == 0. A set
// with a free way never evicts; a full set evicts its least recently used
// line.
func (c *Cache) Fill(addr uint64, write bool) (waiters int, writeback bool) {
	la := c.LineAddr(addr)
	if n, ok := c.mshrs[la]; ok {
		waiters = n
		delete(c.mshrs, la)
		if c.pr != nil {
			c.pr.mshr.Add(-1)
		}
	}
	set := c.set(la)
	c.useTick++
	if w := find(*set, la); w >= 0 {
		// Already resident (a racing preload): refresh recency only.
		(*set)[w].touch(c.useTick, write)
		return waiters, false
	}
	l := line{tag: la}
	l.touch(c.useTick, write)
	if len(*set) < c.ways {
		*set = append(*set, l)
		return waiters, false
	}
	// Full set: the least recently used line makes way.
	lines := *set
	victim := 0
	for w := 1; w < len(lines); w++ {
		if lines[w].stamp < lines[victim].stamp {
			victim = w
		}
	}
	c.evictions++
	if lines[victim].dirty() {
		c.writebacks++
		writeback = true
	}
	lines[victim] = l
	return waiters, writeback
}

// PendingMSHRs returns the number of outstanding miss entries.
func (c *Cache) PendingMSHRs() int { return len(c.mshrs) }

// Sets returns the number of sets (for the prime+probe baseline).
func (c *Cache) Sets() int { return int(c.numSets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return int(c.lineBytes) }

// Stats is a snapshot of the cache activity counters.
type Stats struct {
	Hits, Misses, Merged, Stalls, Evictions, Writebacks uint64
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	return Stats{c.hits, c.misses, c.merged, c.stalls, c.evictions, c.writebacks}
}

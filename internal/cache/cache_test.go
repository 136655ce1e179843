package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func mk(t *testing.T, size, lineB, ways, mshrs int) *Cache {
	t.Helper()
	c, err := New(size, lineB, ways, mshrs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := [][4]int{
		{0, 32, 4, 8},
		{1024, 0, 4, 8},
		{1024, 32, 0, 8},
		{1024, 32, 4, 0},
		{1024, 48, 4, 8}, // line not power of two
		{1000, 32, 4, 8}, // size not divisible
	}
	for _, b := range bad {
		if _, err := New(b[0], b[1], b[2], b[3]); err == nil {
			t.Errorf("New(%v) should fail", b)
		}
	}
	c := mk(t, 4096, 32, 4, 8)
	if c.Sets() != 32 || c.Ways() != 4 || c.LineBytes() != 32 {
		t.Errorf("geometry %d/%d/%d", c.Sets(), c.Ways(), c.LineBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := mk(t, 1024, 32, 2, 4)
	if r := c.Access(0x100, false); r != Miss {
		t.Fatalf("first access = %v, want miss", r)
	}
	// Merged access to the same line while outstanding.
	if r := c.Access(0x104, false); r != MissMerged {
		t.Fatalf("same-line access = %v, want merged", r)
	}
	waiters, wb := c.Fill(0x100, false)
	if waiters != 2 || wb {
		t.Fatalf("Fill = %d waiters, wb=%v", waiters, wb)
	}
	if r := c.Access(0x11F, false); r != Hit {
		t.Fatalf("post-fill access = %v, want hit", r)
	}
	if c.PendingMSHRs() != 0 {
		t.Error("MSHR not released")
	}
}

func TestMSHRStall(t *testing.T) {
	c := mk(t, 4096, 32, 4, 2)
	if c.Access(0x0, false) != Miss || c.Access(0x1000, false) != Miss {
		t.Fatal("setup misses failed")
	}
	if r := c.Access(0x2000, false); r != Stall {
		t.Fatalf("access with full MSHRs = %v, want stall", r)
	}
	if st := c.Stats(); st.Stalls != 1 {
		t.Errorf("stall counter = %d", st.Stalls)
	}
}

func TestLRUReplacement(t *testing.T) {
	// One set: 64 bytes, 32-byte lines, 2 ways.
	c := mk(t, 64, 32, 2, 8)
	fill := func(addr uint64) {
		if c.Access(addr, false) == Miss {
			c.Fill(addr, false)
		}
	}
	fill(0x000)
	fill(0x100)
	// Touch 0x000 so 0x100 becomes LRU.
	if c.Access(0x000, false) != Hit {
		t.Fatal("expected hit on 0x000")
	}
	fill(0x200) // evicts 0x100
	if !c.Probe(0x000) {
		t.Error("recently used line evicted")
	}
	if c.Probe(0x100) {
		t.Error("LRU line survived")
	}
	if !c.Probe(0x200) {
		t.Error("new line absent")
	}
}

func TestDirtyEvictionWriteback(t *testing.T) {
	c := mk(t, 64, 32, 2, 8)
	c.Access(0x000, true)
	c.Fill(0x000, true) // dirty line
	c.Access(0x100, false)
	c.Fill(0x100, false)
	c.Access(0x200, false)
	_, wb := c.Fill(0x200, false) // evicts dirty 0x000
	if !wb {
		t.Error("dirty eviction must report writeback")
	}
	if st := c.Stats(); st.Writebacks != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := mk(t, 64, 32, 2, 8)
	c.Access(0x000, false)
	c.Fill(0x000, false)
	if c.Access(0x010, true) != Hit {
		t.Fatal("write should hit")
	}
	c.Fill(0x100, false)
	// 0x000 is now the LRU line of the full set; evicting it must write
	// back.
	if _, wb := c.Fill(0x200, false); !wb {
		t.Error("write hit did not mark line dirty")
	}
}

// TestFillEvictsOnlyFromFullSet pins the replacement rule: a fill into a set
// with a free way takes that way and evicts nothing, and a fill into a full
// set evicts the least recently used line, whatever way it sits in.
func TestFillEvictsOnlyFromFullSet(t *testing.T) {
	// One set: 128 bytes, 32-byte lines, 4 ways.
	c := mk(t, 128, 32, 4, 8)
	for i, addr := range []uint64{0x000, 0x100, 0x200, 0x300} {
		if _, wb := c.Fill(addr, true); wb {
			t.Fatalf("fill %d into a set with a free way wrote back", i)
		}
		if st := c.Stats(); st.Evictions != 0 {
			t.Fatalf("fill %d into a set with a free way evicted (%+v)", i, st)
		}
	}
	// Touch every line but 0x200, so the LRU line sits in a middle way.
	for _, addr := range []uint64{0x000, 0x100, 0x300} {
		if c.Access(addr, false) != Hit {
			t.Fatalf("0x%x should be resident", addr)
		}
	}
	if _, wb := c.Fill(0x400, false); !wb {
		t.Error("evicting a dirty line must write back")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	for _, addr := range []uint64{0x000, 0x100, 0x300, 0x400} {
		if !c.Probe(addr) {
			t.Errorf("0x%x evicted, want only the LRU line 0x200 gone", addr)
		}
	}
	if c.Probe(0x200) {
		t.Error("LRU line 0x200 survived")
	}
}

// TestLinesAllocatedOnFirstUse pins the lazy set table: a cache that was
// never accessed or filled holds no lines and probes as empty, the first
// fill makes its line resident, and each set holds only the lines filled
// into it, never more than its ways.
func TestLinesAllocatedOnFirstUse(t *testing.T) {
	c := mk(t, 4096, 32, 4, 8)
	if c.Probe(0x40) {
		t.Error("a never-filled cache reported a resident line")
	}
	if c.sets != nil {
		t.Error("Probe allocated the set table")
	}
	c.Fill(0x40, false)
	if !c.Probe(0x40) || c.Probe(0x80) {
		t.Error("first fill did not install exactly its line")
	}
	// 0x40 sits in set 2; every 1 KB (sets*lineBytes) maps back to it.
	for i, want := range []int{2, 3, 4, 4} {
		c.Fill(0x40+uint64(i+1)*1024, false)
		if got := len(c.sets[2]); got != want {
			t.Errorf("after fill %d set 2 holds %d lines, want %d", i+2, got, want)
		}
	}
	for s, lines := range c.sets {
		if s != 2 && len(lines) != 0 {
			t.Errorf("set %d holds %d lines, want none", s, len(lines))
		}
	}
}

// TestLineIs16Bytes pins the packed line: a tag and one stamp word holding
// the LRU tick and the dirty bit. A full Volta L2 holds 147,456 lines per
// engine, so every byte here is 147 KB per engine.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Errorf("line is %d bytes, want 16", n)
	}
}

func TestFillWithoutMSHRIsPreload(t *testing.T) {
	c := mk(t, 1024, 32, 2, 4)
	waiters, _ := c.Fill(0x500, false)
	if waiters != 0 {
		t.Errorf("preload fill reported %d waiters", waiters)
	}
	if c.Access(0x500, false) != Hit {
		t.Error("preload did not install line")
	}
}

func TestRefillResidentLineKeepsOneCopy(t *testing.T) {
	c := mk(t, 64, 32, 2, 8)
	c.Fill(0x0, false)
	c.Fill(0x0, true) // refresh, now dirty
	// A duplicate copy would have taken the set's second way, so this fill
	// would evict.
	if _, wb := c.Fill(0x100, false); wb || c.Stats().Evictions != 0 {
		t.Errorf("refill of a resident line took a second way (%+v)", c.Stats())
	}
	if _, wb := c.Fill(0x200, false); !wb {
		t.Error("refresh fill lost dirtiness")
	}
	if c.Probe(0x0) {
		t.Error("evicted line still present")
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{
		Hit: "hit", Miss: "miss", MissMerged: "miss-merged", Stall: "stall",
		Result(9): "Result(9)",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}

// Property: after Access(a) reports Miss and Fill(a), Access(a) hits, for
// arbitrary addresses; and line occupancy never exceeds ways per set.
func TestQuickFillThenHit(t *testing.T) {
	c := mk(t, 4096, 32, 4, 64)
	f := func(addr uint64) bool {
		switch c.Access(addr, false) {
		case Miss:
			c.Fill(addr, false)
		case Stall:
			return true // MSHR pressure from earlier iterations
		}
		return c.Access(addr, false) == Hit || c.PendingMSHRs() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: counters are consistent — hits+misses+merged+stalls equals the
// number of Access calls.
func TestQuickCounterConservation(t *testing.T) {
	c := mk(t, 2048, 32, 2, 4)
	calls := uint64(0)
	f := func(addr uint64, write bool) bool {
		r := c.Access(addr%8192, write)
		calls++
		if r == Miss {
			c.Fill(addr%8192, write)
		}
		st := c.Stats()
		return st.Hits+st.Misses+st.Merged+st.Stalls == calls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

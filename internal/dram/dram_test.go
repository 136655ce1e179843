package dram

import (
	"testing"
	"testing/quick"

	"gpunoc/internal/config"
)

func timing() config.DRAMTiming { return config.Volta().DRAM }

func ignore(uint64, Request) {}

func mkMC(t *testing.T, done Done) *Controller {
	t.Helper()
	mc, err := NewController(timing(), 16, 2048, 64, done)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestNewControllerValidation(t *testing.T) {
	tm := timing()
	if _, err := NewController(tm, 0, 2048, 64, ignore); err == nil {
		t.Error("zero banks should fail")
	}
	if _, err := NewController(tm, 16, 1000, 64, ignore); err == nil {
		t.Error("non-power-of-two row should fail")
	}
	if _, err := NewController(tm, 16, 2048, 0, ignore); err == nil {
		t.Error("zero capacity should fail")
	}
	bad := tm
	bad.TRC = bad.TRAS - 1
	if _, err := NewController(bad, 16, 2048, 64, ignore); err == nil {
		t.Error("tRC < tRAS should fail")
	}
}

// TestColdAccessLatency pins the first-access latency: activate (tRCD) plus
// CAS (tCL) from an idle bank.
func TestColdAccessLatency(t *testing.T) {
	var done uint64
	mc := mkMC(t, func(now uint64, _ Request) { done = now })
	mc.Enqueue(0, Request{Addr: 0})
	mc.Tick(0)
	tm := timing()
	want := uint64(tm.TRCD + tm.TCL) // 24
	if done != want {
		t.Errorf("cold access done at %d, want %d", done, want)
	}
}

// TestRowHitFasterThanConflict verifies open-row locality: a second access
// to the same row completes after only tCL, while a different row in the
// same bank pays precharge + activate.
func TestRowHitFasterThanConflict(t *testing.T) {
	run := func(second uint64) uint64 {
		var done uint64
		mc := mkMC(t, func(now uint64, r Request) {
			if r.Addr == second {
				done = now
			}
		})
		mc.Enqueue(0, Request{Addr: 0})
		mc.Enqueue(0, Request{Addr: second})
		for now := uint64(0); !mc.Idle(); now++ {
			mc.Tick(now)
		}
		return done
	}
	hit := run(64)                 // same row (rows are 2048B)
	conflict := run(16 * 2048 * 4) // same bank (16 banks), different row
	if hit >= conflict {
		t.Errorf("row hit (%d) not faster than conflict (%d)", hit, conflict)
	}
	if st := mkMC(t, ignore).Stats(); st.Served != 0 {
		t.Error("fresh controller has non-zero stats")
	}
}

func TestRowHitCounters(t *testing.T) {
	mc := mkMC(t, ignore)
	mc.Enqueue(0, Request{Addr: 0})
	mc.Enqueue(0, Request{Addr: 32})
	for now := uint64(0); !mc.Idle(); now++ {
		mc.Tick(now)
	}
	st := mc.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 || st.Served != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueCapacity(t *testing.T) {
	mc, err := NewController(timing(), 16, 2048, 2, ignore)
	if err != nil {
		t.Fatal(err)
	}
	ok1 := mc.Enqueue(0, Request{Addr: 0})
	ok2 := mc.Enqueue(0, Request{Addr: 64})
	ok3 := mc.Enqueue(0, Request{Addr: 128})
	if !ok1 || !ok2 || ok3 {
		t.Errorf("enqueue results %v/%v/%v, want true/true/false", ok1, ok2, ok3)
	}
	if st := mc.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d", st.Rejected)
	}
	if mc.Pending() != 2 {
		t.Errorf("pending = %d", mc.Pending())
	}
}

func TestNilDonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil completion callback")
		}
	}()
	NewController(timing(), 16, 2048, 64, nil)
}

// TestDoneRoutesBySlice pins the completion contract: the one callback fixed
// at construction receives each accepted request back by value, issuing
// slice and write flag included.
func TestDoneRoutesBySlice(t *testing.T) {
	var got []Request
	mc := mkMC(t, func(_ uint64, r Request) { got = append(got, r) })
	mc.Enqueue(0, Request{Addr: 0, Slice: 3})
	mc.Enqueue(0, Request{Addr: 2048, Write: true, Slice: 5})
	for now := uint64(0); !mc.Idle(); now++ {
		mc.Tick(now)
	}
	if len(got) != 2 || got[0].Addr != 0 || got[0].Slice != 3 || got[0].Write ||
		got[1].Addr != 2048 || got[1].Slice != 5 || !got[1].Write {
		t.Errorf("completions = %+v", got)
	}
}

// TestBankParallelism: requests to different banks overlap, so N requests to
// N banks finish far sooner than N requests to one bank.
func TestBankParallelism(t *testing.T) {
	run := func(stride uint64) uint64 {
		var last uint64
		mc := mkMC(t, func(now uint64, _ Request) {
			if now > last {
				last = now
			}
		})
		for i := uint64(0); i < 8; i++ {
			mc.Enqueue(0, Request{Addr: i * stride})
		}
		for now := uint64(0); !mc.Idle(); now++ {
			mc.Tick(now)
		}
		return last
	}
	spread := run(2048)            // one request per bank
	sameBank := run(2048 * 16 * 2) // all in bank 0, distinct rows
	if float64(sameBank) < 2*float64(spread) {
		t.Errorf("bank parallelism missing: spread=%d sameBank=%d", spread, sameBank)
	}
}

// Property: Done fires exactly once per request and never before the request
// was enqueued, under random address mixes.
func TestQuickCompletionDiscipline(t *testing.T) {
	f := func(addrs []uint32) bool {
		if len(addrs) > 60 {
			addrs = addrs[:60]
		}
		fired := make([]int, len(addrs))
		enqueuedAt := make([]uint64, len(addrs))
		// Slice carries the request's index, so the callback can tell
		// requests to the same address apart.
		mc, err := NewController(timing(), 8, 1024, 64, func(now uint64, r Request) {
			fired[r.Slice]++
			if now < enqueuedAt[r.Slice] {
				fired[r.Slice] = 99 // flag: completed before enqueue
			}
		})
		if err != nil {
			return false
		}
		for i, a := range addrs {
			enqueuedAt[i] = uint64(i)
			if !mc.Enqueue(uint64(i), Request{Addr: uint64(a), Slice: i}) {
				fired[i] = 1 // rejected; treat as accounted for
			}
			mc.Tick(uint64(i))
		}
		for now := uint64(len(addrs)); now < 1_000_000 && !mc.Idle(); now++ {
			mc.Tick(now)
		}
		for _, n := range fired {
			if n != 1 {
				return false
			}
		}
		return mc.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: per-bank command spacing respects tRC between activates. We
// approximate by checking that k same-bank row conflicts take at least
// k*tRC - slack cycles in total.
func TestQuickSameBankRespectsTRC(t *testing.T) {
	tm := timing()
	f := func(n uint8) bool {
		k := int(n%6) + 2
		var last uint64
		mc, err := NewController(tm, 8, 1024, 64, func(now uint64, _ Request) { last = now })
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			// Same bank (8 banks, 1024B rows), different row each time.
			addr := uint64(i) * 1024 * 8
			mc.Enqueue(0, Request{Addr: addr})
		}
		for now := uint64(0); !mc.Idle(); now++ {
			mc.Tick(now)
		}
		// k activates on one bank need at least (k-1)*tRC cycles.
		return last >= uint64((k-1)*tm.TRC)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Package dram models the HBM2 memory behind the L2 slices: per-controller
// command queues over banked DRAM with the Table 1 timing parameters
// (tCL=12, tRP=12, tRC=40, tRAS=28, tRCD=12, tRRD=3). The covert-channel
// probe traffic is tuned to hit in L2, so DRAM mostly matters for preload
// warmup and for the noise analysis of §5 (a third kernel pushing the
// channel kernels to main memory); it is nonetheless modeled faithfully so
// miss traffic has realistic latency and bank contention.
package dram

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/probe"
	"gpunoc/internal/ring"
)

// Request is one line fetch or writeback handed to a memory controller.
type Request struct {
	Addr  uint64
	Write bool
	// Done is invoked exactly once, at the cycle the data transfer
	// completes.
	Done func(now uint64)

	arriveAt uint64
}

type bank struct {
	rowOpen    bool
	row        uint64
	readyAt    uint64 // earliest cycle a new column command may issue
	precharged uint64 // bookkeeping for tRAS: cycle the row was activated
}

// Controller is a single memory controller scheduling over its banks.
// Requests are served oldest-ready-first (an FR-FCFS approximation): each
// tick the controller scans a bounded window of the queue and issues
// commands to banks that can accept them, so independent banks proceed in
// parallel the way HBM2 channels do.
type Controller struct {
	timing   config.DRAMTiming
	banks    []bank
	rowBytes uint64

	queue    ring.Buffer[*Request]
	capacity int
	wake     func() // activity wake edge (see SetWaker); nil outside a scheduler

	lastActivate uint64 // for tRRD
	hasActivated bool

	// Counters.
	served, rowHits, rowMisses, dropped uint64

	pr *mcProbes // nil when uninstrumented (the fast path)
}

// mcProbes mirrors the controller's row-buffer outcome counters into a
// probe.Registry, plus a queue-wait histogram (arrival to command issue) and
// a queue-depth gauge.
type mcProbes struct {
	rowHits, rowMisses *probe.Counter
	queueWait          *probe.Hist
	depth              *probe.Gauge
}

// Instrument registers this controller's metrics with r under the given
// prefix (e.g. "dram/mc0"). A nil registry leaves it uninstrumented.
func (mc *Controller) Instrument(r *probe.Registry, prefix string) {
	if r == nil {
		return
	}
	mc.pr = &mcProbes{
		rowHits:   r.Counter(prefix + "/row_hits"),
		rowMisses: r.Counter(prefix + "/row_misses"),
		queueWait: r.Hist(prefix + "/queue_wait"),
		depth:     r.Gauge(prefix + "/queue_depth"),
	}
}

// NewController builds a controller with the given timing, bank count, row
// size in bytes, and queue capacity.
func NewController(t config.DRAMTiming, banks int, rowBytes, capacity int) (*Controller, error) {
	switch {
	case banks <= 0:
		return nil, fmt.Errorf("dram: non-positive bank count %d", banks)
	case rowBytes <= 0 || rowBytes&(rowBytes-1) != 0:
		return nil, fmt.Errorf("dram: row size %d not a positive power of two", rowBytes)
	case capacity <= 0:
		return nil, fmt.Errorf("dram: non-positive queue capacity %d", capacity)
	case t.TRC < t.TRAS:
		return nil, fmt.Errorf("dram: tRC %d < tRAS %d", t.TRC, t.TRAS)
	}
	return &Controller{
		timing:   t,
		banks:    make([]bank, banks),
		rowBytes: uint64(rowBytes),
		capacity: capacity,
	}, nil
}

// SetWaker registers the activity wake edge: w is invoked on every
// successful Enqueue, so the container that parked this controller (because
// Idle() held) knows to tick it again. A nil waker (the default) is correct
// when the controller is ticked exhaustively.
func (mc *Controller) SetWaker(w func()) { mc.wake = w }

// Enqueue submits a request. It returns false when the controller queue is
// full; the caller (the L2 slice) must retry later.
func (mc *Controller) Enqueue(now uint64, r *Request) bool {
	if mc.queue.Len() >= mc.capacity {
		mc.dropped++
		return false
	}
	if r.Done == nil {
		panic("dram: request with nil Done callback")
	}
	r.arriveAt = now
	mc.queue.Push(r)
	if mc.pr != nil {
		mc.pr.depth.Add(1)
	}
	if mc.wake != nil {
		mc.wake()
	}
	return true
}

// Pending returns the queue occupancy.
func (mc *Controller) Pending() int { return mc.queue.Len() }

func (mc *Controller) bankOf(addr uint64) int {
	return int((addr / mc.rowBytes) % uint64(len(mc.banks)))
}

func (mc *Controller) rowOf(addr uint64) uint64 {
	return addr / mc.rowBytes / uint64(len(mc.banks))
}

// Issue limits per tick: how many commands may start and how deep into the
// queue the scheduler looks for a ready bank.
const (
	issueWidth = 2
	scanWindow = 16
)

// Tick scans the head of the queue for requests whose banks can accept a
// command this cycle, issuing up to issueWidth of them (oldest first). Banks
// operate in parallel; per-bank timing still honours the DRAM parameters.
func (mc *Controller) Tick(now uint64) {
	issued := 0
	for i := 0; i < mc.queue.Len() && i < scanWindow && issued < issueWidth; {
		r := *mc.queue.At(i)
		b := &mc.banks[mc.bankOf(r.Addr)]
		if b.readyAt > now {
			i++
			continue
		}
		mc.service(now, r, b)
		mc.queue.RemoveAt(i)
		issued++
	}
}

// service issues the bank commands for r and schedules its completion.
func (mc *Controller) service(now uint64, r *Request, b *bank) {
	row := mc.rowOf(r.Addr)
	t := mc.timing
	if mc.pr != nil {
		mc.pr.queueWait.Observe(now - r.arriveAt)
		mc.pr.depth.Add(-1)
	}
	var dataAt uint64
	switch {
	case b.rowOpen && b.row == row:
		// Row hit: column access only.
		mc.rowHits++
		if mc.pr != nil {
			mc.pr.rowHits.Inc()
		}
		dataAt = now + uint64(t.TCL)
	case b.rowOpen:
		// Row conflict: precharge (respecting tRAS) + activate + column.
		mc.rowMisses++
		if mc.pr != nil {
			mc.pr.rowMisses.Inc()
		}
		pre := now
		if min := b.precharged + uint64(t.TRAS); pre < min {
			pre = min
		}
		if min := b.precharged + uint64(t.TRC) - uint64(t.TRP); pre < min {
			// tRC lower-bounds activate-to-activate on the same bank.
			pre = min
		}
		act := pre + uint64(t.TRP)
		if min := mc.lastActivate + uint64(t.TRRD); mc.hasActivated && act < min {
			act = min
		}
		b.row, b.precharged = row, act
		mc.lastActivate, mc.hasActivated = act, true
		dataAt = act + uint64(t.TRCD) + uint64(t.TCL)
	default:
		// Bank idle: activate + column.
		mc.rowMisses++
		if mc.pr != nil {
			mc.pr.rowMisses.Inc()
		}
		act := now
		if min := mc.lastActivate + uint64(t.TRRD); mc.hasActivated && act < min {
			act = min
		}
		b.rowOpen, b.row, b.precharged = true, row, act
		mc.lastActivate, mc.hasActivated = act, true
		dataAt = act + uint64(t.TRCD) + uint64(t.TCL)
	}
	b.readyAt = dataAt
	mc.served++
	r.Done(dataAt)
}

// Idle reports whether no requests are queued. An idle controller's Tick is
// a no-op (bank timing is tracked as absolute ready cycles, not countdowns),
// so the scheduler may park it until the next Enqueue.
func (mc *Controller) Idle() bool { return mc.queue.Len() == 0 }

// Stats is a snapshot of controller counters.
type Stats struct {
	Served, RowHits, RowMisses, Rejected uint64
}

// Stats returns the counter snapshot.
func (mc *Controller) Stats() Stats {
	return Stats{mc.served, mc.rowHits, mc.rowMisses, mc.dropped}
}

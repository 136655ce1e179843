// Package telemetry turns the probe layer's cumulative metrics into a
// deterministic stream of fixed-width windows. An engine-driven Sampler is
// stepped once per simulated cycle (and once per idle fast-forward jump);
// every W cycles it reads each registered instrument in place, diffs it
// against the value it kept from the previous window into a Window of
// per-metric deltas and rates, folds each link's occupancy rate into an
// EWMA baseline, and hands the window to every registered Watcher. Its state
// sits in slices aligned with the registry's append-only, registration-
// ordered instrument lists, so a window costs one pass over the instruments:
// no snapshot, no sorting, no quantiles, no name comparisons. The first real
// watcher, Detector (detector.go), scores the window stream for the covert
// channel's slot-paced signature.
//
// The layer follows the probe substrate's contract exactly: it spawns no
// goroutines (watchers run inline on the engine's goroutine, inside the tick
// model), every Sampler method is safe on a nil receiver (the zero-value-off
// fast path costs one nil check per cycle), and everything is stamped in
// simulated cycles — never wall time — so telemetered runs stay
// byte-reproducible.
//
// The Sampler keeps its own cumulative cycle clock, advanced by the deltas
// the engine reports. Experiments that build several engine instances from
// one config (every transmission builds a fresh GPU) therefore produce one
// continuous window timeline across instances, the same way the shared
// registry accumulates counters across them.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"gpunoc/internal/probe"
)

// DefaultWindowCycles is the window width selected when NewSampler is given
// zero: 512 cycles is fine-grained enough to resolve the paper-rate channel's
// ~1600-cycle slots (lag ≥ 3 windows) while keeping JSONL volume and
// per-window overhead small.
const DefaultWindowCycles = 512

// DefaultEWMAAlpha is the smoothing factor of the per-link occupancy
// baseline: each window folds in as ewma += alpha·(rate−ewma), so the
// baseline's time constant is about 1/alpha = 8 windows.
const DefaultEWMAAlpha = 0.125

// ewmaFloor is the level below which a decaying baseline stops being
// emitted: a link that has gone quiet drops out of Window.Occ once its EWMA
// decays past this, keeping the sparse encoding sparse.
const ewmaFloor = 1e-6

// HistDelta is the per-window change of one histogram: how many samples
// landed inside the window and their sum.
type HistDelta struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
}

// OccWindow is the per-window view of one occupancy-tracked link. Busy is
// the busy-unit delta, Rate normalizes it to [0, 1] utilization over the
// window, and EWMA is the baseline *before* this window was folded in, so a
// watcher can score the window's deviation from what came before it.
type OccWindow struct {
	Busy uint64  `json:"busy"`
	Rate float64 `json:"rate"`
	EWMA float64 `json:"ewma"`
}

// Window is one completed aggregation interval [Start, End) of exactly
// End−Start = W cycles, with cycle stamps on the Sampler's cumulative clock.
// The maps are sparse: a metric appears only when it changed during the
// window (for Occ, also while its EWMA baseline is still decaying), so quiet
// windows encode small. Counters and Hists hold deltas; Gauges hold the
// value at End. JSON encoding is deterministic — encoding/json sorts map
// keys — which is what lets CI diff window streams byte-for-byte.
type Window struct {
	Index    uint64               `json:"i"`
	Start    uint64               `json:"start"`
	End      uint64               `json:"end"`
	Counters map[string]uint64    `json:"counters,omitempty"`
	Gauges   map[string]int64     `json:"gauges,omitempty"`
	Hists    map[string]HistDelta `json:"hists,omitempty"`
	Occ      map[string]OccWindow `json:"occ,omitempty"`
}

// Watcher consumes completed windows in order, synchronously, on the
// engine's goroutine. Implementations must treat the Window as read-only:
// its maps are shared by every watcher and by any recorder retaining it.
type Watcher interface {
	ObserveWindow(Window)
}

// Recorder is a Watcher that retains every window in arrival order, for
// JSONL export and offline replay through other watchers.
type Recorder struct {
	windows []Window
}

// ObserveWindow appends the window.
func (r *Recorder) ObserveWindow(w Window) { r.windows = append(r.windows, w) }

// Windows returns the retained windows in order.
func (r *Recorder) Windows() []Window { return r.windows }

// Sampler cuts the probe registry's cumulative metrics into fixed-width
// windows. The zero value and the nil pointer are both "off": Step on a nil
// Sampler is a no-op, which is the disabled fast path the engine relies on.
// A Sampler is single-use and single-goroutine, like the registry it reads,
// and aggregates exactly one registry: its per-metric state is aligned by
// position with that registry's instrument lists, so Step panics when handed
// a second one.
type Sampler struct {
	window uint64
	alpha  float64
	clock  uint64
	nextAt uint64
	index  uint64
	reg    *probe.Registry

	// Cumulative values at the previous window boundary and the occupancy
	// baselines, each aligned with the registry's registration-ordered list
	// of its kind and extended with zeros when that list grows.
	counters []uint64
	gauges   []int64
	hists    []HistDelta
	busy     []uint64
	ewma     []float64

	watchers []Watcher
}

// NewSampler returns a sampler emitting windows of windowCycles cycles
// (0 selects DefaultWindowCycles) to the given watchers, in order.
func NewSampler(windowCycles uint64, watchers ...Watcher) *Sampler {
	if windowCycles == 0 {
		windowCycles = DefaultWindowCycles
	}
	return &Sampler{
		window:   windowCycles,
		alpha:    DefaultEWMAAlpha,
		nextAt:   windowCycles,
		watchers: watchers,
	}
}

// WindowCycles returns the configured window width (0 on a nil sampler).
func (s *Sampler) WindowCycles() uint64 {
	if s == nil {
		return 0
	}
	return s.window
}

// Step advances the sampler's clock by d simulated cycles against registry r
// and emits every window boundary the advance crossed. The engine calls it
// with d=1 after each stepped cycle and with the skipped span after an idle
// fast-forward jump; in the latter case the registry is unchanged across the
// jump, so the first crossed window absorbs the whole delta and the rest are
// empty — exactly what stepping cycle-by-cycle would have produced. Safe on
// a nil receiver (no-op). The first non-nil registry a window reads binds
// the sampler; reading any other one panics.
func (s *Sampler) Step(d uint64, r *probe.Registry) {
	if s == nil {
		return
	}
	s.clock += d
	if s.clock < s.nextAt {
		return
	}
	s.flush(r)
}

// flush emits every completed window up to the current clock, reading the
// registry's instruments in place. Within a single Step call the registry
// cannot change, so windows after the first see no deltas and carry only
// decaying EWMA baselines.
func (s *Sampler) flush(r *probe.Registry) {
	if r != s.reg {
		if s.reg != nil {
			panic("telemetry: sampler stepped with a second probe registry; a Sampler aggregates exactly one")
		}
		s.reg = r
	}
	for s.clock >= s.nextAt {
		w := s.diff()
		s.index++
		s.nextAt += s.window
		for _, wt := range s.watchers {
			wt.ObserveWindow(w)
		}
	}
}

// diff builds the window ending at s.nextAt by comparing each instrument's
// current value with the one recorded at the previous boundary, then records
// the current values for the next window. The registry's lists only grow, so
// a metric registered since the last window starts from zero, as it would in
// a snapshot taken before it existed.
func (s *Sampler) diff() Window {
	w := Window{Index: s.index, Start: s.nextAt - s.window, End: s.nextAt}

	names, counters := s.reg.Counters()
	s.counters = extend(s.counters, len(counters))
	for i, c := range counters {
		v := c.Load()
		if d := v - s.counters[i]; d != 0 {
			if w.Counters == nil {
				w.Counters = map[string]uint64{}
			}
			w.Counters[names[i]] = d
			s.counters[i] = v
		}
	}

	names, gauges := s.reg.Gauges()
	s.gauges = extend(s.gauges, len(gauges))
	for i, g := range gauges {
		if v := g.Load(); v != s.gauges[i] {
			if w.Gauges == nil {
				w.Gauges = map[string]int64{}
			}
			w.Gauges[names[i]] = v
			s.gauges[i] = v
		}
	}

	names, hists := s.reg.Hists()
	s.hists = extend(s.hists, len(hists))
	for i, h := range hists {
		prev := &s.hists[i]
		if n := h.Count(); n != prev.Count {
			if w.Hists == nil {
				w.Hists = map[string]HistDelta{}
			}
			sum := h.Sum()
			w.Hists[names[i]] = HistDelta{Count: n - prev.Count, Sum: sum - prev.Sum}
			*prev = HistDelta{Count: n, Sum: sum}
		}
	}

	names, occs := s.reg.Occupancies()
	s.busy = extend(s.busy, len(occs))
	s.ewma = extend(s.ewma, len(occs))
	for i, o := range occs {
		cur := o.Busy()
		busy := cur - s.busy[i]
		s.busy[i] = cur
		rate := 0.0
		if units := o.UnitsPerCycle(); units > 0 {
			rate = math.Min(float64(busy)/(float64(units)*float64(s.window)), 1)
		}
		base := s.ewma[i]
		s.ewma[i] = base + s.alpha*(rate-base)
		if busy != 0 || base >= ewmaFloor {
			if w.Occ == nil {
				w.Occ = map[string]OccWindow{}
			}
			w.Occ[names[i]] = OccWindow{Busy: busy, Rate: rate, EWMA: base}
		}
	}

	return w
}

// extend pads xs with zero values up to length n.
func extend[T any](xs []T, n int) []T {
	if n > len(xs) {
		xs = append(xs, make([]T, n-len(xs))...)
	}
	return xs
}

// WriteWindowsJSONL writes one JSON object per line for each window, in
// order. Byte-deterministic: encoding/json emits map keys sorted.
func WriteWindowsJSONL(w io.Writer, windows []Window) error {
	for _, win := range windows {
		b, err := json.Marshal(win)
		if err != nil {
			return fmt.Errorf("telemetry: encoding window %d: %w", win.Index, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsJSONL writes one JSON object per line for each detection event,
// in order.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("telemetry: encoding event %d: %w", i, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// SortedOccNames returns the window's occupancy metric names in ascending
// order, the deterministic iteration order watchers use.
func SortedOccNames(w Window) []string {
	names := make([]string, 0, len(w.Occ))
	for name := range w.Occ {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// linkDenies sums the window's arbitration-deny counter deltas for the link
// that owns the given occupancy metric ("noc/<link>/occupancy" →
// "noc/<link>/in<i>/denies"). Summation over the counter map is
// order-independent.
func linkDenies(w Window, occName string) uint64 {
	prefix := strings.TrimSuffix(occName, "occupancy")
	if prefix == occName {
		return 0
	}
	var sum uint64
	for name, d := range w.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, "/denies") {
			sum += d
		}
	}
	return sum
}

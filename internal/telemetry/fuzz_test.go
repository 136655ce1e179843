package telemetry

import (
	"math"
	"reflect"
	"testing"

	"gpunoc/internal/probe"
)

// snapshotSampler is the reference the in-place Sampler must match: at each
// flush it takes a name-sorted probe.Snapshot and diffs it against the
// previous one with a forward merge per metric kind, keeping EWMA baselines
// in a name-keyed map.
type snapshotSampler struct {
	window uint64
	clock  uint64
	nextAt uint64
	index  uint64
	prev   probe.Snapshot
	ewma   map[string]float64
	rec    Recorder
}

func newSnapshotSampler(window uint64) *snapshotSampler {
	return &snapshotSampler{window: window, nextAt: window, ewma: map[string]float64{}}
}

func (s *snapshotSampler) Step(d uint64, r *probe.Registry) {
	s.clock += d
	if s.clock < s.nextAt {
		return
	}
	cur := r.Snapshot(s.nextAt)
	for s.clock >= s.nextAt {
		s.rec.ObserveWindow(s.diff(cur))
		s.prev = cur
		s.index++
		s.nextAt += s.window
	}
}

func (s *snapshotSampler) diff(cur probe.Snapshot) Window {
	w := Window{Index: s.index, Start: s.nextAt - s.window, End: s.nextAt}

	i := 0
	for _, c := range cur.Counters {
		var prev uint64
		for i < len(s.prev.Counters) && s.prev.Counters[i].Name < c.Name {
			i++
		}
		if i < len(s.prev.Counters) && s.prev.Counters[i].Name == c.Name {
			prev = s.prev.Counters[i].Value
		}
		if d := c.Value - prev; d != 0 {
			if w.Counters == nil {
				w.Counters = map[string]uint64{}
			}
			w.Counters[c.Name] = d
		}
	}

	i = 0
	for _, g := range cur.Gauges {
		var prev int64
		for i < len(s.prev.Gauges) && s.prev.Gauges[i].Name < g.Name {
			i++
		}
		if i < len(s.prev.Gauges) && s.prev.Gauges[i].Name == g.Name {
			prev = s.prev.Gauges[i].Value
		}
		if g.Value != prev {
			if w.Gauges == nil {
				w.Gauges = map[string]int64{}
			}
			w.Gauges[g.Name] = g.Value
		}
	}

	i = 0
	for _, h := range cur.Hists {
		var prevCount, prevSum uint64
		for i < len(s.prev.Hists) && s.prev.Hists[i].Name < h.Name {
			i++
		}
		if i < len(s.prev.Hists) && s.prev.Hists[i].Name == h.Name {
			prevCount = uint64(s.prev.Hists[i].Dist.Count)
			prevSum = s.prev.Hists[i].Sum
		}
		if d := uint64(h.Dist.Count) - prevCount; d != 0 {
			if w.Hists == nil {
				w.Hists = map[string]HistDelta{}
			}
			w.Hists[h.Name] = HistDelta{Count: d, Sum: h.Sum - prevSum}
		}
	}

	i = 0
	for _, o := range cur.Occupancy {
		var prevBusy uint64
		for i < len(s.prev.Occupancy) && s.prev.Occupancy[i].Name < o.Name {
			i++
		}
		if i < len(s.prev.Occupancy) && s.prev.Occupancy[i].Name == o.Name {
			prevBusy = s.prev.Occupancy[i].Busy
		}
		busy := o.Busy - prevBusy
		rate := 0.0
		if o.Units > 0 {
			rate = math.Min(float64(busy)/(float64(o.Units)*float64(s.window)), 1)
		}
		base := s.ewma[o.Name]
		s.ewma[o.Name] = base + DefaultEWMAAlpha*(rate-base)
		if busy != 0 || base >= ewmaFloor {
			if w.Occ == nil {
				w.Occ = map[string]OccWindow{}
			}
			w.Occ[o.Name] = OccWindow{Busy: busy, Rate: rate, EWMA: base}
		}
	}

	return w
}

// Fuzz op codes: each op is two bytes, (code + opCount·nameIndex, arg).
const (
	opCounter = iota
	opGauge
	opHist
	opOcc
	opAdd
	opSet
	opObserve
	opAddBusy
	opStep
	opJump
	opCount
)

// fuzzNames is the metric name alphabet. Names repeat across kinds, and a
// late registration can sort first, last or between earlier ones in a
// snapshot.
var fuzzNames = [...]string{"m", "noc/l0/occupancy", "noc/l0/in0/denies", "a", "z"}

// fuzzOp encodes one op for the seed corpus.
func fuzzOp(code, name int, arg byte) []byte {
	return []byte{byte(code + opCount*name), arg}
}

// FuzzSamplerMatchesSnapshotDiff drives a Sampler and the snapshot-diff
// reference with the same op stream against one registry — instruments
// registered in any order, also after windows went out; Add/Set/Observe/
// AddBusy; single-cycle and multi-window steps — and requires identical
// windows. The first byte picks the window width (1–8 cycles).
func FuzzSamplerMatchesSnapshotDiff(f *testing.F) {
	seq := func(width byte, ops ...[]byte) []byte {
		b := []byte{width}
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	// Late registration: a counter moves through two windows, then a gauge,
	// a histogram and an occupancy register under names sorting on both
	// sides of it, and everything moves again.
	f.Add(seq(3,
		fuzzOp(opAdd, 0, 5), fuzzOp(opJump, 0, 4),
		fuzzOp(opAdd, 0, 1), fuzzOp(opStep, 0, 0), fuzzOp(opStep, 0, 0), fuzzOp(opStep, 0, 0),
		fuzzOp(opGauge, 3, 0), fuzzOp(opSet, 3, 0xfe), fuzzOp(opOcc, 1, 2), fuzzOp(opCounter, 4, 0),
		fuzzOp(opObserve, 4, 9), fuzzOp(opAddBusy, 1, 7), fuzzOp(opAdd, 3, 2), fuzzOp(opJump, 0, 1),
		fuzzOp(opSet, 3, 0), fuzzOp(opAdd, 4, 1), fuzzOp(opJump, 0, 2)))
	// One jump across several windows: the first absorbs the deltas, the
	// rest carry only the decaying occupancy baseline.
	f.Add(seq(4,
		fuzzOp(opAddBusy, 1, 200), fuzzOp(opAddBusy, 0, 3), fuzzOp(opAdd, 2, 4),
		fuzzOp(opObserve, 0, 100), fuzzOp(opSet, 0, 7), fuzzOp(opJump, 0, 13),
		fuzzOp(opAddBusy, 1, 1), fuzzOp(opJump, 0, 30)))
	// A zero-capacity tracker, gauges returning to zero, and a histogram
	// registered but never observed.
	f.Add(seq(1,
		fuzzOp(opOcc, 2, 0), fuzzOp(opAddBusy, 2, 9), fuzzOp(opHist, 1, 0), fuzzOp(opStep, 0, 0),
		fuzzOp(opSet, 1, 3), fuzzOp(opStep, 0, 0), fuzzOp(opSet, 1, 0), fuzzOp(opStep, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := uint64(data[0]%8) + 1
		r := probe.NewRegistry()
		ref := newSnapshotSampler(width)
		rec := &Recorder{}
		s := NewSampler(width, rec)
		step := func(d uint64) {
			ref.Step(d, r)
			s.Step(d, r)
		}
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			code, name, arg := int(ops[0])%opCount, fuzzNames[int(ops[0])/opCount%len(fuzzNames)], ops[1]
			switch code {
			case opCounter:
				r.Counter(name)
			case opGauge:
				r.Gauge(name)
			case opHist:
				r.Hist(name)
			case opOcc:
				r.Occupancy(name, uint64(arg%4))
			case opAdd:
				r.Counter(name).Add(uint64(arg))
			case opSet:
				r.Gauge(name).Set(int64(int8(arg)))
			case opObserve:
				r.Hist(name).Observe(uint64(arg) << (arg % 16))
			case opAddBusy:
				r.Occupancy(name, uint64(arg%4)).AddBusy(uint64(arg))
			case opStep:
				step(1)
			case opJump:
				step(uint64(arg%64) + 1)
			}
		}
		want, got := ref.rec.Windows(), rec.Windows()
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					var g Window
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("window %d of %d differs:\nsampler:  %+v\nsnapshot: %+v", i, len(want), g, want[i])
				}
			}
			t.Fatalf("sampler emitted %d windows, snapshot diff %d", len(got), len(want))
		}
	})
}

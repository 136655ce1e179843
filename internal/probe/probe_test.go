package probe

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNilReceiversAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatalf("nil counter loaded %d", c.Load())
	}
	g := r.Gauge("x")
	g.Set(5)
	g.Add(-2)
	if g.Load() != 0 || g.Max() != 0 {
		t.Fatalf("nil gauge %d/%d", g.Load(), g.Max())
	}
	h := r.Hist("x")
	h.Observe(9)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil hist not inert")
	}
	o := r.Occupancy("x", 4)
	o.AddBusy(10)
	if o.Value(100) != 0 {
		t.Fatalf("nil occupancy not inert")
	}
	tr := r.Tracer()
	tr.Span(tr.Track("t"), "e", 1, 2)
	tr.Instant(0, "e", 3)
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil trace not inert")
	}
	snap := r.Snapshot(10)
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Hists)+len(snap.Occupancy) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same")
	a.Add(2)
	b := r.Counter("same")
	b.Add(3)
	if a != b {
		t.Fatalf("second lookup returned a different counter")
	}
	if a.Load() != 5 {
		t.Fatalf("counter = %d, want 5 (accumulated across lookups)", a.Load())
	}
	if r.Hist("h") != r.Hist("h") || r.Gauge("g") != r.Gauge("g") {
		t.Fatalf("hist/gauge lookups not idempotent")
	}
	if r.Occupancy("o", 4) != r.Occupancy("o", 9) {
		t.Fatalf("occupancy lookup not idempotent")
	}
}

func TestGaugeTracksHighWater(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Load() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Load())
	}
	if g.Max() != 7 {
		t.Fatalf("gauge max = %d, want 7", g.Max())
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewRegistry().Hist("lat")
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Max() != 1000 {
		t.Fatalf("count/max = %d/%d", h.Count(), h.Max())
	}
	if got, want := h.Mean(), 500.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	// Log2 buckets bound any quantile estimate by a factor of two.
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.95, 950}, {0.99, 990}, {1, 1000}, {0, 1},
	} {
		got := h.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q%.2f = %g, want within 2x of %g", tc.q, got, tc.want)
		}
	}
	if h.Quantile(1) > float64(h.Max()) {
		t.Fatalf("q1.0 %g exceeds max %d", h.Quantile(1), h.Max())
	}
	d := h.Dist()
	if d.Count != 1000 || d.Max != 1000 || d.Mean != h.Mean() {
		t.Fatalf("dist = %+v", d)
	}
}

func TestHistZeroAndSingleValues(t *testing.T) {
	h := NewRegistry().Hist("z")
	h.Observe(0)
	h.Observe(0)
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("all-zero hist: q50 %g max %d", h.Quantile(0.5), h.Max())
	}
	h2 := NewRegistry().Hist("s")
	h2.Observe(42)
	if got := h2.Quantile(0.5); got < 32 || got > 42 {
		t.Fatalf("single-sample q50 = %g, want in [32,42]", got)
	}
}

func TestOccupancySaturation(t *testing.T) {
	o := NewRegistry().Occupancy("link", 4)
	// 100 cycles at full rate: 4 units per cycle.
	o.AddBusy(400)
	if got := o.Value(100); got != 1 {
		t.Fatalf("saturated occupancy = %g, want 1", got)
	}
	if got := o.Value(200); got != 0.5 {
		t.Fatalf("half occupancy = %g, want 0.5", got)
	}
	// Clamped even if busy accounting overshoots the horizon.
	if got := o.Value(50); got != 1 {
		t.Fatalf("overshoot occupancy = %g, want clamp to 1", got)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(7)
		}
		r.Gauge("g/b").Set(1)
		r.Gauge("g/a").Set(2)
		r.Hist("h").Observe(3)
		r.Occupancy("o", 2).AddBusy(10)
		return r.Snapshot(100)
	}
	a := build([]string{"z", "m", "a"})
	b := build([]string{"a", "z", "m"})
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snapshot depends on registration order:\n%s\n%s", aj, bj)
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Name > a.Counters[i].Name {
			t.Fatalf("counters not sorted: %q > %q", a.Counters[i-1].Name, a.Counters[i].Name)
		}
	}
	if _, ok := a.FindCounter("m"); !ok {
		t.Fatalf("FindCounter missed %q", "m")
	}
	if _, ok := a.FindGauge("g/a"); !ok {
		t.Fatalf("FindGauge missed g/a")
	}
	if _, ok := a.FindHist("h"); !ok {
		t.Fatalf("FindHist missed h")
	}
	if o, ok := a.FindOccupancy("o"); !ok || o.Value != 0.05 {
		t.Fatalf("FindOccupancy = %+v/%v, want value 0.05", o, ok)
	}
}

// TestRegistryListsKeepRegistrationOrder pins what the telemetry sampler
// relies on: the per-kind lists hand out instruments in registration order,
// a repeated registration neither moves nor duplicates an entry, and a later
// registration only appends.
func TestRegistryListsKeepRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	z, a := r.Counter("z"), r.Counter("a")
	if r.Counter("z") != z {
		t.Fatal("repeated registration returned a new counter")
	}
	m := r.Counter("m")
	names, cs := r.Counters()
	if !reflect.DeepEqual(names, []string{"z", "a", "m"}) || len(cs) != 3 || cs[0] != z || cs[1] != a || cs[2] != m {
		t.Fatalf("counters listed as %v", names)
	}
	o := r.Occupancy("o", 4)
	if r.Occupancy("o", 9) != o || o.UnitsPerCycle() != 4 {
		t.Fatalf("re-registered occupancy: units %d, want the first registration's 4", o.UnitsPerCycle())
	}
	if names, _ := r.Occupancies(); len(names) != 1 {
		t.Fatalf("occupancies listed as %v", names)
	}
	var nilReg *Registry
	if names, cs := nilReg.Counters(); names != nil || cs != nil {
		t.Fatal("nil registry lists counters")
	}
}

func TestSnapshotCSVShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Hist("h").Observe(3)
	r.Occupancy("o", 1).AddBusy(4)
	csv := r.Snapshot(8).CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv has %d lines, want header + 4 rows:\n%s", len(lines), csv)
	}
	cols := len(strings.Split(lines[0], ","))
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != cols {
			t.Fatalf("row %d has %d cols, header has %d:\n%s", i, got, cols, csv)
		}
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	tr := newTrace(4)
	id := tr.Track("t")
	for i := uint64(0); i < 10; i++ {
		tr.Span(id, "e", i, i+1)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.TS != want {
			t.Fatalf("event %d has ts %d, want %d (oldest dropped, order kept)", i, e.TS, want)
		}
	}
}

func TestTraceTrackReuse(t *testing.T) {
	tr := newTrace(8)
	a := tr.Track("noc/tpc0-req")
	b := tr.Track("noc/tpc0-req")
	c := tr.Track("noc/tpc1-req")
	if a != b {
		t.Fatalf("same name gave different tracks %d/%d", a, b)
	}
	if a == c {
		t.Fatalf("different names share track %d", a)
	}
	if got := tr.Tracks(); len(got) != 2 || got[0] != "noc/tpc0-req" || got[1] != "noc/tpc1-req" {
		t.Fatalf("tracks = %v", got)
	}
}

func TestWriteChromeParsesAsJSON(t *testing.T) {
	r := NewRegistry()
	tr := r.EnableTrace(16)
	id := tr.Track("link")
	tr.Span(id, "WriteReq", 10, 25)
	tr.Instant(id, "stall", 12)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// metadata + span + instant
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("trace has %d events, want 3:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 1 || phases["X"] != 1 || phases["i"] != 1 {
		t.Fatalf("phases = %v, want one each of M/X/i", phases)
	}

	// Deterministic output for identical traces.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("chrome trace output is not deterministic")
	}
}

func TestWriteChromeNilTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil trace export is not valid JSON: %s", buf.String())
	}
}

func TestEnableTraceIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.EnableTrace(0)
	b := r.EnableTrace(32)
	if a == nil || a != b {
		t.Fatalf("EnableTrace not idempotent")
	}
	if r.Tracer() != a {
		t.Fatalf("Tracer did not return the enabled ring")
	}
}

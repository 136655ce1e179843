package core

import (
	"reflect"
	"testing"

	"gpunoc/internal/mesh"
)

// TestSlotSchedule pins Algorithm 2's slot schedule on the quiet small
// config: for a 24-symbol payload and fixed thresholds (no calibration
// run), the receiver's clock at each slot start, the mean latency it saw in
// each slot, and the symbols it decoded (all of them right). The clock gaps
// are SlotCycles plus the receiver's drift draw, or a resync to the next
// syncModulus boundary every SyncPeriod slots; the latencies record where
// each side's jitter placed its accesses inside the slot. NVLink runs on a
// 2-GPU mesh, where both sides sync through the phase hook.
func TestSlotSchedule(t *testing.T) {
	cfg := fastCfg()
	payload, err := BytesToSymbols([]byte("Alg"), 1)
	if err != nil {
		t.Fatal(err)
	}
	onDie := func(p Params) func() (Result, error) {
		return func() (Result, error) {
			tr, err := NewTransmission(&cfg, payload, []int{0}, p)
			if err != nil {
				return Result{}, err
			}
			return tr.Run()
		}
	}
	nvlink := func() (Result, error) {
		m, err := mesh.New(cfg, 2)
		if err != nil {
			return Result{}, err
		}
		tr, err := NewNVLinkTransmission(m, 0, 1, payload, Params{SyncPeriod: 8, Seed: 7, Thresholds: []float64{985}})
		if err != nil {
			return Result{}, err
		}
		return tr.Run(0)
	}
	for _, c := range []struct {
		name  string
		run   func() (Result, error)
		first uint64    // receiver clock at the first slot start
		gaps  []uint64  // clock from each slot start to the next
		lat   []float64 // mean probe latency per slot
	}{
		{
			name:  "TPC, no resync",
			run:   onDie(Params{Kind: TPCChannel, Seed: 7, Thresholds: []float64{220}}),
			first: 580124672,
			gaps: []uint64{1602, 1638, 1603, 1600, 1632, 1644, 1600, 1634, 1615, 1630, 1639, 1645,
				1613, 1634, 1616, 1636, 1626, 1641, 1607, 1647, 1630, 1613, 1646},
			lat: []float64{186.75, 252.5, 187, 188, 187.25, 186.25, 187.5, 253, 187.25, 253, 249.5, 186.25,
				241.75, 252.75, 187, 189, 187.75, 244.5, 251.75, 187.75, 187.75, 252.75, 254.25, 253.25},
		},
		{
			name:  "TPC, resync every 8",
			run:   onDie(Params{Kind: TPCChannel, SyncPeriod: 8, Seed: 7, Thresholds: []float64{220}}),
			first: 580124672,
			gaps: []uint64{1602, 1638, 1603, 1600, 1632, 1644, 1600, 5065, 1615, 1630, 1639, 1645,
				1613, 1634, 1616, 4992, 1626, 1641, 1607, 1647, 1630, 1613, 1646},
			lat: []float64{186.75, 252.5, 187, 188, 187.25, 186.25, 187.5, 253, 187.25, 250.75, 252.75, 186.25,
				254.25, 251.5, 187, 189, 187.75, 246.5, 247.75, 187.75, 187.75, 250, 247.5, 251.25},
		},
		{
			name:  "GPC, resync every 8",
			run:   onDie(Params{Kind: GPCChannel, SyncPeriod: 8, Seed: 7, Thresholds: []float64{197}}),
			first: 580124672,
			gaps: []uint64{2052, 2088, 2053, 2050, 2082, 2094, 2050, 10107, 2065, 2080, 2089, 2095,
				2063, 2084, 2066, 10034, 2076, 2091, 2057, 2097, 2080, 2063, 2096},
			lat: []float64{186.75, 210.25, 187.25, 186.25, 187.5, 185.75, 186, 208.75, 187.25, 205, 205.75, 189,
				207.25, 206, 188, 188, 185.75, 212.75, 208.5, 188.25, 187, 207.75, 207.5, 201.5},
		},
		{
			name:  "NVLink, resync every 8",
			run:   nvlink,
			first: 536175758,
			gaps: []uint64{10002, 10038, 10003, 10000, 10032, 10044, 10000, 28185, 10015, 10030, 10039, 10045,
				10013, 10034, 10016, 28112, 10026, 10041, 10007, 10047, 10030, 10013, 10046},
			lat: []float64{650, 1315.75, 649.5, 648.75, 647.75, 647.5, 648.75, 1320.5, 647.5, 1319.25, 1318.75, 648.5,
				1327.25, 1318.25, 648.75, 647.25, 647.75, 1336.25, 1317.25, 647.5, 648.75, 1322.25, 1320.25, 1323.25},
		},
	} {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pr := res.Pairs[0]
		var gaps []uint64
		var lat []float64
		for i, st := range pr.Trace {
			if i > 0 {
				gaps = append(gaps, st.Clock-pr.Trace[i-1].Clock)
			}
			lat = append(lat, st.MeanLatency)
		}
		if len(pr.Trace) == 0 || pr.Trace[0].Clock != c.first {
			t.Errorf("%s: first slot clock wrong (trace %v)", c.name, pr.Trace)
			continue
		}
		if !reflect.DeepEqual(gaps, c.gaps) {
			t.Errorf("%s: slot gaps\n got %v\nwant %v", c.name, gaps, c.gaps)
		}
		if !reflect.DeepEqual(lat, c.lat) {
			t.Errorf("%s: slot latencies\n got %v\nwant %v", c.name, lat, c.lat)
		}
		if !reflect.DeepEqual(pr.Received, payload) {
			t.Errorf("%s: received %v, want every slot of %v", c.name, pr.Received, payload)
		}
	}
}

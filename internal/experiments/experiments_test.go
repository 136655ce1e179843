package experiments

import (
	"strings"
	"testing"

	"gpunoc/internal/config"
)

func smallCfg() config.Config {
	c := config.Small()
	return c
}

func quickOpts() Options { return Options{Scale: Quick, Seed: 5} }

func TestFig2ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig2(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig2(f); err != nil {
		t.Error(err)
	}
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "SM1") {
		t.Errorf("notes = %v, want inferred mate SM1", f.Notes)
	}
}

func TestFig3And4ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f3, err := Fig3(&cfg, []int{0}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Series) != 1 || len(f3.Series[0].X) != cfg.NumTPCs()-1 {
		t.Fatalf("fig3 series malformed: %+v", f3.Series)
	}
	f4, err := Fig4(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range f4.Notes {
		if strings.Contains(n, "2/2 recovered groups match") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig4 did not recover the topology: %v", f4.Notes)
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig5(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig5(f); err != nil {
		t.Error(err)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig6(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := f.seriesByName("clock()")
	if !ok || len(s.X) != cfg.NumSMs() {
		t.Fatalf("clock survey covers %d SMs", len(s.X))
	}
	if len(f.Notes) != 2 {
		t.Errorf("notes = %v", f.Notes)
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig8(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig8(f); err != nil {
		t.Error(err)
	}
}

func TestFig9ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig9(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	synced, ok := f.seriesByName("slot + local synchronization")
	if !ok || len(synced.Y) != 120 {
		t.Fatalf("trace has %d slots", len(synced.Y))
	}
	if err := CheckFig9(f); err != nil {
		t.Error(err)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig10(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig10(f, cfg.NumTPCs()); err != nil {
		t.Error(err)
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig11(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig11(f); err != nil {
		t.Error(err)
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig13(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig13(f); err != nil {
		t.Error(err)
	}
}

func TestFig14ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig14(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig14(f); err != nil {
		t.Error(err)
	}
}

func TestFig15ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := Fig15(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig15(f); err != nil {
		t.Error(err)
	}
}

func TestSRRChannelDefeatShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := SRRChannelDefeat(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSRRChannelDefeat(f); err != nil {
		t.Error(err)
	}
}

func TestSRRTradeoffShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := SRRTradeoff(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSRRTradeoff(f); err != nil {
		t.Error(err)
	}
}

func TestTable1Renders(t *testing.T) {
	cfg := config.Volta()
	f := Table1(&cfg)
	if len(f.Rows) != 4 {
		t.Fatalf("table1 has %d rows", len(f.Rows))
	}
	text := f.Render()
	for _, frag := range []string{"1200MHz", "40 TPCs", "48 L2 slices", "24 MCs", "flit_size=40"} {
		if !strings.Contains(text, frag) {
			t.Errorf("table1 missing %q", frag)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, rows, err := Table2(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || len(f.Rows) != 6 {
		t.Fatalf("table2 has %d rows", len(rows))
	}
	if err := CheckTable2(rows); err != nil {
		t.Error(err)
	}
}

func TestMPSOverhead(t *testing.T) {
	cfg := smallCfg()
	f, err := MPSOverhead(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 3 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	// All skews must keep the channel working.
	for _, s := range f.Series {
		if s.Y[0] > 0.1 {
			t.Errorf("%s error rate %.3f", s.Name, s.Y[0])
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "a", YLabel: "b",
		Header: []string{"h1", "h2"}, Rows: [][]string{{"v1", "v2"}}}
	f.addSeries("s", []float64{1}, []float64{2})
	f.note("hello %d", 7)
	out := f.Render()
	for _, frag := range []string{"== x: t ==", "h1 | h2", "v1 | v2", `series "s"`, "note: hello 7"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestNoiseExperimentShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := NoiseExperiment(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckNoise(f); err != nil {
		t.Error(err)
	}
}

func TestSenderWarpsAblation(t *testing.T) {
	cfg := smallCfg()
	f, err := SenderWarpsAblation(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 4 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	// The paper's 5-warp operating point must work.
	s, ok := f.seriesByName("error rate")
	if !ok {
		t.Fatal("missing series")
	}
	for i, x := range s.X {
		if x == 5 && s.Y[i] > 0.1 {
			t.Errorf("5-warp sender error %.3f", s.Y[i])
		}
	}
}

func TestSlotAblationShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := SlotAblation(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSlotAblation(f); err != nil {
		t.Error(err)
	}
}

func TestSpeedupAblationShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := SpeedupAblation(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSpeedupAblation(f); err != nil {
		t.Error(err)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{ID: "x", XLabel: "iterations", YLabel: "kbps"}
	f.addSeries("a,b", []float64{1, 2}, []float64{3.5, 4})
	csv := f.CSV()
	want := "series,iterations,kbps\n\"a,b\",1,3.5\n\"a,b\",2,4\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
	tbl := &Figure{Header: []string{"h\"1", "h2"}, Rows: [][]string{{"v1", "v,2"}}}
	csv = tbl.CSV()
	want = "\"h\"\"1\",h2\nv1,\"v,2\"\n"
	if csv != want {
		t.Errorf("table CSV = %q, want %q", csv, want)
	}
}

func TestClockFuzzExperimentShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := ClockFuzzExperiment(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckClockFuzz(f); err != nil {
		t.Error(err)
	}
}

func TestSideChannelExperimentShapeHolds(t *testing.T) {
	cfg := smallCfg()
	f, err := SideChannelExperiment(&cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSideChannel(f); err != nil {
		t.Error(err)
	}
}

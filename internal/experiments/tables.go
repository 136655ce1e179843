package experiments

import (
	"fmt"
	"strconv"

	"gpunoc/internal/baseline"
	"gpunoc/internal/config"
	"gpunoc/internal/core"
)

// The paper's tables register themselves with the experiment registry.
func init() {
	MustRegister(Experiment{
		ID: "table1", Order: 10,
		Title:      "Simulation configuration parameters, read back from the live config",
		Section:    "Table 1",
		FixedScale: true,
		Run: func(cfg *config.Config, _ Options) (*Figure, error) {
			return Table1(cfg), nil
		},
		Check: func(_ *config.Config, f *Figure) error {
			if len(f.Rows) != 4 {
				return fmt.Errorf("table1: %d rows, want 4", len(f.Rows))
			}
			return nil
		},
	})
	MustRegister(Experiment{
		ID: "table2", Order: 230,
		Title:   "Measured comparison of all channels against the prior-work baselines",
		Section: "§7, Table 2",
		Run: func(cfg *config.Config, opt Options) (*Figure, error) {
			f, _, err := Table2(cfg, opt)
			return f, err
		},
		Check: func(_ *config.Config, f *Figure) error { return CheckTable2Figure(f) },
		Metrics: func(f *Figure) map[string]float64 {
			rows, err := table2RowsFromFigure(f)
			if err != nil {
				return nil
			}
			for _, r := range rows {
				if r.Name == "GPU multi-TPC channel (this work)" {
					return map[string]float64{"multi-tpc-Mbps": r.Kbps / 1e3}
				}
			}
			return nil
		},
	})
}

// Table1 renders the simulation configuration parameters (the paper's
// Table 1), read back from the live config so the report always matches what
// actually ran.
func Table1(cfg *config.Config) *Figure {
	f := &Figure{
		ID:     "table1",
		Title:  "Simulation configuration parameters",
		Header: []string{"group", "parameter"},
	}
	add := func(group, format string, args ...interface{}) {
		f.Rows = append(f.Rows, []string{group, fmt.Sprintf(format, args...)})
	}
	add("Core Features", "%dMHz, SIMT width=%d, %d TPCs, %d SMs per TPC, %d GPCs",
		cfg.CoreClockMHz, cfg.SIMTWidth, cfg.NumTPCs(), cfg.SMsPerTPC, cfg.NumGPCs)
	add("Caches", "%dKB L1/Shmem per SM, %d L2 slices, %dKB per L2 slice",
		cfg.L1SizeBytes/1024, cfg.NumL2Slices, cfg.L2SliceSizeBytes/1024)
	add("Memory Model", "%d MCs, HBM2, tCL=%d, tRP=%d, tRC=%d, tRAS=%d, tRCD=%d, tRRD=%d",
		cfg.NumMCs, cfg.DRAM.TCL, cfg.DRAM.TRP, cfg.DRAM.TRC, cfg.DRAM.TRAS, cfg.DRAM.TRCD, cfg.DRAM.TRRD)
	// The flit size, VC count and subnet count are fixed by the model, not
	// configured: packet.DataFlits spans a sector in 40-byte flits, and
	// noc.New builds one VC per link on separate request and reply subnets.
	add("Interconnect", "%dMHz, Crossbar, flit_size=40, num_vcs=1, subnet=2, arbitration=%s",
		cfg.CoreClockMHz, cfg.NoC.Arbitration)
	return f
}

// Table2Row is one measured channel in the qualitative comparison.
type Table2Row struct {
	Name      string
	SharedHW  string
	Parallel  bool
	Local     bool
	Direct    bool
	ErrorRate float64
	Kbps      float64
}

// Table2 regenerates the measurable half of Table 2: every channel this
// repository implements, run on the same simulated GPU, with the
// parallel/local/direct taxonomy of §7 and the measured bandwidth ordering.
func Table2(cfg *config.Config, opt Options) (*Figure, []Table2Row, error) {
	f := &Figure{
		ID:    "table2",
		Title: "Qualitative and measured comparison of covert channels",
		Header: []string{"channel", "shared HW", "parallel/serial", "local/global",
			"direct/indirect", "error rate", "bandwidth (kbps)"},
	}
	bits := opt.pick(48, 200)
	payload := core.AlternatingPayload(bits, 2)
	var rows []Table2Row

	addRow := func(r Table2Row) {
		rows = append(rows, r)
		ps, ls, ds := "Serial", "Global", "Indirect"
		if r.Parallel {
			ps = "Parallel"
		}
		if r.Local {
			ls = "Local"
		}
		if r.Direct {
			ds = "Direct"
		}
		f.Rows = append(f.Rows, []string{
			r.Name, r.SharedHW, ps, ls, ds,
			fmt.Sprintf("%.4f", r.ErrorRate), fmt.Sprintf("%.1f", r.Kbps),
		})
	}

	// Prior-work baselines (Naghibijouybari et al. [42] analogues).
	pp, err := baseline.RunPrimeProbe(cfg, baseline.PrimeProbeParams{Bits: payload})
	if err != nil {
		return nil, nil, err
	}
	addRow(Table2Row{Name: "L1 prime+probe [42]", SharedHW: "GPU L1 Cache",
		Parallel: false, Local: true, Direct: false,
		ErrorRate: pp.ErrorRate, Kbps: pp.BitsPerSecond / 1e3})

	at, err := baseline.RunAtomic(cfg, baseline.AtomicParams{Bits: payload})
	if err != nil {
		return nil, nil, err
	}
	addRow(Table2Row{Name: "Global memory atomics [42]", SharedHW: "GPU Global Memory",
		Parallel: true, Local: false, Direct: false,
		ErrorRate: at.ErrorRate, Kbps: at.BitsPerSecond / 1e3})

	// This work: the four interconnect channel variants.
	runOurs := func(kind core.Kind, units []int, nbits int) (core.Result, error) {
		p, err := calibratedParams(cfg, kind, 4, 1, opt.seed())
		if err != nil {
			return core.Result{}, err
		}
		pl := core.AlternatingPayload(nbits, 2)
		tr, err := core.NewTransmission(cfg, pl, units, p)
		if err != nil {
			return core.Result{}, err
		}
		return tr.Run()
	}
	variants := []struct {
		name  string
		kind  core.Kind
		units []int
		bits  int
	}{
		{"GPU TPC channel (this work)", core.TPCChannel, []int{0}, bits},
		{"GPU multi-TPC channel (this work)", core.TPCChannel, nil, bits * cfg.NumTPCs()},
		{"GPU GPC channel (this work)", core.GPCChannel, []int{0}, bits},
		{"GPU multi-GPC channel (this work)", core.GPCChannel, nil, bits * cfg.NumGPCs},
	}
	for _, v := range variants {
		res, err := runOurs(v.kind, v.units, v.bits)
		if err != nil {
			return nil, nil, fmt.Errorf("table2 %s: %w", v.name, err)
		}
		addRow(Table2Row{Name: v.name, SharedHW: fmt.Sprintf("GPU %s Channel", res.Kind),
			Parallel: true, Local: true, Direct: true,
			ErrorRate: res.ErrorRate, Kbps: res.BitsPerSecond / 1e3})
	}
	return f, rows, nil
}

// table2RowsFromFigure recovers the measured columns from a rendered Table 2
// figure, so shape checks can run on the registry's uniform *Figure result.
func table2RowsFromFigure(f *Figure) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(f.Rows))
	for _, row := range f.Rows {
		if len(row) != 7 {
			return nil, fmt.Errorf("table2: row has %d columns, want 7", len(row))
		}
		er, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return nil, fmt.Errorf("table2: bad error rate %q: %v", row[5], err)
		}
		kbps, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			return nil, fmt.Errorf("table2: bad bandwidth %q: %v", row[6], err)
		}
		rows = append(rows, Table2Row{Name: row[0], ErrorRate: er, Kbps: kbps})
	}
	return rows, nil
}

// CheckTable2Figure applies CheckTable2 to a rendered Table 2 figure.
func CheckTable2Figure(f *Figure) error {
	rows, err := table2RowsFromFigure(f)
	if err != nil {
		return err
	}
	return CheckTable2(rows)
}

// CheckTable2 asserts the ordering the paper's comparison makes: the
// interconnect channels dominate both baselines, and the multi-TPC channel
// is the fastest of all.
func CheckTable2(rows []Table2Row) error {
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	tpc := byName["GPU TPC channel (this work)"]
	multi := byName["GPU multi-TPC channel (this work)"]
	pp := byName["L1 prime+probe [42]"]
	at := byName["Global memory atomics [42]"]
	switch {
	case tpc.Kbps <= pp.Kbps || tpc.Kbps <= at.Kbps:
		return fmt.Errorf("table2: TPC channel (%.1f kbps) does not dominate baselines (%.1f, %.1f)",
			tpc.Kbps, pp.Kbps, at.Kbps)
	case multi.Kbps <= tpc.Kbps:
		return fmt.Errorf("table2: multi-TPC (%.1f) not above single TPC (%.1f)", multi.Kbps, tpc.Kbps)
	}
	for _, r := range rows {
		if multi.Kbps < r.Kbps {
			return fmt.Errorf("table2: %s (%.1f kbps) outruns the multi-TPC channel (%.1f)",
				r.Name, r.Kbps, multi.Kbps)
		}
	}
	return nil
}

package experiments

// Cross-GPU artifacts: the NVLink latency gap and the cross-GPU covert
// channel over an internal/mesh multi-GPU system (NVBleed / "Beyond the
// Bridge", PAPERS.md), run with this repo's Algorithm 2 protocol.

import (
	"fmt"

	"gpunoc/internal/config"
	"gpunoc/internal/core"
	"gpunoc/internal/device"
	"gpunoc/internal/mesh"
)

func init() {
	MustRegister(Experiment{
		ID: "nvlink-remote-vs-local", Order: 162,
		Title:   "Remote (cross-GPU) vs local memory latency over NVLink",
		Section: "beyond the paper (NVLink mesh)",
		Run:     NVLinkRemoteVsLocal,
		Check: func(cfg *config.Config, f *Figure) error {
			return CheckNVLinkRemoteVsLocal(cfg, f)
		},
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("mean latency (cycles)"); ok && len(s.Y) == 2 {
				m["local-cycles"] = s.Y[0]
				m["remote-cycles"] = s.Y[1]
			}
			return m
		},
	})
	MustRegister(Experiment{
		ID: "nvlink-channel", Order: 164,
		Title:   "Cross-GPU covert channel over a contended NVLink link",
		Section: "beyond the paper (NVLink mesh)",
		Run:     NVLinkChannelXfer,
		Check: func(_ *config.Config, f *Figure) error {
			return CheckNVLinkChannel(f)
		},
		Metrics: func(f *Figure) map[string]float64 {
			m := map[string]float64{}
			if s, ok := f.seriesByName("error rate"); ok && len(s.Y) > 0 {
				m["error-rate"] = s.Y[0]
			}
			if s, ok := f.seriesByName("bitrate (kbps)"); ok && len(s.Y) > 0 {
				m["kbps"] = s.Y[0]
			}
			return m
		},
	})
}

// meshGPUs resolves the configured mesh size: Config.MeshGPUs, defaulting to
// the smallest mesh with a remote link.
func meshGPUs(cfg *config.Config) int {
	if cfg.MeshGPUs > 1 {
		return cfg.MeshGPUs
	}
	return 2
}

// streamLatency runs a one-warp uncoalesced read streamer on device 0 of a
// fresh mesh against a window owned by device target, and returns the mean
// per-op latency plus the total flits the NVLink fabric carried.
func streamLatency(cfg *config.Config, n, target, count int) (float64, uint64, error) {
	m, err := mesh.New(*cfg, n)
	if err != nil {
		return 0, 0, err
	}
	const window = 8192
	base := mesh.DevBase(target) + 0x200000
	m.GPU(target).Preload(base, window)
	var progs []*device.Streamer
	spec := device.KernelSpec{
		Name:          fmt.Sprintf("nvlink-stream-d%d", target),
		Blocks:        1,
		WarpsPerBlock: 1,
		New: func(b, w int) device.Program {
			s := &device.Streamer{
				Base:        base,
				LineBytes:   cfg.L2LineBytes,
				Count:       count,
				Uncoalesced: true,
				WrapBytes:   window,
			}
			progs = append(progs, s)
			return s
		},
	}
	if _, err := m.GPU(0).Launch(spec); err != nil {
		return 0, 0, err
	}
	if err := m.RunKernels(100_000_000); err != nil {
		return 0, 0, err
	}
	var sum float64
	var ops int
	for _, s := range progs {
		for _, l := range s.Latencies {
			sum += float64(l)
			ops++
		}
	}
	if ops == 0 {
		return 0, 0, fmt.Errorf("experiments: streamer recorded no latencies")
	}
	var flits uint64
	for _, l := range m.Links() {
		flits += l.Stats().Flits
	}
	return sum / float64(ops), flits, nil
}

// NVLinkRemoteVsLocal measures the same read stream against device 0's own
// memory and against device 1's memory across the NVLink fabric — the
// remote-access latency gap every NVLink covert channel builds on.
func NVLinkRemoteVsLocal(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "nvlink-remote-vs-local",
		Title:  "Local vs remote (cross-GPU) read latency",
		Header: []string{"window", "mean latency (cycles)", "fabric flits"},
	}
	n := meshGPUs(cfg)
	count := opt.pick(64, 256)
	local, localFlits, err := streamLatency(cfg, n, 0, count)
	if err != nil {
		return nil, err
	}
	remote, remoteFlits, err := streamLatency(cfg, n, 1, count)
	if err != nil {
		return nil, err
	}
	f.Rows = append(f.Rows,
		[]string{"local (device 0)", fmt.Sprintf("%.1f", local), fmt.Sprintf("%d", localFlits)},
		[]string{"remote (device 1)", fmt.Sprintf("%.1f", remote), fmt.Sprintf("%d", remoteFlits)},
	)
	f.addSeries("mean latency (cycles)", []float64{0, 1}, []float64{local, remote})
	f.addSeries("fabric flits (local, remote)", []float64{0, 1},
		[]float64{float64(localFlits), float64(remoteFlits)})
	nv := cfg.NVLink.WithDefaults()
	f.note("remote - local gap: %.1f cycles (one-way hop latency %d)", remote-local, nv.HopLatency)
	return f, nil
}

// CheckNVLinkRemoteVsLocal asserts the gap: a remote access pays at least
// two NVLink hop traversals over a local one, local traffic never touches
// the fabric, and remote traffic does.
func CheckNVLinkRemoteVsLocal(cfg *config.Config, f *Figure) error {
	lat, ok := f.seriesByName("mean latency (cycles)")
	if !ok || len(lat.Y) != 2 {
		return fmt.Errorf("nvlink-remote-vs-local: missing latency series")
	}
	flits, ok := f.seriesByName("fabric flits (local, remote)")
	if !ok || len(flits.Y) != 2 {
		return fmt.Errorf("nvlink-remote-vs-local: missing flits series")
	}
	local, remote := lat.Y[0], lat.Y[1]
	nv := cfg.NVLink.WithDefaults()
	if gap := remote - local; gap < float64(2*nv.HopLatency) {
		return fmt.Errorf("nvlink-remote-vs-local: gap %.1f below the two-hop floor %d", gap, 2*nv.HopLatency)
	}
	if flits.Y[0] != 0 {
		return fmt.Errorf("nvlink-remote-vs-local: local run moved %.0f flits over the fabric", flits.Y[0])
	}
	if flits.Y[1] == 0 {
		return fmt.Errorf("nvlink-remote-vs-local: remote run moved no fabric flits")
	}
	return nil
}

// NVLinkChannelXfer calibrates the cross-GPU channel on a fresh mesh and
// transmits an alternating payload from device 0 to device 1, reporting the
// receiver's latency trace, the error rate, and the achieved bitrate.
func NVLinkChannelXfer(cfg *config.Config, opt Options) (*Figure, error) {
	f := &Figure{
		ID:     "nvlink-channel",
		Title:  "Cross-GPU covert channel over NVLink",
		XLabel: "bit sequence index",
		YLabel: "mean slot latency (cycles)",
	}
	n := meshGPUs(cfg)
	p := core.Params{
		Kind:       core.NVLinkChannel,
		Iterations: 4,
		SyncPeriod: 16,
		Seed:       opt.seed(),
	}
	p, err := core.CalibrateRemote(*cfg, n, 0, 1, p, 32)
	if err != nil {
		return nil, err
	}
	payload := core.AlternatingPayload(opt.pick(48, 160), 2)
	m, err := mesh.New(*cfg, n)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewNVLinkTransmission(m, 0, 1, payload, p)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run(0)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, st := range res.Pairs[0].Trace {
		xs = append(xs, float64(i+1))
		ys = append(ys, st.MeanLatency)
	}
	f.addSeries("receiver latency trace", xs, ys)
	f.addSeries("error rate", []float64{0}, []float64{res.ErrorRate})
	f.addSeries("bitrate (kbps)", []float64{0}, []float64{res.BitsPerSecond / 1e3})
	f.note("cross-GPU channel: %.2f kbps at %.3f error over %d symbols (threshold %.1f)",
		res.BitsPerSecond/1e3, res.ErrorRate, res.SymbolsSent, p.Threshold)
	return f, nil
}

// CheckNVLinkChannel asserts the channel carries data: nonzero capacity (a
// positive bitrate at an error rate far from coin-flipping) and a clean
// decode of the alternating payload.
func CheckNVLinkChannel(f *Figure) error {
	rate, ok := f.seriesByName("bitrate (kbps)")
	if !ok || len(rate.Y) == 0 || rate.Y[0] <= 0 {
		return fmt.Errorf("nvlink-channel: no positive bitrate")
	}
	errs, ok := f.seriesByName("error rate")
	if !ok || len(errs.Y) == 0 {
		return fmt.Errorf("nvlink-channel: missing error series")
	}
	if errs.Y[0] > 0.05 {
		return fmt.Errorf("nvlink-channel: error rate %.3f, want near zero", errs.Y[0])
	}
	trace, ok := f.seriesByName("receiver latency trace")
	if !ok || len(trace.Y) < 2 {
		return fmt.Errorf("nvlink-channel: missing latency trace")
	}
	return nil
}

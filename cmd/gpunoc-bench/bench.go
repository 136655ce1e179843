package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// host records where and on what a result was measured.
type host struct {
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GitHead    string  `json:"git_head"`
	GitDirty   bool    `json:"git_dirty"`
	BuildS     float64 `json:"build_s"`
}

func (h host) String() string {
	return fmt.Sprintf("go=%s cpu=%q nproc=%d gomaxprocs=%d git=%s dirty=%t build_s=%.2f",
		h.GoVersion, h.CPU, h.NProc, h.GOMAXPROCS, h.GitHead, h.GitDirty, h.BuildS)
}

// bench holds what every workload run shares: the options, the freshly built
// binaries and the host record.
type bench struct {
	opt     options
	ccbench string // path of the built ccbench binary
	server  string // path of the built gpunoc-server binary
	host    host
}

// newBench builds cmd/ccbench and cmd/gpunoc-server from the tree under test
// into the work directory (untimed, but recorded) and takes the host record.
func newBench(opt options) (*bench, error) {
	bin := filepath.Join(opt.work, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		opt:     opt,
		ccbench: filepath.Join(bin, "ccbench"),
		server:  filepath.Join(bin, "gpunoc-server"),
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ccbench", "./cmd/gpunoc-server")
	cmd.Dir = opt.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ccbench and gpunoc-server in %s: %v\n%s", opt.root, err, out)
	}
	b.host = host{
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitHead:    "unknown",
		BuildS:     time.Since(start).Seconds(),
	}
	if head, err := output(opt.root, "git", "rev-parse", "HEAD"); err == nil {
		b.host.GitHead = strings.TrimSpace(head)
		if st, err := output(opt.root, "git", "status", "--porcelain"); err == nil {
			b.host.GitDirty = strings.TrimSpace(st) != ""
		}
	}
	return b, nil
}

// output runs a command in dir and returns its standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	return stdout.String(), err
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run executes one workload: end-to-end metrics, or with tracing on the
// per-layer metrics of a traced run beside one end-to-end pass.
func (b *bench) run(w workload, p pins) (*result, error) {
	r := &result{
		Workload:  w.name,
		Seed:      b.opt.seed,
		SuiteSeed: suiteSeed(b.opt.seed, p.SuiteSeeds),
		Trace:     b.opt.trace,
		Host:      b.host,
		Samples:   map[string]int{},
	}
	if err := os.MkdirAll(b.opt.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(b.opt.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var t tally
	var values map[string]float64
	switch {
	case b.opt.trace:
		values, err = b.traced(w, p, r.SuiteSeed, tmp, &t)
		r.setMetrics(perLayerMetrics(), values)
	case w.server:
		values, err = b.serverE2E(w, p, r.SuiteSeed, tmp, &t, r)
		r.setMetrics(e2eMetrics, values)
	default:
		values, err = b.ccbenchE2E(w, p, r.SuiteSeed, tmp, &t, r)
		r.setMetrics(e2eMetrics, values)
	}
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
	return r, nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds any one child process, so a hung simulator fails the
// run instead of outliving it.
const childTimeout = 150 * time.Second

// setupRound is how many start-ups are timed at each sampling point. The
// points are spread over the run, so the setup_s median does not rest on
// one moment of host load.
const setupRound = 10

// ccPass is one ccbench child run.
type ccPass struct {
	wall, cpu, rssMB float64
	stdout           []byte
	stderr           string
	err              error             // exit error, if any
	files            map[string][]byte // -metrics and -telemetry outputs by name
}

// ccbenchArgs is the ccbench command line of workload w. obsDir receives the
// observer outputs of an observed workload.
func (w workload) ccbenchArgs(seed int64, obsDir string) []string {
	args := []string{
		"-config", w.config, "-scale", "quick", "-seed", strconv.FormatInt(seed, 10),
		"-parallel", strconv.Itoa(w.parallel), "-check",
	}
	if w.ids != nil {
		args = append(args, "-only", strings.Join(w.ids, ","))
	}
	if w.observed {
		args = append(args, "-metrics", filepath.Join(obsDir, "metrics"), "-telemetry", filepath.Join(obsDir, "telemetry"))
	}
	return args
}

// runChild runs bin with args, timing it from exec to exit. It returns the
// wall seconds and the finished process state (nil only when the process
// could not be started).
func runChild(bin string, args []string, stdout, stderr *bytes.Buffer) (float64, *os.ProcessState, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	start := time.Now()
	err := cmd.Run()
	return time.Since(start).Seconds(), cmd.ProcessState, err
}

// cpuSeconds is the user+system CPU time of a finished process.
func cpuSeconds(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMB is the maxrss of a finished process in MB (Linux reports KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// ccbenchPass runs workload w once in a fresh directory under tmp.
func (b *bench) ccbenchPass(w workload, seed int64, tmp string) (ccPass, error) {
	dir, err := os.MkdirTemp(tmp, "pass-")
	if err != nil {
		return ccPass{}, err
	}
	defer os.RemoveAll(dir)
	var stdout, stderr bytes.Buffer
	wall, ps, err := runChild(b.ccbench, w.ccbenchArgs(seed, dir), &stdout, &stderr)
	if ps == nil {
		return ccPass{}, fmt.Errorf("starting ccbench: %w", err)
	}
	p := ccPass{
		wall: wall, cpu: cpuSeconds(ps), rssMB: peakRSSMB(ps),
		stdout: stdout.Bytes(), stderr: stderr.String(), err: err,
	}
	if w.observed && p.err == nil {
		p.files = map[string][]byte{}
		for _, sub := range []string{"metrics", "telemetry"} {
			if err := readFiles(filepath.Join(dir, sub), p.files); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

// readFiles adds every regular file in dir to files, keyed by base name.
func readFiles(dir string, files map[string][]byte) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		files[e.Name()] = data
	}
	return nil
}

// observerDigests digests an observed workload's output files, split into
// the probe metrics and the telemetry streams.
func observerDigests(files map[string][]byte) (metrics, telemetry string) {
	m, t := map[string][]byte{}, map[string][]byte{}
	for name, data := range files {
		if strings.Contains(name, ".metrics.") {
			m[name] = data
		} else {
			t[name] = data
		}
	}
	return digestFiles(m), digestFiles(t)
}

// checkPass counts a pass's operations and failures: FAILED experiments, a
// non-zero exit, an unreadable Summary, output that differs from the first
// pass (ref) or from the pinned digests. It returns the parsed Summary.
func checkPass(t *tally, p pins, w workload, seed int64, pass, ref *ccPass) summary {
	n := len(w.experimentIDs())
	t.attempted += n
	var failedLines, whole []string
	for _, line := range strings.Split(string(pass.stdout), "\n") {
		if strings.HasPrefix(line, "FAILED ") {
			failedLines = append(failedLines, line)
		}
	}
	if pass.err != nil {
		whole = append(whole, fmt.Sprintf("ccbench %s: %v: %s",
			strings.Join(w.ccbenchArgs(seed, "DIR"), " "), pass.err, tail(pass.stderr, 400)))
	}
	sum, err := parseSummary(pass.stderr)
	if err != nil {
		whole = append(whole, fmt.Sprintf("ccbench Summary: %v", err))
	} else if sum.experiments != n {
		whole = append(whole, fmt.Sprintf("ccbench ran %d experiments, want %d", sum.experiments, n))
	}
	if ref == pass {
		whole = append(whole, digestMismatch(p, seed, w.name, "stdout", digest(pass.stdout))...)
		if w.observed {
			m, tel := observerDigests(pass.files)
			whole = append(whole, digestMismatch(p, seed, w.name, "metrics", m)...)
			whole = append(whole, digestMismatch(p, seed, w.name, "telemetry", tel)...)
		}
	} else {
		if !bytes.Equal(pass.stdout, ref.stdout) {
			whole = append(whole, "ccbench report differs between passes of the same seed")
		}
		if digestFiles(pass.files) != digestFiles(ref.files) {
			whole = append(whole, "observer outputs differ between passes of the same seed")
		}
	}
	bad := max(len(failedLines), sum.failed)
	if len(whole) > 0 {
		bad = n // the pass as a whole is wrong, so none of its experiments count
	}
	t.failed += min(bad, n)
	t.failures = append(append(t.failures, failedLines...), whole...)
	return sum
}

// ccbenchSetup times setupRound runs of `ccbench -list` (process start and
// registry init) and appends them to setup.
func (b *bench) ccbenchSetup(setup []float64) ([]float64, error) {
	for i := 0; i < setupRound; i++ {
		var stdout, stderr bytes.Buffer
		wall, _, err := runChild(b.ccbench, []string{"-list"}, &stdout, &stderr)
		if err != nil || !strings.Contains(stdout.String(), "table1") {
			return nil, fmt.Errorf("ccbench -list: %v: %s", err, tail(stderr.String(), 200))
		}
		setup = append(setup, wall)
	}
	return setup, nil
}

// ccbenchE2E measures a ccbench workload: one pass, then another as long as
// it should end within the measuring time (judged by the median pass so
// far), with setup samples before each pass and after the last. A slow host
// makes fewer passes rather than a longer run, which keeps the benchmark
// within its time budget.
func (b *bench) ccbenchE2E(w workload, p pins, seed int64, tmp string, t *tally, r *result) (map[string]float64, error) {
	var setup, walls, rates, rss []float64
	var first *ccPass
	var err error
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= b.opt.seconds {
		if setup, err = b.ccbenchSetup(setup); err != nil {
			return nil, err
		}
		pass, err := b.ccbenchPass(w, seed, tmp)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = &pass
		}
		sum := checkPass(t, p, w, seed, &pass, first)
		walls = append(walls, pass.wall)
		rss = append(rss, pass.rssMB)
		rates = append(rates, float64(sum.totalCycles)/pass.wall)
		r.Passes = append(r.Passes, passRecord{WallS: pass.wall, SimCycles: sum.totalCycles, PeakRSSMB: pass.rssMB})
	}
	if setup, err = b.ccbenchSetup(setup); err != nil {
		return nil, err
	}
	r.Samples["setup_s"] = len(setup)
	return map[string]float64{
		"setup_s":          median(setup),
		"wall_s":           median(walls),
		"sim_cycles_per_s": median(rates),
		"peak_rss_mb":      median(rss),
	}, nil
}

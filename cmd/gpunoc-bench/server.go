package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of closed-loop clients driving the server, and its
// -workers. One job at a time already runs two threads: the default config
// selects the sharded engine, which takes GOMAXPROCS workers. Two jobs at
// once would put four simulating threads on a 2-core host and time the
// scheduler instead of the server.
const clients = 1

// pollInterval is how often a client polls a queued or running job.
const pollInterval = 2 * time.Millisecond

// jobStatus mirrors the JSON body of gpunoc-server's job endpoints.
type jobStatus struct {
	Key    string `json:"key"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Cycles uint64 `json:"cycles"`
	Report string `json:"report"`
	Error  string `json:"error"`
}

// serverProc is a running gpunoc-server child.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait has returned
	stderr bytes.Buffer
}

// freePort reserves a loopback port by binding it and releasing it; the
// server reports only the address it was given, so the harness picks it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs gpunoc-server on a fresh cache directory and waits for
// its first 200 from /v1/healthz, returning the seconds that took.
func (b *bench) startServer(tmp string) (*serverProc, float64, error) {
	cache, err := os.MkdirTemp(tmp, "cache-")
	if err != nil {
		return nil, 0, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &serverProc{url: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(b.server, "-addr", addr, "-cache-dir", cache, "-workers", fmt.Sprint(clients))
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting gpunoc-server: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState in stop
		close(s.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 30*time.Second {
		resp, err := hc.Get(s.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("gpunoc-server exited during start-up: %s", tail(s.stderr.String(), 400))
		case <-time.After(time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("gpunoc-server did not answer /v1/healthz within 30s")
}

// stop kills the server, waits for it to exit, and returns its final state.
func (s *serverProc) stop() *os.ProcessState {
	_ = s.cmd.Process.Kill() // fails only if it already exited, which is fine
	<-s.exited
	return s.cmd.ProcessState
}

// jobTrace is what a client saw of one cold job.
type jobTrace struct {
	id                            string
	submitted, submitEnd, running time.Time // running: first poll showing it running
	done                          time.Time
	cycles                        uint64
	report                        string
	polls                         []time.Duration
}

// jobRun is the outcome of driving the server through both phases.
type jobRun struct {
	coldWall  float64
	cycles    uint64
	reports   map[string]string // cold report by experiment id
	jobs      []jobTrace
	warm      []float64 // warm POST latencies in ms
	attempted int
}

// jobClients are the closed-loop clients that drive a server.
type jobClients struct {
	url   string
	seed  int64
	ids   []string
	hc    *http.Client
	spans *spanLog // nil when not tracing

	mu sync.Mutex
	t  *tally
}

func newJobClients(url string, seed int64, ids []string, t *tally, spans *spanLog) *jobClients {
	return &jobClients{
		url: url, seed: seed, ids: ids, spans: spans, t: t,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		},
	}
}

func (d *jobClients) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.t.fail(1, format, args...)
}

// post submits experiment id and decodes the answer.
func (d *jobClients) post(id string) (int, jobStatus, error) {
	body := fmt.Sprintf(`{"config":"small","seed":%d,"experiment":%q,"scale":"quick"}`, d.seed, id)
	resp, err := d.hc.Post(d.url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("decoding job status: %w", err)
	}
	return resp.StatusCode, st, nil
}

// poll fetches a job's status.
func (d *jobClients) poll(key string) (jobStatus, error) {
	resp, err := d.hc.Get(d.url + "/v1/jobs/" + key)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding job status: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("poll %s: HTTP %d", key, resp.StatusCode)
	}
	return st, nil
}

// coldJob submits one experiment and polls it to completion. A job that
// fails is returned with an empty report.
func (d *jobClients) coldJob(id string, parent int) jobTrace {
	jt := jobTrace{id: id}
	jobSpan := d.spans.start("job/"+id, parent)
	defer d.spans.end(jobSpan)

	s := d.spans.start("submit", jobSpan)
	jt.submitted = time.Now()
	code, st, err := d.post(id)
	jt.submitEnd = time.Now()
	d.spans.end(s)
	if err != nil || code/100 != 2 {
		d.fail("cold POST %s: HTTP %d: %v", id, code, err)
		return jt
	}
	phase := d.spans.start("queued", jobSpan)
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollInterval)
		t0 := time.Now()
		st, err = d.poll(st.Key)
		jt.polls = append(jt.polls, time.Since(t0))
		if err != nil {
			d.spans.end(phase)
			d.fail("cold job %s: %v", id, err)
			return jt
		}
		if st.State != "queued" && jt.running.IsZero() {
			jt.running = time.Now()
			d.spans.end(phase)
			phase = d.spans.start("running", jobSpan)
		}
	}
	jt.done = time.Now()
	d.spans.end(phase)
	if jt.running.IsZero() {
		jt.running = jt.done
	}
	if st.State != "done" {
		d.fail("cold job %s ended %s: %s", id, st.State, st.Error)
		return jt
	}
	jt.cycles, jt.report = st.Cycles, st.Report
	return jt
}

// minWarm is the shortest warm phase (unless the whole measuring time is
// shorter), so the hit rate rests on seconds of requests even when the cold
// phase outlasts the measuring time.
const minWarm = 5 * time.Second

// run drives the cold phase (every id once, shared among the clients) and
// then the warm phase (ids resubmitted round-robin) until measure has passed
// since the cold phase began, for at least min(minWarm, measure).
func (d *jobClients) run(measure time.Duration) jobRun {
	out := jobRun{reports: map[string]string{}, jobs: make([]jobTrace, len(d.ids))}

	coldSpan := d.spans.start("cold", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(d.ids); i = int(next.Add(1) - 1) {
				out.jobs[i] = d.coldJob(d.ids[i], coldSpan)
			}
		}()
	}
	wg.Wait()
	out.coldWall = time.Since(start).Seconds()
	d.spans.end(coldSpan)
	for _, jt := range out.jobs {
		out.cycles += jt.cycles
		out.reports[jt.id] = jt.report
	}
	out.attempted = len(d.ids)

	warmSpan := d.spans.start("warm", 0)
	lat := make([][]float64, clients)
	var attempted atomic.Int64
	next.Store(0)
	deadline := start.Add(max(measure, time.Since(start)+min(minWarm, measure)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := d.ids[int(next.Add(1)-1)%len(d.ids)]
				attempted.Add(1)
				s := d.spans.start("hit/"+id, warmSpan)
				t0 := time.Now()
				code, st, err := d.post(id)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				d.spans.end(s)
				switch {
				case err != nil || code != http.StatusOK:
					d.fail("warm POST %s: HTTP %d: %v", id, code, err)
				case !st.Cached || st.State != "done":
					d.fail("warm POST %s: state %s cached=%t, want a cache hit", id, st.State, st.Cached)
				case st.Report != out.reports[id]:
					d.fail("warm report of %s differs from its cold report", id)
				default:
					lat[c] = append(lat[c], ms)
				}
			}
		}(c)
	}
	wg.Wait()
	d.spans.end(warmSpan)
	for _, l := range lat {
		out.warm = append(out.warm, l...)
	}
	out.attempted += int(attempted.Load())
	d.hc.CloseIdleConnections()
	return out
}

// coldReports concatenates the cold reports in id order, the form the
// server-jobs digest is pinned over.
func (r jobRun) coldReports(ids []string) []byte {
	var b bytes.Buffer
	for _, id := range ids {
		b.WriteString(r.reports[id])
	}
	return b.Bytes()
}

// serverSetup times setupRound server start-ups, each on a fresh cache, and
// appends them to setup.
func (b *bench) serverSetup(tmp string, setup []float64) ([]float64, error) {
	for i := 0; i < setupRound; i++ {
		s, secs, err := b.startServer(tmp)
		if err != nil {
			return nil, err
		}
		s.stop()
		setup = append(setup, secs)
	}
	return setup, nil
}

// serverRun execs the server and drives both phases, returning the run and
// the server's final process state.
func (b *bench) serverRun(w workload, seed int64, tmp string, t *tally) (jobRun, *os.ProcessState, error) {
	s, _, err := b.startServer(tmp)
	if err != nil {
		return jobRun{}, nil, err
	}
	d := newJobClients(s.url, seed, w.experimentIDs(), t, nil)
	run := d.run(time.Duration(b.opt.seconds * float64(time.Second)))
	ps := s.stop()
	return run, ps, nil
}

// checkJobs counts the run's operations and compares the cold reports with
// the pinned digest.
func checkJobs(t *tally, p pins, w workload, seed int64, run jobRun) {
	t.attempted += run.attempted
	ids := w.experimentIDs()
	if bad := digestMismatch(p, seed, w.name, "cold_reports", digest(run.coldReports(ids))); bad != nil {
		t.fail(len(ids), "%s", bad[0])
	}
}

// serverE2E measures the server workload: one server through the cold and
// warm phases, with start-up samples before and after it.
func (b *bench) serverE2E(w workload, p pins, seed int64, tmp string, t *tally, r *result) (map[string]float64, error) {
	setup, err := b.serverSetup(tmp, nil)
	if err != nil {
		return nil, err
	}
	run, ps, err := b.serverRun(w, seed, tmp, t)
	if err != nil {
		return nil, err
	}
	if setup, err = b.serverSetup(tmp, setup); err != nil {
		return nil, err
	}
	checkJobs(t, p, w, seed, run)
	rss := peakRSSMB(ps)
	r.Passes = []passRecord{{WallS: run.coldWall, SimCycles: run.cycles, PeakRSSMB: rss}}
	r.Samples["setup_s"] = len(setup)
	r.Samples["warm_hits"] = len(run.warm)
	return map[string]float64{
		"setup_s":          median(setup),
		"wall_s":           run.coldWall,
		"sim_cycles_per_s": float64(run.cycles) / run.coldWall,
		"peak_rss_mb":      rss,
	}, nil
}

// Package server exposes the experiment harness as a simulation-as-a-service
// HTTP API: clients POST jobs — (config, seed, experiment, scale, observer
// flags) — and a bounded worker pool runs them through the same
// experiments.Runner the ccbench CLI uses, with results content-addressed in
// the same on-disk cache. A job whose key is already cached is answered
// synchronously without simulating; concurrent submissions of the same key
// coalesce onto one queued job. The package deliberately reads no wall
// clocks and no environment — job identity and results are pure functions of
// the request, so the service inherits the simulator's determinism: two
// servers given the same job produce byte-identical reports.
//
// # API
//
//	POST /v1/jobs     submit a job; 200 with the finished status when the
//	                  result is already cached, 202 with the queued/running
//	                  status otherwise (resubmission is idempotent); 400 for
//	                  a malformed request, 413 for a body over MaxRequestBytes,
//	                  503 when the job queue is full
//	GET  /v1/jobs/{key}  poll a job by cache key id
//	GET  /v1/healthz  liveness probe
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"gpunoc/internal/config"
	"gpunoc/internal/experiments"
)

// MaxRequestBytes bounds a POST /v1/jobs body. A valid JobRequest is a few
// hundred bytes; anything larger is rejected with 413 before decoding ends.
const MaxRequestBytes = 64 << 10

// queueDepth is the number of submitted jobs that may wait for a worker.
// Once it is reached, new submissions are answered 503 instead of blocking.
const queueDepth = 1024

// JobRequest is the POST /v1/jobs body. Every field is part of the cache
// key, so two requests with equal fields name the same result.
type JobRequest struct {
	// Config names the base configuration: "small" or "volta" (or any name
	// in the server's config table).
	Config string `json:"config"`
	// Seed is the suite seed; 0 means the harness default of 1.
	Seed int64 `json:"seed"`
	// Experiment is the registry id ("fig2", "table2", ...).
	Experiment string `json:"experiment"`
	// Scale is "quick" (default) or "full".
	Scale string `json:"scale"`
	// Metrics and Telemetry select the observer streams to collect.
	Metrics   bool `json:"metrics"`
	Telemetry bool `json:"telemetry"`
}

// JobStatus is the response body for both endpoints.
type JobStatus struct {
	// Key is the job's cache key id — the handle GET /v1/jobs/{key} polls.
	Key string `json:"key"`
	// State is "queued", "running", "done", or "failed".
	State string `json:"state"`
	// Cached reports that the result was served from the cache without
	// simulating (set on cache-hit submissions).
	Cached bool `json:"cached"`
	// Cycles is the simulated-cycle count: live progress while running,
	// the final total when done.
	Cycles uint64 `json:"cycles"`
	// Report is the experiment's rendered figure (done jobs only).
	Report string `json:"report,omitempty"`
	// Error is the failure message (failed jobs only).
	Error string `json:"error,omitempty"`
}

// job is the server-side state of one submitted key.
type job struct {
	req    JobRequest
	key    experiments.CacheKey
	state  string
	meter  *config.CycleMeter
	cycles uint64
	report string
	errMsg string
}

// status renders the job's externally visible state. Caller holds s.mu.
func (j *job) status() JobStatus {
	st := JobStatus{Key: j.key.ID(), State: j.state, Cycles: j.cycles}
	if j.state == "running" && j.meter != nil {
		st.Cycles = j.meter.Load()
	}
	switch j.state {
	case "done":
		st.Report = j.report
	case "failed":
		st.Error = j.errMsg
	}
	return st
}

// Config describes a Server under construction.
type Config struct {
	// Cache is the shared result cache; required (the server exists to
	// serve from it).
	Cache *experiments.Cache
	// Workers bounds the simulation pool; values < 1 mean 1.
	Workers int
	// Configs maps request config names to base configurations; nil means
	// the built-in {"small", "volta"} table.
	Configs map[string]func() config.Config
	// Registry supplies the experiments; nil means the package default.
	Registry *experiments.Registry
}

// Server is the simulation service: an HTTP handler plus a worker pool.
// Build with New, install Handler on any mux or httptest server, and Close
// when done.
type Server struct {
	cache    *experiments.Cache
	configs  map[string]func() config.Config
	registry *experiments.Registry

	mu   sync.Mutex
	jobs map[string]*job // by cache key id

	queue chan *job
	done  chan struct{} // closed by Close: workers start no further job
	wg    sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(c Config) (*Server, error) {
	if c.Cache == nil || c.Cache.Dir == "" {
		return nil, fmt.Errorf("server: a cache directory is required")
	}
	workers := c.Workers
	if workers < 1 {
		workers = 1
	}
	cfgs := c.Configs
	if cfgs == nil {
		cfgs = map[string]func() config.Config{
			"small": config.Small,
			"volta": config.Volta,
		}
	}
	s := &Server{
		cache:    c.Cache,
		configs:  cfgs,
		registry: c.Registry,
		jobs:     map[string]*job{},
		queue:    make(chan *job, queueDepth),
		done:     make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close lets the running jobs finish and drops the queued ones, which never
// start; they were never cached, so resubmitting one queues it again. The
// handler must not be invoked after Close.
func (s *Server) Close() {
	close(s.done)
	s.wg.Wait()
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handlePoll)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// options converts a validated request into harness options.
func options(req *JobRequest) experiments.Options {
	opt := experiments.Options{
		Seed:      req.Seed,
		Metrics:   req.Metrics,
		Telemetry: req.Telemetry,
	}
	if req.Scale == "full" {
		opt.Scale = experiments.Full
	}
	return opt
}

// validate normalizes req and resolves its base configuration, answering
// the request's cache key.
func (s *Server) validate(req *JobRequest) (config.Config, experiments.CacheKey, error) {
	mk, ok := s.configs[req.Config]
	if !ok {
		var names []string
		for name := range s.configs {
			names = append(names, name)
		}
		sort.Strings(names)
		return config.Config{}, experiments.CacheKey{},
			fmt.Errorf("unknown config %q (known: %s)", req.Config, strings.Join(names, ", "))
	}
	reg := s.registry
	if reg == nil {
		if _, ok := experiments.Lookup(req.Experiment); !ok {
			return config.Config{}, experiments.CacheKey{}, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
	} else if _, ok := reg.Get(req.Experiment); !ok {
		return config.Config{}, experiments.CacheKey{}, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	switch req.Scale {
	case "", "quick":
		req.Scale = "quick"
	case "full":
	default:
		return config.Config{}, experiments.CacheKey{}, fmt.Errorf("unknown scale %q (want quick or full)", req.Scale)
	}
	cfg := mk()
	key := experiments.NewCacheKey(&cfg, req.Config, options(req), req.Experiment)
	return cfg, key, nil
}

// handleSubmit serves POST /v1/jobs: cache hits answer 200 synchronously,
// anything else coalesces onto a queued job and answers 202, or 503 when
// the queue has no room for a new job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Sprintf("decoding job: %v", err))
		return
	}
	_, key, err := s.validate(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if ent, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, JobStatus{
			Key:    key.ID(),
			State:  "done",
			Cached: true,
			Cycles: ent.Cycles,
			Report: renderEntry(ent),
		})
		return
	}
	s.mu.Lock()
	j, exists := s.jobs[key.ID()]
	if !exists || j.state == "failed" {
		// Failed results are never cached, so a resubmission retries. The
		// send must not block: workers need s.mu to publish progress, so
		// waiting for queue room here would stall the whole service.
		next := &job{req: req, key: key, state: "queued"}
		select {
		case s.queue <- next:
			j = next
			s.jobs[key.ID()] = j
		default:
			s.mu.Unlock()
			httpError(w, http.StatusServiceUnavailable, "job queue is full; retry later")
			return
		}
	}
	st := j.status()
	s.mu.Unlock()
	code := http.StatusAccepted
	if st.State == "done" {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handlePoll serves GET /v1/jobs/{key}.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// worker drains the queue, simulating one job at a time, until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case j := <-s.queue:
			// select picks among ready cases at random, so a job taken
			// after Close must still be dropped here.
			select {
			case <-s.done:
				return
			default:
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job through the shared Runner and publishes the
// outcome. The Runner itself writes the cache entry on success, so the next
// submission of the same key is a synchronous hit.
func (s *Server) runJob(j *job) {
	cfg, _, err := s.validate(&j.req)
	if err != nil {
		// Validated at submission; a failure here means the server's
		// tables changed underneath the queue.
		s.finishJob(j, 0, "", fmt.Sprintf("revalidating job: %v", err))
		return
	}
	runner := experiments.Runner{
		Registry:   s.registry,
		Parallel:   1,
		Options:    options(&j.req),
		Cache:      s.cache,
		ConfigName: j.req.Config,
		OnMeter: func(id string, meter *config.CycleMeter) {
			s.mu.Lock()
			j.state = "running"
			j.meter = meter
			s.mu.Unlock()
		},
	}
	results, err := runner.Run(&cfg, []string{j.req.Experiment})
	if err != nil {
		s.finishJob(j, 0, "", err.Error())
		return
	}
	res := results[0]
	if res.Err != nil {
		s.finishJob(j, res.Cycles, "", res.Err.Error())
		return
	}
	s.finishJob(j, res.Cycles, experiments.Report(results), "")
}

// finishJob publishes a job's terminal state.
func (s *Server) finishJob(j *job, cycles uint64, report, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cycles = cycles
	j.meter = nil
	if errMsg != "" {
		j.state = "failed"
		j.errMsg = errMsg
		return
	}
	j.state = "done"
	j.report = report
}

// renderEntry renders a cached entry the way Report renders a live result,
// so cached and fresh responses are byte-identical.
func renderEntry(ent *experiments.Entry) string {
	return ent.Figure.Render() + "\n"
}

// httpError writes a JSON error body with the given status code.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON writes v as the response body with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// Encoding a JobStatus cannot fail; the write itself may, but the
	// status line is already out.
	_ = enc.Encode(v)
}

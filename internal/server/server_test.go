package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunoc/internal/config"
	"gpunoc/internal/experiments"
)

// testHarness is one server under httptest plus a call counter proving
// whether a submission actually simulated.
type testHarness struct {
	srv   *Server
	http  *httptest.Server
	calls *atomic.Int64
}

// newHarness builds a server over a fake one-experiment registry whose run
// function counts invocations.
func newHarness(t testing.TB, fail bool) *testHarness {
	t.Helper()
	var calls atomic.Int64
	reg := experiments.NewRegistry()
	reg.MustRegister(experiments.Experiment{
		ID: "probe-exp", Order: 0, Title: "fake", Section: "test",
		Run: func(cfg *config.Config, opt experiments.Options) (*experiments.Figure, error) {
			calls.Add(1)
			if fail {
				return nil, fmt.Errorf("deliberate failure")
			}
			cfg.Meter.Add(250)
			return &experiments.Figure{
				ID: "probe-exp", Title: "fake",
				Header: []string{"seed"},
				Rows:   [][]string{{fmt.Sprintf("%d", opt.Seed)}},
			}, nil
		},
	})
	s, err := New(Config{
		Cache:    &experiments.Cache{Dir: t.TempDir()},
		Workers:  2,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return &testHarness{srv: s, http: hs, calls: &calls}
}

// submit POSTs a job and decodes the status.
func (h *testHarness) submit(t *testing.T, req JobRequest) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(h.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return st, resp.StatusCode
}

// poll GETs a job status by key until it reaches a terminal state.
func (h *testHarness) poll(t *testing.T, key string) JobStatus {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		resp, err := http.Get(h.http.URL + "/v1/jobs/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
	}
	t.Fatal("job did not finish")
	return JobStatus{}
}

// TestServerServesRepeatedJobFromCache is the acceptance test: the second
// submission of an identical job must be a synchronous cache hit — 200,
// cached:true, identical report — without simulating again.
func TestServerServesRepeatedJobFromCache(t *testing.T) {
	h := newHarness(t, false)
	req := JobRequest{Config: "small", Seed: 5, Experiment: "probe-exp"}

	st, code := h.submit(t, req)
	if code != http.StatusAccepted {
		t.Fatalf("cold submission: status %d, want 202", code)
	}
	if st.Cached {
		t.Fatal("cold submission marked cached")
	}
	final := h.poll(t, st.Key)
	if final.State != "done" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if h.calls.Load() != 1 {
		t.Fatalf("cold job simulated %d times, want 1", h.calls.Load())
	}
	if final.Report == "" || final.Cycles != 250 {
		t.Fatalf("unexpected final status: %+v", final)
	}

	warm, code := h.submit(t, req)
	if code != http.StatusOK {
		t.Fatalf("warm submission: status %d, want 200", code)
	}
	if !warm.Cached || warm.State != "done" {
		t.Fatalf("warm submission not a cache hit: %+v", warm)
	}
	if warm.Report != final.Report {
		t.Fatalf("cached report differs:\ncached: %q\nlive:   %q", warm.Report, final.Report)
	}
	if warm.Cycles != final.Cycles {
		t.Fatalf("cached cycles %d, live %d", warm.Cycles, final.Cycles)
	}
	if h.calls.Load() != 1 {
		t.Fatalf("warm submission re-simulated: %d executions", h.calls.Load())
	}

	// A different seed is a different key: it must queue, not hit.
	req.Seed = 6
	st2, code := h.submit(t, req)
	if code != http.StatusAccepted || st2.Key == st.Key {
		t.Fatalf("seed change served from cache: code %d key %s", code, st2.Key)
	}
	if h.poll(t, st2.Key).State != "done" {
		t.Fatal("second job did not finish")
	}
	if h.calls.Load() != 2 {
		t.Fatalf("seed change executed %d total, want 2", h.calls.Load())
	}
}

// TestServerCoalescesConcurrentSubmissions pins the dedupe: resubmitting a
// key already queued or running returns the same job, never a second one.
func TestServerCoalescesConcurrentSubmissions(t *testing.T) {
	h := newHarness(t, false)
	req := JobRequest{Config: "small", Seed: 7, Experiment: "probe-exp"}
	a, _ := h.submit(t, req)
	b, _ := h.submit(t, req)
	if a.Key != b.Key {
		t.Fatalf("same request got two jobs: %s vs %s", a.Key, b.Key)
	}
	h.poll(t, a.Key)
	if n := h.calls.Load(); n != 1 {
		t.Fatalf("coalesced job simulated %d times, want 1", n)
	}
}

// TestServerFailedJobsAreRetriable pins that failures are never cached: a
// failed job reports its error, and resubmission runs again.
func TestServerFailedJobsAreRetriable(t *testing.T) {
	h := newHarness(t, true)
	req := JobRequest{Config: "small", Seed: 5, Experiment: "probe-exp"}
	st, _ := h.submit(t, req)
	final := h.poll(t, st.Key)
	if final.State != "failed" || final.Error == "" {
		t.Fatalf("want failed state with error, got %+v", final)
	}
	st2, code := h.submit(t, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmission of failed job: status %d, want 202", code)
	}
	if h.poll(t, st2.Key).State != "failed" {
		t.Fatal("retried job did not run")
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("failed job ran %d times across two submissions, want 2", n)
	}
}

// TestServerRejectsBadRequests pins the 4xx answers: unknown config, unknown
// experiment, bad scale, and undecodable bodies fail fast with 400, and a
// body over MaxRequestBytes with 413.
func TestServerRejectsBadRequests(t *testing.T) {
	h := newHarness(t, false)
	cases := []JobRequest{
		{Config: "nope", Experiment: "probe-exp"},
		{Config: "small", Experiment: "nope"},
		{Config: "small", Experiment: "probe-exp", Scale: "huge"},
	}
	for _, req := range cases {
		if _, code := h.submit(t, req); code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, code)
		}
	}
	resp, err := http.Post(h.http.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", resp.StatusCode)
	}
	huge := `{"config":"` + strings.Repeat("x", MaxRequestBytes) + `"}`
	resp, err = http.Post(h.http.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	resp, err = http.Get(h.http.URL + "/v1/jobs/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServerHealthz pins the liveness endpoint.
func TestServerHealthz(t *testing.T) {
	h := newHarness(t, false)
	resp, err := http.Get(h.http.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}
	var body map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body["ok"] {
		t.Fatalf("healthz body %v", body)
	}
}

// TestServerRequiresCache pins the constructor contract.
func TestServerRequiresCache(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil cache accepted")
	}
	if _, err := New(Config{Cache: &experiments.Cache{}}); err == nil {
		t.Fatal("empty cache dir accepted")
	}
}

// serveJSON drives one request through handler h in-process and decodes a
// JobStatus from the response body when there is one.
func serveJSON(h http.Handler, method, target string, body []byte) (JobStatus, int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	var st JobStatus
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	return st, rec.Code
}

// TestServerFullQueueAnswers503 pins the overload path: with the only
// worker held inside a running job and every queue slot taken, a new
// submission must be refused with 503 at once. Blocking instead would hold
// the server lock, which the worker needs to finish its job, and hang the
// whole service.
// blockingRegistry registers "block-exp", an experiment that counts its
// runs, signals started as it begins, and then blocks until release closes.
func blockingRegistry(started chan<- struct{}, release <-chan struct{}, runs *atomic.Int64) *experiments.Registry {
	reg := experiments.NewRegistry()
	reg.MustRegister(experiments.Experiment{
		ID: "block-exp", Title: "blocks until released", Section: "test",
		Run: func(cfg *config.Config, opt experiments.Options) (*experiments.Figure, error) {
			runs.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return &experiments.Figure{
				ID: "block-exp", Title: "released",
				Header: []string{"seed"},
				Rows:   [][]string{{fmt.Sprintf("%d", opt.Seed)}},
			}, nil
		},
	})
	return reg
}

func TestServerFullQueueAnswers503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	reg := blockingRegistry(started, release, new(atomic.Int64))
	s, err := New(Config{Cache: &experiments.Cache{Dir: t.TempDir()}, Workers: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	h := s.Handler()
	submit := func(seed int64) (JobStatus, int) {
		body, _ := json.Marshal(JobRequest{Config: "small", Seed: seed, Experiment: "block-exp"})
		return serveJSON(h, http.MethodPost, "/v1/jobs", body)
	}
	waitDone := func(key string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := serveJSON(h, http.MethodGet, "/v1/jobs/"+key, nil); st.State == "done" {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s did not reach done", key)
	}

	running, code := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never started the first job")
	}
	var queued []JobStatus
	for seed := int64(2); seed < 2+queueDepth; seed++ {
		st, code := submit(seed)
		if code != http.StatusAccepted {
			t.Fatalf("filling the queue, seed %d: status %d, want 202", seed, code)
		}
		queued = append(queued, st)
	}

	rejected := int64(2 + queueDepth)
	answered := make(chan int, 1)
	go func() {
		_, code := submit(rejected)
		answered <- code
	}()
	select {
	case code := <-answered:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("submission to a full queue: status %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		// The server is wedged; leave it running rather than close a
		// channel a blocked handler is sending on.
		t.Fatal("submission to a full queue blocked for 5 s instead of answering 503")
	}

	unblock()
	waitDone(running.Key)
	// Once the second job is done the worker has taken two jobs off the
	// queue, so there is room again.
	waitDone(queued[0].Key)
	if _, code := submit(rejected); code != http.StatusAccepted {
		t.Fatalf("resubmitting the rejected key: status %d, want 202", code)
	}
	s.Close()
}

// TestServerCloseFinishesRunningAndDropsQueued pins Close's contract: it
// returns only once the running job has finished, and no queued job starts.
func TestServerCloseFinishesRunningAndDropsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var runs atomic.Int64
	reg := blockingRegistry(started, release, &runs)
	s, err := New(Config{Cache: &experiments.Cache{Dir: t.TempDir()}, Workers: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	h := s.Handler()
	var keys []string
	for seed := int64(1); seed <= 4; seed++ {
		body, _ := json.Marshal(JobRequest{Config: "small", Seed: seed, Experiment: "block-exp"})
		st, code := serveJSON(h, http.MethodPost, "/v1/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", seed, code)
		}
		keys = append(keys, st.Key)
		if seed == 1 {
			select {
			case <-started:
			case <-time.After(30 * time.Second):
				t.Fatal("the worker never started the first job")
			}
		}
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after the running job finished")
	}

	if n := runs.Load(); n != 1 {
		t.Fatalf("%d jobs ran, want only the one running at Close", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.jobs[keys[0]].state; st != "done" {
		t.Errorf("running job ended %q, want done", st)
	}
	for _, key := range keys[1:] {
		if st := s.jobs[key].state; st != "queued" {
			t.Errorf("queued job %s ended %q, want it dropped while queued", key, st)
		}
	}
}

// FuzzSubmitJob feeds arbitrary bodies to POST /v1/jobs. Whatever the
// bytes, the handler must answer one of the documented statuses without
// panicking, and an accepted job must come back with its cache key.
func FuzzSubmitJob(f *testing.F) {
	for _, body := range []string{
		`{"config":"small","seed":5,"experiment":"probe-exp","scale":"quick"}`,
		`{"config":"volta","seed":-3,"experiment":"probe-exp","scale":"full","metrics":true,"telemetry":true}`,
		`{"config":"small","experiment":"probe-exp"} {"trailing":1}`,
		`{"config":"nope","experiment":"probe-exp"}`,
		`{"config":"small","experiment":"nope"}`,
		`{"config":"small","experiment":"probe-exp","scale":"huge"}`,
		`{"seed":"five"}`,
		`{`,
		`null`,
		`[]`,
		``,
		`{"config":"` + strings.Repeat("x", MaxRequestBytes) + `"}`,
	} {
		f.Add([]byte(body))
	}
	h := newHarness(f, false).srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		st, code := serveJSON(h, http.MethodPost, "/v1/jobs", body)
		switch code {
		case http.StatusOK, http.StatusAccepted:
			if st.Key == "" {
				t.Fatalf("status %d without a job key for body %q", code, body)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
	})
}

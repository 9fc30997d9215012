package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// newTestServer builds a Server plus an httptest frontend. mutate runs
// after construction so tests can swap the sim hook.
func newTestServer(t *testing.T, cfg Config, mutate func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func simulateBody(t *testing.T, extra string) string {
	t.Helper()
	body := `{"machine":"BDW","workload":{"profile":"mcf","uops":5000}` + extra + `}`
	return body
}

func post(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheHitByteIdentical: two identical requests produce byte-identical
// bodies and exactly one simulation; the second is a declared cache hit.
func TestCacheHitByteIdentical(t *testing.T) {
	var sims atomic.Int32
	_, ts := newTestServer(t, Config{}, func(s *Server) {
		inner := s.runSim
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims.Add(1)
			return inner(m, tr, opts)
		}
	})

	r1 := post(t, ts, simulateBody(t, ""))
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}

	r2 := post(t, ts, simulateBody(t, ""))
	b2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical requests returned different bodies")
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("ran %d simulations, want 1", got)
	}
	if r1.Header.Get("X-Result-Key") != r2.Header.Get("X-Result-Key") {
		t.Fatal("identical requests got different keys")
	}

	// The body decodes as a versioned result for the right workload.
	res, wl, err := export.DecodeResult(b1)
	if err != nil {
		t.Fatal(err)
	}
	if wl != "mcf" || res.Stacks == nil || res.Stats.Committed == 0 {
		t.Fatalf("implausible result: workload %q, stacks %v", wl, res.Stacks)
	}
}

// TestRequestPresentationInvariance: spelling out defaults or reordering
// fields must not split the cache key.
func TestRequestPresentationInvariance(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	bodies := []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000}}`,
		`{"workload":{"uops":5000,"profile":"mcf"},"machine":"BDW"}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"scheme":"oracle","wrongpath":"none","stacks":["cpi"]}`,
	}
	var key string
	for i, body := range bodies {
		resp := post(t, ts, body)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
		k := resp.Header.Get("X-Result-Key")
		if i == 0 {
			key = k
		} else if k != key {
			t.Fatalf("request %d: key %s, want %s", i, k, key)
		}
	}
}

// TestKeySensitivity: any semantic difference must produce a distinct key.
func TestKeySensitivity(t *testing.T) {
	s, _ := newTestServer(t, Config{}, nil)
	base := Request{Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}}
	keyOf := func(req Request) string {
		t.Helper()
		p, err := s.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		return p.key.String()
	}
	k0 := keyOf(base)
	perturb := map[string]Request{
		"machine":   {Machine: "SKX", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}},
		"profile":   {Machine: "BDW", Workload: &WorkloadSpec{Profile: "lbm", Uops: 5000}},
		"uops":      {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5001}},
		"warmup":    {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}, Warmup: 1},
		"scheme":    {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}, Scheme: "simple"},
		"wrongpath": {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}, WrongPath: "synth"},
		"stacks":    {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}, Stacks: []string{"cpi", "flops"}},
		"idealize":  {Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}, Idealize: &IdealizeSpec{PerfectBpred: true}},
	}
	seen := map[string]string{k0: "base"}
	for name, req := range perturb {
		k := keyOf(req)
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbation %q collides with %q", name, prev)
		}
		seen[k] = name
	}

	// A schema version change invalidates every key even for identical
	// inputs: the version string is one of the key's hashed parts.
	m, err := config.ByName("BDW")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sim.CanonicalMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := sim.CanonicalOptions(sim.Options{CPI: true})
	if err != nil {
		t.Fatal(err)
	}
	tid := []byte("trace")
	cur := resultcache.KeyOf(mb, ob, tid, []byte(sim.SchemaVersion))
	next := resultcache.KeyOf(mb, ob, tid, []byte(sim.SchemaVersion+".1"))
	if cur == next {
		t.Fatal("schema version bump did not change the key")
	}
}

// TestSingleflightCollapsesConcurrentRequests: many concurrent identical
// requests run one simulation and all receive the same bytes.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	var sims atomic.Int32
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2}, func(s *Server) {
		inner := s.runSim
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims.Add(1)
			<-release
			return inner(m, tr, opts)
		}
	})

	// The key every client will share, for waiter-count synchronization.
	var req Request
	if err := json.Unmarshal([]byte(simulateBody(t, "")), &req); err != nil {
		t.Fatal(err)
	}
	p, err := s.resolve(&req)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	bodiesCh := make(chan []byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts, simulateBody(t, ""))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
			bodiesCh <- readAll(t, resp)
		}()
	}
	// Release only once every client has coalesced onto the one flight, so
	// the probe counter proves collapse rather than lucky timing.
	deadline := time.Now().Add(10 * time.Second)
	for s.group.Waiters(p.key) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients coalesced", s.group.Waiters(p.key), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(bodiesCh)

	var first []byte
	for b := range bodiesCh {
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatal("concurrent identical requests returned different bodies")
		}
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("ran %d simulations for %d concurrent identical requests", got, n)
	}
}

// TestLoadShedding: with one worker and one queue slot both occupied by
// blocked simulations, a third distinct request is shed with 429 and a
// Retry-After hint; after release, the shed request succeeds.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(s *Server) {
		inner := s.runSim
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			started <- struct{}{}
			<-release
			return inner(m, tr, opts)
		}
	})

	body := func(uops int) string {
		return fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":%d}}`, uops)
	}
	errs := make(chan error, 2)
	go func() {
		resp := post(t, ts, body(5000))
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("first request: %d", resp.StatusCode)
			return
		}
		errs <- nil
	}()
	<-started // the worker is now occupied

	go func() {
		resp := post(t, ts, body(5001))
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("second request: %d", resp.StatusCode)
			return
		}
		errs <- nil
	}()
	// Wait until the second simulation occupies the queue slot.
	waitForMetric(t, ts, "simd_queue_depth 1")

	resp := post(t, ts, body(5002))
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d: %s", resp.StatusCode, b)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(b), "saturated") {
		t.Fatalf("shed body %q does not name the cause", b)
	}

	// Unblock every simulation, current and future.
	close(release)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// The shed request succeeds once capacity returns.
	resp = post(t, ts, body(5002))
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed: %d", resp.StatusCode)
	}

	// Shedding is visible in metrics.
	waitForMetric(t, ts, `simd_shed_total 1`)
	waitForMetric(t, ts, `simd_requests_total{code="429"} 1`)
}

// waitForMetric polls /metrics until a line appears (the gauges are updated
// by worker goroutines, so a bounded wait is inherent).
func waitForMetric(t *testing.T, ts *httptest.Server, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		last = string(b)
		if strings.Contains(last, want) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %q never appeared; last scrape:\n%s", want, last)
}

// TestClientDisconnectCancelsSimulation: when the only interested client
// goes away, the simulation's context is canceled and the request is
// accounted as canceled, not failed.
func TestClientDisconnectCancelsSimulation(t *testing.T) {
	simStarted := make(chan struct{})
	simCanceled := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1}, func(s *Server) {
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			close(simStarted)
			<-opts.Context.Done()
			close(simCanceled)
			return sim.Result{Err: fmt.Errorf("%w: canceled", sim.ErrCanceled)}
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/simulate", strings.NewReader(simulateBody(t, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	respErr := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		respErr <- err
	}()
	<-simStarted
	cancel()
	if err := <-respErr; err == nil {
		t.Fatal("canceled request returned a response")
	}
	select {
	case <-simCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation context never canceled after client disconnect")
	}
	waitForMetric(t, ts, "simd_canceled_total 1")
}

// TestInvalidRequests: malformed input is rejected with 400 and a typed
// error message, before any simulation work.
func TestInvalidRequests(t *testing.T) {
	var sims atomic.Int32
	_, ts := newTestServer(t, Config{TraceDir: t.TempDir()}, func(s *Server) {
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims.Add(1)
			return sim.Result{}
		}
	})
	cases := []struct {
		name, body, wantSub string
	}{
		{"garbage", `not json`, "decoding request"},
		{"unknown field", `{"machine":"BDW","wat":1,"workload":{"profile":"mcf","uops":10}}`, "unknown field"},
		{"unknown machine", `{"machine":"EPYC","workload":{"profile":"mcf","uops":10}}`, "EPYC"},
		{"unknown profile", `{"machine":"BDW","workload":{"profile":"nope","uops":10}}`, "unknown workload profile"},
		{"zero uops", `{"machine":"BDW","workload":{"profile":"mcf","uops":0}}`, "uops must be > 0"},
		{"unknown scheme", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"scheme":"psychic"}`, "psychic"},
		{"unknown wrongpath", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"wrongpath":"real"}`, "real"},
		{"unknown stack", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"stacks":["vibes"]}`, "vibes"},
		{"no input", `{"machine":"BDW"}`, "workload or a trace_path"},
		{"both inputs", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"trace_path":"x.trc"}`, "mutually exclusive"},
		{"path escape", `{"machine":"BDW","trace_path":"../secret.trc"}`, "trace_path"},
		{"absolute path", `{"machine":"BDW","trace_path":"/etc/passwd"}`, "trace_path"},
		{"smp one core", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"smp":{"cores":1}}`, "smp.cores"},
		{"smp too wide", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"smp":{"cores":65}}`, "smp.cores"},
		{"smp over trace", `{"machine":"BDW","trace_path":"x.trc","smp":{"cores":4}}`, "smp requires a generator workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts, tc.body)
			b := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", b)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantSub)
			}
		})
	}
	if got := sims.Load(); got != 0 {
		t.Fatalf("invalid requests ran %d simulations", got)
	}
}

// TestSMPRequests: gang requests simulate, decode as an aggregate result,
// key on the core count, and share one cache entry across the
// accepted-but-ignored parallel knob.
func TestSMPRequests(t *testing.T) {
	var sims atomic.Int32
	_, ts := newTestServer(t, Config{}, func(s *Server) {
		inner := s.runSMP
		s.runSMP = func(m config.Machine, n int, mk func(int) trace.Reader, opts sim.Options) sim.SMPResult {
			sims.Add(1)
			return inner(m, n, mk, opts)
		}
	})

	body := func(cores int, parallel bool) string {
		return fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":4000},"smp":{"cores":%d,"parallel":%v}}`,
			cores, parallel)
	}

	r1 := post(t, ts, body(4, false))
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("sequential gang: %d: %s", r1.StatusCode, b1)
	}
	res, wl, err := export.DecodeResult(b1)
	if err != nil {
		t.Fatal(err)
	}
	if wl != "mcf-smp4" {
		t.Fatalf("workload label %q, want mcf-smp4", wl)
	}
	if res.Stacks == nil || res.Stats.Committed == 0 || res.Stats.Cycles == 0 {
		t.Fatalf("implausible gang result: %+v", res.Stats)
	}

	// The ignored parallel knob must hit the first run's cache entry with a
	// byte-identical body: no second simulation.
	r2 := post(t, ts, body(4, true))
	b2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("parallel gang: %d: %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("parallel twin X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("parallel and sequential gang bodies differ")
	}
	if r1.Header.Get("X-Result-Key") != r2.Header.Get("X-Result-Key") {
		t.Fatal("the parallel knob split the cache key")
	}

	// A different gang width measures something else: new key, new sim.
	r3 := post(t, ts, body(2, false))
	readAll(t, r3)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("2-core gang: %d", r3.StatusCode)
	}
	if r3.Header.Get("X-Result-Key") == r1.Header.Get("X-Result-Key") {
		t.Fatal("4-core and 2-core gangs share a key")
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("ran %d gang simulations, want 2", got)
	}
}

// TestSMPRequestParallelIgnored pins the 3-core SKX gang's payload bytes
// at l3_slices 1 and 4, and checks that the accepted-but-ignored
// "parallel" knob stays out of the result: the same gang with
// "parallel":true shares the key and is served as a cache hit.
func TestSMPRequestParallelIgnored(t *testing.T) {
	// SHA-256 of each payload: a mismatch means the gang's result bytes
	// changed.
	digests := map[int]string{
		1: "17894afb9beccfe8b4b2e752014676504fec0c4012a2f2460974e0f7db3d2e04",
		4: "fe70e9a24cc32ebb73d0c372772848d73f9152318ebb1d0cd8a24e70ecc8ddb0",
	}
	for _, slices := range []int{1, 4} {
		t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
			_, ts := newTestServer(t, Config{}, nil)
			run := func(parallel bool) (*http.Response, []byte) {
				resp := post(t, ts, fmt.Sprintf(
					`{"machine":"SKX","workload":{"profile":"mcf","uops":4000},"stacks":["cpi","flops"],"smp":{"cores":3,"l3_slices":%d,"parallel":%v}}`,
					slices, parallel))
				payload := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("parallel=%v: %d: %s", parallel, resp.StatusCode, payload)
				}
				return resp, payload
			}
			r1, b1 := run(false)
			r2, b2 := run(true)
			if k1, k2 := r1.Header.Get("X-Result-Key"), r2.Header.Get("X-Result-Key"); k1 != k2 {
				t.Fatalf("parallel=true keyed %s, parallel=false %s", k2, k1)
			}
			if got := r2.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("parallel=true X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("parallel=true served different bytes")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b1)); got != digests[slices] {
				t.Fatalf("gang payload sha256 = %s, want %s", got, digests[slices])
			}
		})
	}
}

// writeTraceFile generates a small real trace file and returns its name
// relative to dir.
func writeTraceFile(t *testing.T, dir, name string, uops uint64) string {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.SPECProfile("mcf")
	if _, err := trace.Copy(w, trace.NewLimit(workload.NewGenerator(prof), uops), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestFileTraceRequests: trace_path requests work, are content-addressed
// (editing the file changes the key), and are confined to the trace dir.
func TestFileTraceRequests(t *testing.T) {
	traceDir := t.TempDir()
	name := writeTraceFile(t, traceDir, "small.trc", 2000)
	_, ts := newTestServer(t, Config{TraceDir: traceDir}, nil)

	body := `{"machine":"BDW","trace_path":"` + name + `"}`
	r1 := post(t, ts, body)
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("trace request: %d: %s", r1.StatusCode, b1)
	}
	k1 := r1.Header.Get("X-Result-Key")
	if _, wl, err := export.DecodeResult(b1); err != nil || wl != "small" {
		t.Fatalf("workload %q err %v", wl, err)
	}

	// Mutating the file changes the content address: same path, new key,
	// fresh simulation rather than a poisoned hit. The flipped bit sits in
	// the last record's Addr field — a value the pipeline treats as data,
	// so the mutated trace still simulates cleanly.
	path := filepath.Join(traceDir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-44] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := post(t, ts, body)
	readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("mutated trace request: %d", r2.StatusCode)
	}
	if k2 := r2.Header.Get("X-Result-Key"); k2 == k1 {
		t.Fatal("mutated trace file kept the same result key")
	}

	// A missing file is the client's error.
	resp := post(t, ts, `{"machine":"BDW","trace_path":"absent.trc"}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing trace: %d, want 400", resp.StatusCode)
	}
}

// TestCorruptDiskEntryResimulated: a bit-flipped on-disk cache entry is
// detected, never served, and the request transparently re-simulates.
func TestCorruptDiskEntryResimulated(t *testing.T) {
	cacheDir := t.TempDir()
	var sims1 atomic.Int32
	s1, ts1 := newTestServer(t, Config{CacheDir: cacheDir}, func(s *Server) {
		inner := s.runSim
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims1.Add(1)
			return inner(m, tr, opts)
		}
	})
	r1 := post(t, ts1, simulateBody(t, ""))
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("prime request: %d", r1.StatusCode)
	}
	keyHex := r1.Header.Get("X-Result-Key")
	ts1.Close()
	s1.Close()

	// Flip one payload bit in the stored entry.
	entry := filepath.Join(cacheDir, keyHex[:2], keyHex)
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-20] ^= 0x10
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same directory (cold memory tier) must spot
	// the corruption, discard the entry and re-simulate.
	var sims2 atomic.Int32
	_, ts2 := newTestServer(t, Config{CacheDir: cacheDir}, func(s *Server) {
		inner := s.runSim
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims2.Add(1)
			return inner(m, tr, opts)
		}
	})
	r2 := post(t, ts2, simulateBody(t, ""))
	b2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("request over corrupt cache: %d", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss (corrupt entry must not be served)", got)
	}
	if sims2.Load() != 1 {
		t.Fatalf("re-simulations = %d, want 1", sims2.Load())
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-simulated body differs from the original")
	}
	waitForMetric(t, ts2, `simd_cache_corrupt_total 1`)
}

// TestConcurrentMixedClients hammers the server with a mix of identical
// and distinct requests; run under -race this is the data-race harness for
// the whole cache/singleflight/pool composition.
func TestConcurrentMixedClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64}, nil)
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Four distinct keys, shared across clients.
			body := fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":%d}}`, 2000+i%4)
			for j := 0; j < 3; j++ {
				resp := post(t, ts, body)
				b := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: %d: %s", i, resp.StatusCode, b)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if b := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}

// TestNoPeerRoutes: simd exposes no peer-transfer surface. A GET and a
// PUT to /v1/peer/result/{key} are 404, and a forged body PUT under the
// key of a request nobody has made yet is never stored: that request is a
// miss that simulates, and its later hit serves the simulated bytes, not
// the forged ones.
func TestNoPeerRoutes(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)

	resp := post(t, ts, simulateBody(t, ""))
	readAll(t, resp)
	r, err := http.Get(ts.URL + "/v1/peer/result/" + resp.Header.Get("X-Result-Key"))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("peer GET: %d, want 404", r.StatusCode)
	}

	fresh := `{"machine":"BDW","workload":{"profile":"mcf","uops":5001}}`
	req, err := parseRequest(strings.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	forged := []byte(`{"forged":true}`)
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/peer/result/"+p.key.String(), bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, pr)
	if pr.StatusCode != http.StatusNotFound {
		t.Fatalf("peer PUT: %d, want 404", pr.StatusCode)
	}
	if _, ok := s.cache.Get(p.key); ok {
		t.Fatal("a peer PUT reached the cache")
	}

	miss := post(t, ts, fresh)
	missBody := readAll(t, miss)
	if got := miss.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("fresh request after a forged PUT: X-Cache %q, want miss", got)
	}
	hit := post(t, ts, fresh)
	hitBody := readAll(t, hit)
	if got := hit.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat request: X-Cache %q, want hit", got)
	}
	if bytes.Equal(hitBody, forged) || !bytes.Equal(hitBody, missBody) {
		t.Fatalf("hit served %q, want the simulated bytes", hitBody)
	}
}

// TestMetricsExposition sanity-checks the Prometheus text rendering.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp := post(t, ts, simulateBody(t, ""))
	readAll(t, resp)
	resp = post(t, ts, simulateBody(t, ""))
	readAll(t, resp)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, mresp))
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		`simd_requests_total{code="200"} 2`,
		`simd_cache_hits_total{tier="mem"} 1`,
		`simd_cache_misses_total 1`,
		`simd_sims_total 1`,
		`simd_cache_stores_total 1`,
		"# TYPE simd_request_seconds histogram",
		"simd_request_seconds_count 2",
		"simd_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSMPSlicedRequests: the l3_slices knob is a model dimension — it keys
// separately — while spelling out the default (1) hits the unsliced entry,
// and invalid shapes are client errors.
func TestSMPSlicedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	body := func(extra string) string {
		return fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":4000},"smp":{"cores":2%s}}`, extra)
	}

	r1 := post(t, ts, body(""))
	readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("default gang: %d", r1.StatusCode)
	}

	// slices=1 is the same machine: same key, served from cache.
	r2 := post(t, ts, body(`,"l3_slices":1`))
	readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("slices=1 gang: %d", r2.StatusCode)
	}
	if r2.Header.Get("X-Result-Key") != r1.Header.Get("X-Result-Key") {
		t.Fatal("l3_slices=1 split the cache key from the default")
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("l3_slices=1 twin X-Cache = %q, want hit", got)
	}

	// slices=4 measures a different uncore: distinct key, fresh result.
	r3 := post(t, ts, body(`,"l3_slices":4`))
	b3 := readAll(t, r3)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("slices=4 gang: %d: %s", r3.StatusCode, b3)
	}
	if r3.Header.Get("X-Result-Key") == r1.Header.Get("X-Result-Key") {
		t.Fatal("l3_slices=4 shares the monolithic key")
	}

	// A non-power-of-two shape is a client error.
	r4 := post(t, ts, body(`,"l3_slices":3`))
	b4 := readAll(t, r4)
	if r4.StatusCode != http.StatusBadRequest || !strings.Contains(string(b4), "power of two") {
		t.Fatalf("slices=3: %d: %s, want 400 mentioning power of two", r4.StatusCode, b4)
	}
}

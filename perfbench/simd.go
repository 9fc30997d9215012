package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/service"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// simReq is one /v1/simulate request of the simd-mix workload.
type simReq struct {
	machine, profile string
	uops, warmup     uint64
}

func (q simReq) body() []byte {
	b, err := json.Marshal(service.Request{
		Machine:  q.machine,
		Workload: &service.WorkloadSpec{Profile: q.profile, Uops: q.uops},
		Warmup:   q.warmup,
	})
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	return b
}

// resolve mirrors the service's resolution of the request.
func (q simReq) resolve() (config.Machine, workload.Profile, sim.Options, error) {
	m, err := config.ByName(q.machine)
	if err != nil {
		return m, workload.Profile{}, sim.Options{}, err
	}
	opts := sim.Options{CPI: true, WarmupUops: q.warmup}
	if opts.Scheme, err = sim.ParseScheme(""); err != nil {
		return m, workload.Profile{}, opts, err
	}
	if opts.WrongPath, err = sim.ParseWrongPathMode(""); err != nil {
		return m, workload.Profile{}, opts, err
	}
	return m, mustProfile(q.profile), opts, nil
}

// planReq is the workload's /v1/sensitivity request: the default plan
// (every parameter, variants x0.5 and x2, endpoints), 79 cells.
type planReq struct {
	machine, profile string
	uops             uint64
}

func (p planReq) body(recompute bool) []byte {
	b, err := json.Marshal(service.SensitivityRequest{
		Machine:   p.machine,
		Workload:  &service.WorkloadSpec{Profile: p.profile, Uops: p.uops},
		Recompute: recompute,
	})
	if err != nil {
		panic(err)
	}
	return b
}

func (p planReq) plan() (*sensitivity.Plan, error) {
	m, err := config.ByName(p.machine)
	if err != nil {
		return nil, err
	}
	opts := sim.Options{}
	if opts.Scheme, err = sim.ParseScheme(""); err != nil {
		return nil, err
	}
	return sensitivity.NewPlan(m, mustProfile(p.profile), p.uops, opts, sensitivity.PlanOptions{})
}

// The request pools. The seed picks hitsPerRun primed hit bodies, one plan
// and the start of its run of fresh keys, so every body the workload sends
// has a recorded digest.
const (
	hitPoolSize = 16
	hitsPerRun  = 4
	planPool    = 4
	missPool    = 4096
	// missStride spaces the seeds' starting points in the fresh-key pool,
	// leaving each at least missPool-15*missStride recorded keys.
	missStride = 64
)

func hitReq(i int) simReq {
	profiles := []string{"mcf", "omnetpp", "gcc-1", "xalancbmk", "deepsjeng", "lbm", "bwaves-1", "x264-1"}
	machines := []string{"BDW", "SKX"}
	return simReq{machine: machines[i%2], profile: profiles[i/2%len(profiles)], uops: 20_000}
}

// missReq is fresh key j: profile and machine rotate fastest, repeating
// every missShapes keys, so any run of consecutive keys has the same mix,
// and the warm-up (which makes the key fresh) grows by one uop every
// missShapes keys.
func missReq(j int) simReq {
	profiles := []string{"perlbench-1", "gcc-2", "leela", "exchange2"}
	machines := []string{"BDW", "SKX"}
	return simReq{machine: machines[j/4%2], profile: profiles[j%4], uops: 20_000, warmup: uint64(j / missShapes)}
}

// missShapes is the number of profile and machine pairs missReq cycles
// through.
const missShapes = 8

func planFor(i int) planReq {
	profiles := []string{"mcf", "gcc-1", "xz-1", "omnetpp"}
	return planReq{machine: "BDW", profile: profiles[i%planPool], uops: 5_000}
}

// Request kinds of the mix.
const (
	opHit = iota
	opMiss
	opPlan
)

// mixPattern is the sequence of request kinds each client cycles through,
// 80/15/5 by count. A fixed sequence rather than random draws keeps the
// share of misses in any second of the load the same from run to run.
var mixPattern = [20]int{
	opHit, opHit, opHit, opMiss, opHit, opHit, opHit, opPlan, opHit, opHit,
	opMiss, opHit, opHit, opHit, opHit, opHit, opMiss, opHit, opHit, opHit,
}

// mix is one run's request set.
type mix struct {
	seed      uint64
	hits      []int // hit pool indices
	plan      int
	missStart int
	next      atomic.Int64 // fresh keys handed out
}

func newMix(seed uint64) *mix {
	k := int(seed % hitPoolSize)
	m := &mix{seed: seed, plan: int(seed % planPool), missStart: int(seed%16) * missStride}
	for i := 0; i < hitsPerRun; i++ {
		m.hits = append(m.hits, (k+i*hitPoolSize/hitsPerRun)%hitPoolSize)
	}
	return m
}

func (m *mix) freshKey() int { return m.missStart + int(m.next.Add(1)-1) }

// simdServer is an in-process single-node simd on loopback, with the
// memory tier and a disk tier in a temporary directory.
type simdServer struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	served chan error
}

// tmpRoot holds the benchmark's temporary directories, inside the
// checkout it runs in.
const tmpRoot = ".bench_build/tmp"

func startServer() (*simdServer, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "simd-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := service.New(ctx, service.Config{
		CacheDir: dir,
		Workers:  runtime.NumCPU(),
		Log:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		cancel()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &simdServer{
		dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), cancel: cancel, served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop and the
// simulations to end, and removes the cache directory.
func (s *simdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.cancel()
	s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client posts request bodies over a keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}},
		url: url,
	}
}

// post sends one request and returns the status, X-Cache tier and body.
func (c *client) post(path string, body []byte) (status int, tier string, payload []byte, err error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	payload, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), payload, err
}

// metrics fetches and parses the /metrics page, then drops the connection.
func (c *client) metrics() (map[string]float64, error) {
	defer c.hc.CloseIdleConnections()
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// expectOK checks a reply's status and cache tier.
func expectOK(status int, tier, wantTier string, payload []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(payload))
	}
	if tier != wantTier {
		return fmt.Errorf("X-Cache %q, want %q", tier, wantTier)
	}
	return nil
}

// prime starts a server and sends the run's hit bodies and its plan once,
// so the load phase finds them cached.
func prime(m *mix, dg *digests) (*simdServer, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	c := newClient(s.url)
	defer c.hc.CloseIdleConnections()
	fail := func(err error) (*simdServer, error) {
		s.stop()
		return nil, fmt.Errorf("priming simd: %w", err)
	}
	for _, i := range m.hits {
		status, tier, body, err := c.post("/v1/simulate", hitReq(i).body())
		if err == nil {
			err = expectOK(status, tier, "miss", body)
		}
		if err == nil {
			err = dg.check(fmt.Sprintf("simd-mix/hit/%d", i), body)
		}
		if err != nil {
			return fail(err)
		}
	}
	status, tier, body, err := c.post("/v1/sensitivity", planFor(m.plan).body(false))
	if err == nil {
		err = expectOK(status, tier, "miss", body)
	}
	if err == nil {
		err = dg.check(fmt.Sprintf("simd-mix/plan/%d/prime", m.plan), body)
	}
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// sent is one request of the load phase, kept for the traced replay.
type sent struct {
	kind, index int
}

// loadResult is what the clients measured.
type loadResult struct {
	hit, miss, plan   latencies
	steps             latencies // lock steps, by position in mixPattern
	wall              time.Duration
	attempted, failed int
	errs              []string
	missUops          uint64
	tierHits          int
	seqs              [][]sent // per client, in order
	unverified        []pendingMiss
}

// pendingMiss is a fresh key beyond the recorded pool, verified after the
// load phase by simulating it in-process.
type pendingMiss struct {
	j      int
	digest string
}

func (lr *loadResult) fail(format string, args ...any) {
	lr.failed++
	if len(lr.errs) < 8 {
		lr.errs = append(lr.errs, fmt.Sprintf(format, args...))
	}
}

func (lr *loadResult) merge(o *loadResult) {
	for _, p := range []struct{ dst, src *latencies }{{&lr.hit, &o.hit}, {&lr.miss, &o.miss}, {&lr.plan, &o.plan}} {
		p.dst.ds = append(p.dst.ds, p.src.ds...)
		p.dst.shape = append(p.dst.shape, p.src.shape...)
	}
	lr.attempted += o.attempted
	lr.missUops += o.missUops
	lr.tierHits += o.tierHits
	lr.unverified = append(lr.unverified, o.unverified...)
	lr.failed += o.failed
	lr.errs = append(lr.errs, o.errs...)
}

// clients is the closed loop's width.
const clients = 2

// load drives the closed loop against s until the deadline. The clients
// move in lock step: at every step of mixPattern both send a request of the
// step's kind (different hit bodies or fresh keys, the same plan) and the
// next step starts when both replies are in. A plan fans out over every
// worker, so at a plan step the clients take turns, which also keeps the
// service from coalescing the second re-POST into the first. Each class is
// thus measured against the same concurrent load from run to run;
// unsynchronised, a hit mostly overlapped a simulation and its latency
// followed that overlap.
func load(s *simdServer, m *mix, dg *digests, deadline time.Time) *loadResult {
	out := &loadResult{
		hit: latencies{name: "hit"}, miss: latencies{name: "miss"}, plan: latencies{name: "plan"},
		steps: latencies{name: "step"},
	}
	parts := make([]*loadResult, clients)
	hitBodies := make([][]byte, len(m.hits))
	for i, h := range m.hits {
		hitBodies[i] = hitReq(h).body()
	}
	planBody := planFor(m.plan).body(true)
	planLabel := fmt.Sprintf("simd-mix/plan/%d", m.plan)

	var wg sync.WaitGroup
	steps := make([]chan int, clients)
	done := make(chan struct{}, clients)
	for ci := range parts {
		lr := &loadResult{}
		parts[ci] = lr
		steps[ci] = make(chan int, 1)
		c := newClient(s.url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			var seq []sent
			nextHit := ci
			for pos := range steps[ci] {
				lr.attempted++
				switch mixPattern[pos%len(mixPattern)] {
				case opHit:
					i := nextHit % len(m.hits)
					nextHit += clients
					t0 := time.Now()
					status, tier, body, err := c.post("/v1/simulate", hitBodies[i])
					lr.hit.addShape(m.hits[i], time.Since(t0))
					if err == nil {
						err = expectOK(status, tier, "hit", body)
					}
					if err == nil {
						err = dg.check(fmt.Sprintf("simd-mix/hit/%d", m.hits[i]), body)
					}
					if err != nil {
						lr.fail("hit %d: %v", m.hits[i], err)
					}
					if tier == "hit" {
						lr.tierHits++
					}
					seq = append(seq, sent{opHit, m.hits[i]})
				case opMiss:
					j := m.freshKey()
					q := missReq(j)
					t0 := time.Now()
					status, tier, body, err := c.post("/v1/simulate", q.body())
					lr.miss.addShape(j%missShapes, time.Since(t0))
					if err == nil {
						err = expectOK(status, tier, "miss", body)
					}
					if err == nil {
						var known bool
						if known, err = dg.checkMiss(j, body); !known {
							lr.unverified = append(lr.unverified, pendingMiss{j, digestOf(body)})
						}
					}
					if err != nil {
						lr.fail("miss %d: %v", j, err)
					} else {
						lr.missUops += q.uops
					}
					seq = append(seq, sent{opMiss, j})
				case opPlan:
					t0 := time.Now()
					status, tier, body, err := c.post("/v1/sensitivity", planBody)
					lr.plan.addShape(m.plan, time.Since(t0))
					if err == nil {
						err = expectOK(status, tier, "miss", body)
					}
					if err == nil {
						err = dg.check(planLabel, body)
					}
					if err != nil {
						lr.fail("plan: %v", err)
					}
					seq = append(seq, sent{opPlan, m.plan})
				}
				done <- struct{}{}
			}
			lr.seqs = [][]sent{seq}
		}()
	}
	// The seed picks the phase of the pattern the run starts at.
	start := time.Now()
	for pos := int(m.seed % uint64(len(mixPattern))); time.Now().Before(deadline); pos++ {
		t0 := time.Now()
		if mixPattern[pos%len(mixPattern)] == opPlan {
			var d time.Duration
			for _, step := range steps {
				runtime.GC()
				t0 := time.Now()
				step <- pos
				<-done
				d += time.Since(t0)
			}
			out.steps.addShape(pos%len(mixPattern), d)
			continue
		} else {
			for _, step := range steps {
				step <- pos
			}
			for range steps {
				<-done
			}
		}
		out.steps.addShape(pos%len(mixPattern), time.Since(t0))
	}
	for _, step := range steps {
		close(step)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, p := range parts {
		out.merge(p)
		out.seqs = append(out.seqs, p.seqs...)
	}
	return out
}

// verifyPending simulates fresh keys beyond the recorded pool in-process
// and compares the bodies the service returned.
func verifyPending(lr *loadResult) {
	for _, p := range lr.unverified {
		payload, err := simulateReq(missReq(p.j))
		switch {
		case err != nil:
			lr.fail("miss %d: verifying in-process: %v", p.j, err)
		case digestOf(payload) != p.digest:
			lr.fail("miss %d: body differs from the in-process result", p.j)
		}
	}
}

// simulateReq computes a simulate request's body in-process.
func simulateReq(q simReq) ([]byte, error) {
	m, prof, opts, err := q.resolve()
	if err != nil {
		return nil, err
	}
	res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), q.uops), opts)
	if res.Err != nil {
		return nil, res.Err
	}
	return export.EncodeResult(&res, prof.Name)
}

// setupRepeatsSimd is how many fresh servers a run primes before the load
// and again after it; setup_s is the fastest (see setupRepeats), and the
// last server primed before the load carries it.
const setupRepeatsSimd = 6

func runSimdMix(seed uint64, seconds float64, traced bool, dg *digests) (*report, error) {
	m := newMix(seed)
	if traced {
		return runSimdTraced(m, seconds, dg)
	}
	rep := &report{}
	setups := latencies{name: "set-up"}
	setup := func() (*simdServer, error) {
		t0 := time.Now()
		s, err := prime(m, dg)
		setups.add(time.Since(t0))
		return s, err
	}
	var s *simdServer
	for i := 0; i < setupRepeatsSimd; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = setup(); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	lr := load(s, m, dg, time.Now().Add(time.Duration(seconds*float64(time.Second))))
	metrics, merr := newClient(s.url).metrics()
	if err := s.stop(); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr
	}
	verifyPending(lr)
	// Set up again after the load, so the fastest set-up is taken from
	// both ends of the run.
	for i := 0; i < setupRepeatsSimd; i++ {
		s, err := setup()
		if err != nil {
			return nil, err
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	rep.add("setup_s", slices.Min(setups.ds).Seconds(), "s")

	// As in the simulator workloads (see endToEnd), each request is timed
	// by its fastest repetition: a hit body, a fresh key's profile and
	// machine, a plan, a step of the pattern. The rates follow from those:
	// the loop's requests per fastest pass over the pattern, and the uops
	// of the clients' concurrent misses per fastest miss.
	hitS, missS, planS, stepS := lr.hit.floors(), lr.miss.floors(), lr.plan.floors(), lr.steps.floors()
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("uops_per_s", ratio(float64(clients)*float64(missReq(0).uops)*float64(len(missS)), sum(missS)), "uops/s")
	rep.add("req_per_s", ratio(float64(clients*len(stepS)), sum(stepS)), "1/s")
	rep.addPercentiles("hit", "us", 1e6, hitS)
	rep.addPercentiles("miss", "ms", 1e3, missS)
	rep.add("plan_p50_ms", 1e3*median(planS), "ms")
	rep.notef("%d requests from %d lock-step clients in %.1f s; simd counted %g simulations, %g coalesced, %g shed",
		lr.attempted, clients, lr.wall.Seconds(), metrics["simd_sims_total"], metrics["simd_coalesced_total"], metrics["simd_shed_total"])
	rep.notef("metrics use the fastest of each of %d hit bodies, %d miss shapes, %d plan and %d pattern steps",
		len(hitS), len(missS), len(planS), len(stepS))
	rep.notef("all samples: %s", lr.hit.describe(time.Microsecond, "us"))
	rep.notef("all samples: %s", lr.miss.describe(time.Millisecond, "ms"))
	rep.notef("all samples: %s", lr.plan.describe(time.Millisecond, "ms"))
	rep.notef("all samples: %s", setups.describe(time.Millisecond, "ms"))
	rep.attempted, rep.failed, rep.errs = lr.attempted, lr.failed, lr.errs
	return rep, nil
}

// runSimdTraced measures the load over HTTP for half the time, then
// replays the same request stream through the public functions the
// handler calls, timing each, on the hand-assembled core.
func runSimdTraced(m *mix, seconds float64, dg *digests) (*report, error) {
	s, err := prime(m, dg)
	if err != nil {
		return nil, err
	}
	c := newClient(s.url)
	before, err := c.metrics()
	if err != nil {
		s.stop()
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	lr := load(s, m, dg, time.Now().Add(time.Duration(seconds/2*float64(time.Second))))
	runtime.ReadMemStats(&ms1)
	after, merr := c.metrics()
	if err := s.stop(); err != nil {
		return nil, err
	}
	if merr != nil {
		return nil, merr
	}
	verifyPending(lr)

	rp, err := newReplay(m)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	rp.run(lr.seqs, dg)

	l := &layers{tr: rp.tr, clock: calibrateClock(), steps: &rp.steps}
	if lr.missUops > 0 {
		l.hostAllocPerUop = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(lr.missUops)
	}
	l.hostPauseMsPerS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / lr.wall.Seconds()
	l.overheadPct = 100 * (rp.wall.Seconds()/lr.wall.Seconds() - 1)
	hitP50 := median(lr.hit.in(time.Microsecond))
	l.svc = serviceLayers{
		active:    true,
		sims:      after["simd_sims_total"] - before["simd_sims_total"],
		coalesced: after["simd_coalesced_total"] - before["simd_coalesced_total"],
		shed:      after["simd_shed_total"] - before["simd_shed_total"],
		hitRatio:  ratio(float64(lr.tierHits), float64(lr.attempted)),
		httpUs: selfTime(hitP50, median(rp.hitKey.in(time.Microsecond)),
			median(rp.steps.get.in(time.Microsecond))),
		plan:        rp.planNew,
		buildReport: rp.planReport,
	}
	rep := &report{}
	l.emit(rep, "simd-mix")
	rep.attempted = lr.attempted + rp.attempted
	rep.failed = lr.failed + rp.failed
	rep.errs = append(lr.errs, rp.errs...)
	return rep, nil
}

// replay re-runs a recorded request stream in-process: the service's
// cache over a fresh disk tier, primed like the server, then each
// client's requests in order on its own goroutine.
type replay struct {
	dir   string
	cache *resultcache.Cache

	mu                sync.Mutex
	tr                *tracer
	steps             stepTimes
	hitKey            latencies
	planNew           latencies
	planReport        latencies
	wall              time.Duration
	attempted, failed int
	errs              []string
}

func newReplay(m *mix) (*replay, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "replay-")
	if err != nil {
		return nil, err
	}
	disk, err := resultcache.NewDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rp := &replay{dir: dir, cache: resultcache.New(resultcache.NewMemory(64<<20), disk), tr: newTracer()}
	// Prime as the server was primed (untimed).
	for _, i := range m.hits {
		q := hitReq(i)
		payload, err := simulateReq(q)
		if err == nil {
			var key resultcache.Key
			if key, err = q.key(); err == nil {
				err = rp.cache.Put(key, payload)
			}
		}
		if err != nil {
			rp.close()
			return nil, err
		}
	}
	p, err := planFor(m.plan).plan()
	if err == nil {
		orch := &sensitivity.Orchestrator{Run: sensitivity.LocalRunner(nil, rp.cache), Concurrency: clients}
		_, err = orch.Execute(context.Background(), p)
	}
	if err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

func (q simReq) key() (resultcache.Key, error) {
	m, prof, opts, err := q.resolve()
	if err != nil {
		return resultcache.Key{}, err
	}
	return resultcache.SimKey(m, prof, q.uops, opts)
}

func (rp *replay) close() { os.RemoveAll(rp.dir) }

func (rp *replay) fail(format string, args ...any) {
	rp.failed++
	if len(rp.errs) < 8 {
		rp.errs = append(rp.errs, fmt.Sprintf(format, args...))
	}
}

// replayer is one goroutine's share of a replay.
type replayer struct {
	tr                     *tracer
	steps                  stepTimes
	hitKey, planNew, build latencies
	attempted              int
	errs                   []string
}

func (rp *replay) run(seqs [][]sent, dg *digests) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq []sent) {
			defer wg.Done()
			w := &replayer{tr: newTracer()}
			for _, op := range seq {
				w.attempted++
				if err := rp.one(w, op, dg); err != nil {
					w.errs = append(w.errs, err.Error())
				}
			}
			rp.mu.Lock()
			defer rp.mu.Unlock()
			rp.tr.merge(w.tr)
			for _, p := range []struct{ dst, src *latencies }{
				{&rp.steps.key, &w.steps.key}, {&rp.steps.run, &w.steps.run},
				{&rp.steps.encode, &w.steps.encode}, {&rp.steps.put, &w.steps.put},
				{&rp.steps.get, &w.steps.get}, {&rp.steps.decode, &w.steps.decode},
				{&rp.hitKey, &w.hitKey}, {&rp.planNew, &w.planNew}, {&rp.planReport, &w.build},
			} {
				p.dst.ds = append(p.dst.ds, p.src.ds...)
			}
			rp.attempted += w.attempted
			for _, e := range w.errs {
				rp.fail("replay: %s", e)
			}
		}(seq)
	}
	wg.Wait()
	rp.wall = time.Since(start)
}

// one replays a request through the functions the handler calls.
func (rp *replay) one(w *replayer, op sent, dg *digests) error {
	switch op.kind {
	case opHit:
		q := hitReq(op.index)
		m, prof, opts, err := q.resolve()
		if err != nil {
			return err
		}
		t0 := time.Now()
		key, err := resultcache.SimKey(m, prof, q.uops, opts)
		t1 := time.Now()
		payload, ok := rp.cache.Get(key)
		t2 := time.Now()
		w.hitKey.add(t1.Sub(t0))
		w.steps.key.add(t1.Sub(t0))
		w.steps.get.add(t2.Sub(t1))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("hit %d: not cached", op.index)
		}
		return dg.check(fmt.Sprintf("simd-mix/hit/%d", op.index), payload)

	case opMiss:
		q := missReq(op.index)
		m, prof, opts, err := q.resolve()
		if err != nil {
			return err
		}
		t0 := time.Now()
		key, err := resultcache.SimKey(m, prof, q.uops, opts)
		if err != nil {
			return err
		}
		if _, ok := rp.cache.Get(key); ok {
			return fmt.Errorf("miss %d: already cached", op.index)
		}
		t1 := time.Now()
		g, err := assemble(m, 1, func(int) trace.Reader {
			return trace.NewLimit(workload.NewGenerator(prof), q.uops)
		}, opts, w.tr)
		if err != nil {
			return err
		}
		res := g.run(w.tr)
		t2 := time.Now()
		if res.Err != nil {
			return res.Err
		}
		payload, err := export.EncodeResult(&res, prof.Name)
		if err != nil {
			return err
		}
		t3 := time.Now()
		err = rp.cache.Put(key, payload)
		t4 := time.Now()
		w.steps.key.add(t1.Sub(t0))
		w.steps.run.add(t2.Sub(t1))
		w.steps.encode.add(t3.Sub(t2))
		w.steps.put.add(t4.Sub(t3))
		if err != nil {
			return err
		}
		if known, err := dg.checkMiss(op.index, payload); err != nil || known {
			return err
		}
		want, err := simulateReq(q)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, payload) {
			return fmt.Errorf("miss %d: traced result differs from the simulator's", op.index)
		}
		return nil

	default:
		t0 := time.Now()
		p, err := planFor(op.index).plan()
		t1 := time.Now()
		w.planNew.add(t1.Sub(t0))
		if err != nil {
			return err
		}
		planKey, err := p.Key()
		if err != nil {
			return err
		}
		outcomes := make([]sensitivity.CellOutcome, len(p.Cells))
		for i, cell := range p.Cells {
			t0 := time.Now()
			key, err := resultcache.SimKey(cell.Machine, p.Profile, p.Uops, p.Opts)
			t1 := time.Now()
			payload, ok := rp.cache.Get(key)
			t2 := time.Now()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("plan cell %d: not cached", i)
			}
			res, _, err := export.DecodeResult(payload)
			t3 := time.Now()
			w.steps.key.add(t1.Sub(t0))
			w.steps.get.add(t2.Sub(t1))
			w.steps.decode.add(t3.Sub(t2))
			if err != nil {
				return err
			}
			outcomes[i] = sensitivity.CellOutcome{Result: res, Source: sensitivity.SourceCache}
		}
		t2 := time.Now()
		rep, err := sensitivity.BuildReport(p, outcomes)
		if err != nil {
			return err
		}
		w.build.add(time.Since(t2))
		payload, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		t3 := time.Now()
		err = rp.cache.Put(planKey, payload)
		w.steps.put.add(time.Since(t3))
		if err != nil {
			return err
		}
		return dg.check(fmt.Sprintf("simd-mix/plan/%d", op.index), payload)
	}
}

// recordSimdMix records the digests of every simd-mix body: hits and
// fresh keys computed in-process, plans from a live server.
func recordSimdMix(dg *digests) error {
	for i := 0; i < hitPoolSize; i++ {
		payload, err := simulateReq(hitReq(i))
		if err != nil {
			return err
		}
		dg.check(fmt.Sprintf("simd-mix/hit/%d", i), payload)
	}
	var next atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < missPool; j = int(next.Add(1) - 1) {
				payload, err := simulateReq(missReq(j))
				if err != nil {
					errs <- err
					return
				}
				dg.checkMiss(j, payload)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	for i := 0; i < planPool; i++ {
		m := &mix{plan: i}
		s, err := prime(m, dg)
		if err != nil {
			return err
		}
		c := newClient(s.url)
		status, tier, body, err := c.post("/v1/sensitivity", planFor(i).body(true))
		c.hc.CloseIdleConnections()
		if err == nil {
			err = expectOK(status, tier, "miss", body)
		}
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		dg.check(fmt.Sprintf("simd-mix/plan/%d", i), body)
	}
	fmt.Fprintln(os.Stderr, "recorded simd-mix")
	return nil
}

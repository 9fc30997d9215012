package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// seedStride decorrelates the input streams of neighbouring pool indices
// (the 64-bit golden ratio, as the service reseeds gang threads).
const seedStride = 0x9e3779b97f4a7c15

// poolSize is the number of distinct input sets per simulator workload.
// The seed picks one, so the digests of all of them can be recorded.
const poolSize = 16

// simJob is one simulation of a simulator workload.
type simJob struct {
	label   string
	name    string // workload name in the encoded result
	machine config.Machine
	opts    sim.Options
	cores   int // 1 for a single core, n for an n-core SMP gang
	reader  func(tid int) trace.Reader
	key     func() (resultcache.Key, error)
}

// run simulates through the simulator's own entry points.
func (j *simJob) run() sim.Result {
	if j.cores > 1 {
		return foldSMP(sim.RunSMP(j.machine, j.cores, j.reader, j.opts))
	}
	return sim.Run(j.machine, j.reader(0), j.opts)
}

// runTraced simulates on the hand-assembled, wrapped core.
func (j *simJob) runTraced(tr *tracer) (sim.Result, error) {
	g, err := assemble(j.machine, j.cores, j.reader, j.opts, tr)
	if err != nil {
		return sim.Result{}, err
	}
	return g.run(tr), nil
}

func mustProfile(name string) workload.Profile {
	p, ok := workload.SPECProfile(name)
	if !ok {
		panic("unknown profile " + name)
	}
	return p
}

// specJob simulates uops of a SPEC-like profile, keyed as simd keys it.
func specJob(label string, m config.Machine, prof workload.Profile, uops uint64, opts sim.Options) *simJob {
	return &simJob{
		label: label, name: prof.Name, machine: m, opts: opts, cores: 1,
		reader: func(int) trace.Reader { return trace.NewLimit(workload.NewGenerator(prof), uops) },
		key:    func() (resultcache.Key, error) { return resultcache.SimKey(m, prof, uops, opts) },
	}
}

// kernelKey keys a DeepBench kernel simulation by its canonical machine and
// options plus an identity string naming the kernel, seed and length.
func kernelKey(m config.Machine, opts sim.Options, id string) func() (resultcache.Key, error) {
	return func() (resultcache.Key, error) {
		mb, err := sim.CanonicalMachine(m)
		if err != nil {
			return resultcache.Key{}, err
		}
		ob, err := sim.CanonicalOptions(opts)
		if err != nil {
			return resultcache.Key{}, err
		}
		return resultcache.KeyOf(mb, ob, []byte(id), []byte(sim.SchemaVersion)), nil
	}
}

// specMemJobs: memory-bound profiles on BDW and KNL with the CPI,
// memdepth, structural and fetch stacks (cpistack -memdepth -structural
// -fetch), after a warm-up.
func specMemJobs(k uint64) []*simJob {
	opts := sim.Options{CPI: true, MemDepth: true, Structural: true, Fetch: true, WarmupUops: 20_000}
	var jobs []*simJob
	for _, m := range []config.Machine{config.BDW(), config.KNL()} {
		for _, name := range []string{"mcf", "omnetpp", "lbm", "xz-1"} {
			prof := mustProfile(name)
			prof.Seed += k * seedStride
			jobs = append(jobs, specJob(m.Name+"/"+name, m, prof, 80_000, opts))
		}
	}
	return jobs
}

// wrongPathJobs: the §III-B study — deepsjeng on BDW with synthesized
// wrong-path uops under the three accounting schemes.
func wrongPathJobs(k uint64) []*simJob {
	prof := mustProfile("deepsjeng")
	prof.Seed += k * seedStride
	m := config.BDW()
	var jobs []*simJob
	for _, s := range []core.WrongPathScheme{core.WrongPathOracle, core.WrongPathSimple, core.WrongPathSpeculative} {
		opts := sim.Options{CPI: true, Scheme: s, WrongPath: cpu.WrongPathSynth, WarmupUops: 20_000}
		jobs = append(jobs, specJob(s.String(), m, prof, 40_000, opts))
	}
	return jobs
}

// deepBenchJobs: the Figure 4/5 shape — one kernel of each of the paper's
// five suites (training and inference GEMM, convolution forward, backward
// filter and backward data) on KNL and SKX with CPI and FLOPS stacks, plus
// the Figure 5 convolution as a barrier-dense 4-core SKX gang whose threads
// run at skewed paces. The kernel shapes are fixed so that every seed does
// the same amount of work; the seed varies the kernels' random streams.
func deepBenchJobs(k uint64) []*simJob {
	const uops = 60_000
	opts := sim.Options{CPI: true, FLOPS: true, WarmupUops: 20_000}
	kseed := 1 + k
	var jobs []*simJob
	kernel := func(m config.Machine, name string, mk func() trace.Reader) {
		label := m.Name + "/" + name
		id := fmt.Sprintf("%s/seed%d/uops%d", label, kseed, uops)
		jobs = append(jobs, &simJob{
			label: label, name: name, machine: m, opts: opts, cores: 1,
			reader: func(int) trace.Reader { return trace.NewLimit(mk(), uops) },
			key:    kernelKey(m, opts, id),
		})
	}
	train, inf, conv := workload.GemmTrain()[0], workload.GemmInference()[0], workload.ConvTrain()[1]
	for _, m := range []config.Machine{config.KNL(), config.SKX()} {
		style := workload.StyleSKX
		if m.Name == "KNL" {
			style = workload.StyleKNL
		}
		lanes := m.Core.VectorLanes
		for _, g := range []workload.GemmConfig{train, inf} {
			mk := func() trace.Reader { return workload.NewGemm(style, g, lanes, kseed, 0) }
			kernel(m, workload.NewGemm(style, g, lanes, kseed, 0).Name(), mk)
		}
		for _, phase := range workload.ConvPhases() {
			mk := func() trace.Reader { return workload.NewConv(style, conv, phase, lanes, kseed, 0) }
			kernel(m, workload.NewConv(style, conv, phase, lanes, kseed, 0).Name(), mk)
		}
	}

	const gangCores = 4
	m := config.SKX()
	cfg := workload.ConvTrain()[6]
	label := fmt.Sprintf("SKX/conv-fwd-%s-smp%d", cfg.Name, gangCores)
	jobs = append(jobs, &simJob{
		label: label, name: label, machine: m, opts: opts, cores: gangCores,
		reader: func(tid int) trace.Reader {
			c := workload.NewConv(workload.StyleSKX, cfg, workload.ConvFwd, m.Core.VectorLanes,
				uint64(tid)*977+13+k*7919, 20_000)
			// Remainder tiles give the threads different paces, so the
			// faster ones wait at barriers.
			c.SetExtraOverhead(tid % 3)
			return trace.NewLimit(c, uops)
		},
		key: kernelKey(m, opts, fmt.Sprintf("%s/k%d/uops%d", label, k, uops)),
	})
	return jobs
}

// simWorkloads maps the simulator workload names to their input builders.
var simWorkloads = map[string]func(k uint64) []*simJob{
	"spec-mem":        specMemJobs,
	"wrongpath-study": wrongPathJobs,
	"deepbench-flops": deepBenchJobs,
}

// stepTimes collects the traced run's per-step timings of the result path.
type stepTimes struct {
	key, run, encode, put, get, decode latencies
}

// simRun runs passes of one simulator workload. A pass is the workload's
// study as a cached sweep runs it: each simulation is a miss (key,
// simulate, encode, store in the memory result tier), then every result is
// read back as a hit (get, decode).
type simRun struct {
	workload string
	k        uint64
	jobs     []*simJob
	dg       *digests
	cache    *resultcache.Cache

	miss, hit latencies // every sample, for the printed distributions
	// bestMiss and bestHit hold each simulation's fastest miss and hit over
	// the passes; jobUops its committed uops.
	bestMiss, bestHit []time.Duration
	jobUops           []uint64
	passWall          []float64 // seconds
	passUops          []float64 // committed uops per pass
	attempted, failed int
	errs              []string
	steps             stepTimes
}

func newSimRun(workload string, k uint64, dg *digests) *simRun {
	jobs := simWorkloads[workload](k)
	return &simRun{
		workload: workload, k: k, jobs: jobs, dg: dg,
		cache: resultcache.New(resultcache.NewMemory(64<<20), nil),
		miss:  latencies{name: "miss"}, hit: latencies{name: "hit"},
		bestMiss: make([]time.Duration, len(jobs)), bestHit: make([]time.Duration, len(jobs)),
		jobUops: make([]uint64, len(jobs)),
	}
}

// keepBest records d as job i's best when it is the fastest so far.
func keepBest(best []time.Duration, i int, d time.Duration) {
	if best[i] == 0 || d < best[i] {
		best[i] = d
	}
}

func (r *simRun) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// pass runs the study once, on the hand-assembled core when tr is non-nil.
func (r *simRun) pass(tr *tracer) time.Duration {
	start := time.Now()
	keys := make([]resultcache.Key, len(r.jobs))
	encs := make([][]byte, len(r.jobs))
	var uops uint64
	for i, j := range r.jobs {
		label := fmt.Sprintf("%s/%d/%s", r.workload, r.k, j.label)
		r.attempted++
		t0 := time.Now()
		key, err := j.key()
		t1 := time.Now()
		var res sim.Result
		if tr != nil {
			res, err = j.runTraced(tr)
		} else {
			res = j.run()
		}
		t2 := time.Now()
		if err == nil {
			err = res.Err
		}
		var enc []byte
		if err == nil {
			enc, err = export.EncodeResult(&res, j.name)
		}
		t3 := time.Now()
		if err == nil {
			err = r.cache.Put(key, enc)
		}
		t4 := time.Now()
		r.miss.add(t4.Sub(t0))
		if tr != nil {
			r.steps.key.add(t1.Sub(t0))
			r.steps.run.add(t2.Sub(t1))
			r.steps.encode.add(t3.Sub(t2))
			r.steps.put.add(t4.Sub(t3))
		}
		if err == nil {
			err = r.dg.check(label, enc)
		}
		if err != nil {
			r.fail("%s: %v", label, err)
			continue
		}
		keys[i], encs[i] = key, enc
		uops += res.Stats.Committed
		r.jobUops[i] = res.Stats.Committed
		keepBest(r.bestMiss, i, t4.Sub(t0))
	}
	for i, j := range r.jobs {
		if encs[i] == nil {
			continue
		}
		r.attempted++
		t0 := time.Now()
		payload, ok := r.cache.Get(keys[i])
		t1 := time.Now()
		var err error
		if ok {
			_, _, err = export.DecodeResult(payload)
		}
		t2 := time.Now()
		r.hit.add(t2.Sub(t0))
		if tr != nil {
			r.steps.get.add(t1.Sub(t0))
			r.steps.decode.add(t2.Sub(t1))
		}
		switch {
		case !ok:
			r.fail("%s: result missing from the cache", j.label)
		case err != nil:
			r.fail("%s: decoding cached result: %v", j.label, err)
		case !bytes.Equal(payload, encs[i]):
			r.fail("%s: cached bytes differ from the stored result", j.label)
		default:
			keepBest(r.bestHit, i, t2.Sub(t0))
		}
	}
	wall := time.Since(start)
	r.passWall = append(r.passWall, wall.Seconds())
	r.passUops = append(r.passUops, float64(uops))
	return wall
}

// minPasses is the fewest passes a run measures, however long they take.
const minPasses = 3

// setupSimWorkload builds a pass's inputs and hand-assembled simulators
// (machines, generators, hierarchies, predictors, cores, accountants)
// without running them, and returns how long that took.
func setupSimWorkload(workload string, k uint64) (time.Duration, error) {
	start := time.Now()
	tr := newTracer()
	for _, j := range simWorkloads[workload](k) {
		if _, err := j.key(); err != nil {
			return 0, err
		}
		if _, err := assemble(j.machine, j.cores, j.reader, j.opts, tr); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// setupRepeats is how many times a run sets up before its first pass; it
// sets up once more before every pass. Like the other metrics, setup_s is
// the fastest repetition: one set-up takes milliseconds, and other tenants
// stretch single repetitions by up to a factor of three, in spells that
// repetitions spread over the whole run can escape.
const setupRepeats = 5

func runSimWorkload(workload string, seed uint64, seconds float64, traced bool, dg *digests) (*report, error) {
	k := seed % poolSize
	rep := &report{}
	r := newSimRun(workload, k, dg)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	if !traced {
		best := time.Duration(math.MaxInt64)
		setup := func() error {
			runtime.GC() // set up from a collected heap
			d, err := setupSimWorkload(workload, k)
			best = min(best, d)
			runtime.GC() // and leave no set-up garbage to the pass
			return err
		}
		for i := 0; i < setupRepeats; i++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		for len(r.passWall) < minPasses || time.Now().Before(deadline) {
			if err := setup(); err != nil {
				return nil, err
			}
			r.pass(nil)
		}
		rep.add("setup_s", best.Seconds(), "s")
		r.endToEnd(rep, time.Since(start))
		return rep, nil
	}

	runtime.GC()

	// Traced: alternate untraced and traced passes over the same inputs.
	// The untraced ones give the host counters and the overhead baseline.
	clock := calibrateClock()
	tr := newTracer()
	var plain, timed []float64
	var ms0, ms1 runtime.MemStats
	var allocBytes, pauseNs, plainUops uint64
	for len(timed) < minPasses || time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms0)
		n := len(r.passUops)
		plain = append(plain, r.pass(nil).Seconds())
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		plainUops += uint64(r.passUops[n])
		timed = append(timed, r.pass(tr).Seconds())
	}
	l := &layers{
		tr: tr, clock: clock, steps: &r.steps,
		hostAllocPerUop: float64(allocBytes) / float64(plainUops),
		hostPauseMsPerS: float64(pauseNs) / 1e6 / sum(plain),
		overheadPct:     100 * (median(timed)/median(plain) - 1),
	}
	l.emit(rep, workload)
	rep.attempted, rep.failed, rep.errs = r.attempted, r.failed, r.errs
	return rep, nil
}

// endToEnd reports the untraced run's end-to-end metrics from each
// simulation's best time over the passes. Noise from other tenants only
// ever slows a run down, so on a shared host the fastest of several
// repetitions is the steadiest estimate of the program's own speed (the
// rule timeit follows); the printed distributions keep every sample.
func (r *simRun) endToEnd(rep *report, wall time.Duration) {
	var missS, hitS []float64
	var pass time.Duration
	var uops uint64
	for i := range r.jobs {
		if r.bestMiss[i] == 0 || r.bestHit[i] == 0 {
			continue // failed in every pass; counted in failed
		}
		missS = append(missS, r.bestMiss[i].Seconds())
		hitS = append(hitS, r.bestHit[i].Seconds())
		pass += r.bestMiss[i] + r.bestHit[i]
		uops += r.jobUops[i]
	}
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("uops_per_s", float64(uops)/(sum(missS)), "uops/s")
	rep.add("req_per_s", float64(len(missS)+len(hitS))/pass.Seconds(), "1/s")
	rep.addPercentiles("hit", "us", 1e6, hitS)
	rep.addPercentiles("miss", "ms", 1e3, missS)
	rep.add("plan_p50_ms", 1000*pass.Seconds(), "ms")
	rep.notef("%d passes of %d simulations in %.1f s; metrics use each simulation's best of %d", len(r.passWall), len(r.jobs), wall.Seconds(), len(r.passWall))
	rep.notef("all samples: %s", r.hit.describe(time.Microsecond, "us"))
	rep.notef("all samples: %s", r.miss.describe(time.Millisecond, "ms"))
	rep.attempted, rep.failed, rep.errs = r.attempted, r.failed, r.errs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

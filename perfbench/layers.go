package main

import (
	"errors"
	"fmt"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/mem"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
)

// clockBase anchors now(): time.Since reads the monotonic clock only.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// calibrateClock returns the cost in ns of one clock read, the fixed
// overhead a timed call's measured interval contains.
func calibrateClock() float64 {
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		t0 := now()
		xs[i] = float64(now() - t0)
	}
	return median(xs)
}

// sampleMask times one call in sampleMask+1 for layers whose calls are
// short enough that a clock read would swamp them.
const sampleMask = 15

// layerStat accumulates one layer's calls and the time of its timed calls.
type layerStat struct {
	// mask selects the timed calls: those whose 1-based count c has
	// c&mask == 0 (mask 0 times every call).
	mask      uint64
	calls     uint64
	sampled   uint64
	sampledNs int64
	// work counts the layer's work units where a call carries several
	// (uops delivered by the trace reader).
	work uint64
}

func (st *layerStat) begin() (t0 int64, timed bool) {
	st.calls++
	if st.calls&st.mask != 0 {
		return 0, false
	}
	return now(), true
}

func (st *layerStat) end(t0 int64) {
	st.sampled++
	st.sampledNs += now() - t0
}

// perCallNs estimates the mean duration of one call, less one clock read.
func (st *layerStat) perCallNs(clockNs float64) float64 {
	if st.sampled == 0 {
		return 0
	}
	return selfTime(float64(st.sampledNs)/float64(st.sampled), clockNs)
}

// totalNs extrapolates the timed calls to all calls.
func (st *layerStat) totalNs(clockNs float64) float64 {
	return st.perCallNs(clockNs) * float64(st.calls)
}

func (st *layerStat) merge(o *layerStat) {
	st.calls += o.calls
	st.sampled += o.sampled
	st.sampledNs += o.sampledNs
	st.work += o.work
}

// Accountant kinds, in the order sim.RunCustom attaches them.
const (
	acctCPI = iota
	acctFLOPS
	acctMemDepth
	acctStructural
	acctFetch
	numAccts
)

var acctNames = [numAccts]string{"cpi", "flops", "memdepth", "structural", "fetch"}

// tracer collects the per-layer counts and times of traced simulations.
// One tracer serves one goroutine; merge combines them.
type tracer struct {
	trace, bpred, l3, mem layerStat
	accts                 [numAccts]layerStat
	// runNs is the time spent in Core.Run (SMP.Run for gangs): every layer
	// above runs inside it.
	runNs int64
	// uops counts committed uops, warm-up included.
	uops uint64
	// cycles counts the cycles the CPI accountant's samples cover (a
	// batched idle-window sample covers Repeat cycles).
	cycles       uint64
	barrierWaits int64
	sims         int
}

func newTracer() *tracer {
	t := &tracer{}
	t.bpred.mask, t.l3.mask, t.mem.mask = sampleMask, sampleMask, sampleMask
	for i := range t.accts {
		t.accts[i].mask = sampleMask
	}
	return t
}

func (t *tracer) merge(o *tracer) {
	t.trace.merge(&o.trace)
	t.bpred.merge(&o.bpred)
	t.l3.merge(&o.l3)
	t.mem.merge(&o.mem)
	for i := range t.accts {
		t.accts[i].merge(&o.accts[i])
	}
	t.runNs += o.runNs
	t.uops += o.uops
	t.cycles += o.cycles
	t.barrierWaits += o.barrierWaits
	t.sims += o.sims
}

// timedReader times every ReadBatch call into the trace layer. It forwards
// Next, ReadBatch and Err, so the frontend ingests the same stream and
// trace.ErrOf still reaches the wrapped reader's fault.
type timedReader struct {
	r  trace.Reader
	br trace.BatchReader
	st *layerStat
}

func newTimedReader(r trace.Reader, st *layerStat) *timedReader {
	return &timedReader{r: r, br: trace.AsBatch(r), st: st}
}

func (t *timedReader) Next() (trace.Uop, bool) {
	t0, timed := t.st.begin()
	u, ok := t.br.Next()
	if timed {
		t.st.end(t0)
	}
	if ok {
		t.st.work++
	}
	return u, ok
}

func (t *timedReader) ReadBatch(dst []trace.Uop) int {
	t0, timed := t.st.begin()
	n := t.br.ReadBatch(dst)
	if timed {
		t.st.end(t0)
	}
	t.st.work += uint64(n)
	return n
}

func (t *timedReader) Err() error { return trace.ErrOf(t.r) }

// timedPredictor samples Lookup calls into the branch predictor.
type timedPredictor struct {
	p  bpred.Predictor
	st *layerStat
}

func (t *timedPredictor) Lookup(u *trace.Uop) bpred.Outcome {
	t0, timed := t.st.begin()
	o := t.p.Lookup(u)
	if timed {
		t.st.end(t0)
	}
	return o
}

func (t *timedPredictor) Reset() { t.p.Reset() }

// timedLevel samples Access calls into a cache level.
type timedLevel struct {
	l  cache.Level
	st *layerStat
}

func (t *timedLevel) Access(req cache.Request) cache.Result {
	t0, timed := t.st.begin()
	r := t.l.Access(req)
	if timed {
		t.st.end(t0)
	}
	return r
}

func (t *timedLevel) ResetState() { t.l.ResetState() }

// timedAcct samples Cycle calls into an accountant; the CPI accountant's
// wrapper also counts the cycles its samples cover.
type timedAcct struct {
	a      cpu.Accountant
	st     *layerStat
	cycles *uint64
}

func (t *timedAcct) Cycle(s *core.CycleSample) {
	if t.cycles != nil {
		if s.Repeat > 1 {
			*t.cycles += uint64(s.Repeat)
		} else {
			*t.cycles++
		}
	}
	t0, timed := t.st.begin()
	t.a.Cycle(s)
	if timed {
		t.st.end(t0)
	}
}

// accountants holds one core's attached accountants.
type accountants struct {
	cpi        *core.MultiStageAccountant
	flops      *core.FLOPSAccountant
	memDepth   *core.MemDepthAccountant
	structural *core.StructuralAccountant
	fetch      *core.FetchAccountant
}

// attach builds and attaches the accountants opts requests, in
// sim.RunCustom's order, each behind a timing wrapper.
func attach(c *cpu.Core, m config.Machine, opts sim.Options, tr *tracer) accountants {
	var a accountants
	add := func(kind int, acct cpu.Accountant) {
		w := &timedAcct{a: acct, st: &tr.accts[kind]}
		if kind == acctCPI {
			w.cycles = &tr.cycles
		}
		c.Attach(w)
	}
	width := m.Core.MinWidth()
	if opts.CPI {
		a.cpi = core.NewMultiStageAccountant(core.Options{Width: width, Scheme: opts.Scheme})
		add(acctCPI, a.cpi)
	}
	if opts.FLOPS {
		a.flops = core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes)
		add(acctFLOPS, a.flops)
	}
	if opts.MemDepth {
		a.memDepth = core.NewMemDepthAccountant(width)
		add(acctMemDepth, a.memDepth)
	}
	if opts.Structural {
		a.structural = core.NewStructuralAccountant(width)
		add(acctStructural, a.structural)
	}
	if opts.Fetch {
		a.fetch = core.NewFetchAccountant(width)
		add(acctFetch, a.fetch)
	}
	return a
}

// finalize writes the accountants' stacks into res as sim.RunCustom does.
func (a accountants) finalize(res *sim.Result) {
	if a.cpi != nil {
		res.Stacks = a.cpi.Finalize(0)
	}
	if a.flops != nil {
		res.FLOPS = a.flops.Finalize()
	}
	if a.memDepth != nil {
		res.MemDepth = a.memDepth.Finalize()
	}
	if a.structural != nil {
		res.Structural = a.structural.Finalize()
	}
	if a.fetch != nil {
		res.Fetch = a.fetch.Finalize()
	}
}

// newPredictor mirrors the simulator's predictor choice; tournament is nil
// for a perfect predictor.
func newPredictor(m config.Machine) (p bpred.Predictor, tournament *bpred.Tournament) {
	if m.Core.PerfectBpred {
		return bpred.Perfect{}, nil
	}
	t := bpred.NewTournament(m.Bpred)
	return t, t
}

// traceErr derives a finished core's Result.Err the way the simulator does
// for an uncanceled run.
func traceErr(r trace.Reader, committed uint64) (err error, truncated bool) {
	if terr := trace.ErrOf(r); terr != nil {
		return fmt.Errorf("sim: trace ended abnormally after %d committed uops: %w", committed, terr),
			errors.Is(terr, trace.ErrTruncated)
	}
	return nil, false
}

// gang is a hand-assembled core (n == 1) or SMP gang, built as
// sim.RunCustom and sim.RunSMP build theirs — the L3 from cache.New over
// cache.MemLevel, handed to cache.NewHierarchyShared — with a timing
// wrapper around every interface the cores accept.
type gang struct {
	m          config.Machine
	opts       sim.Options
	cores      []*cpu.Core
	readers    []trace.Reader
	accts      []accountants
	tournament *bpred.Tournament // the single core's predictor, for Result.Bpred
}

// assemble builds an n-core gang. The uncore is scaled as sim.RunSMP
// scales it (n per-core L3 shares over n memory bandwidth shares), which
// for n == 1 is the single core's own L3 and memory.
func assemble(m config.Machine, n int, mk func(tid int) trace.Reader, opts sim.Options, tr *tracer) (*gang, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Hierarchy.SliceCount() != 1 {
		return nil, fmt.Errorf("traced assembly supports a monolithic L3 only")
	}
	m.Core.WrongPath = opts.WrongPath
	l3cfg := m.Hierarchy.L3
	l3cfg.SizeBytes *= n
	l3cfg.MSHRs *= n
	memCfg := m.Hierarchy.Mem
	if memCfg.CyclesPerLine > 0 {
		memCfg.CyclesPerLine /= int64(n)
		if memCfg.CyclesPerLine < 1 {
			memCfg.CyclesPerLine = 1
		}
	}
	memory := mem.NewChannels(memCfg, m.Hierarchy.ChannelCount())
	l3 := &timedLevel{l: cache.New(l3cfg, &timedLevel{l: cache.MemLevel(memory), st: &tr.mem}), st: &tr.l3}

	acctOpts := opts
	if n > 1 {
		// Gangs measure CPI and FLOPS stacks only.
		acctOpts.MemDepth, acctOpts.Structural, acctOpts.Fetch = false, false, false
	}
	g := &gang{m: m, opts: opts, cores: make([]*cpu.Core, n), readers: make([]trace.Reader, n), accts: make([]accountants, n)}
	for i := range g.cores {
		hier := cache.NewHierarchyShared(m.Hierarchy, l3)
		pred, tournament := newPredictor(m)
		g.tournament = tournament
		g.readers[i] = newTimedReader(mk(i), &tr.trace)
		c := cpu.New(m.Core, hier, &timedPredictor{p: pred, st: &tr.bpred}, g.readers[i])
		c.SetNoSkip(opts.NoSkip)
		g.accts[i] = attach(c, m, acctOpts, tr)
		c.SetWarmup(opts.WarmupUops)
		g.cores[i] = c
	}
	return g, nil
}

// run simulates the gang to completion and returns its result in the
// single-result shape (a gang's result folded by foldSMP).
func (g *gang) run(tr *tracer) sim.Result {
	t0 := now()
	if len(g.cores) == 1 {
		g.cores[0].Run()
	} else {
		cpu.NewSMP(g.cores).Run()
	}
	tr.runNs += now() - t0
	tr.sims++
	for _, c := range g.cores {
		tr.uops += c.Stats.Committed
		tr.barrierWaits += c.Stats.BarrierWaits
	}

	if len(g.cores) == 1 {
		c := g.cores[0]
		res := sim.Result{Machine: g.m.Name, Stats: c.Stats}
		res.Err, res.Truncated = traceErr(g.readers[0], c.Stats.Committed)
		g.accts[0].finalize(&res)
		if g.tournament != nil {
			res.Bpred = g.tournament.Stats
		}
		return res
	}

	n := len(g.cores)
	res := sim.SMPResult{Machine: g.m.Name, PerCore: make([]cpu.Stats, n), PerCoreErr: make([]error, n)}
	for i, c := range g.cores {
		res.PerCore[i] = c.Stats
		res.PerCoreErr[i], _ = traceErr(g.readers[i], c.Stats.Committed)
		if res.Err == nil && res.PerCoreErr[i] != nil {
			res.Err = fmt.Errorf("sim: core %d: %w", i, res.PerCoreErr[i])
		}
	}
	if g.opts.CPI {
		stacks := make([][]core.Stack, core.NumStages)
		for st := range stacks {
			stacks[st] = make([]core.Stack, n)
		}
		for i := range g.cores {
			ms := g.accts[i].cpi.Finalize(0)
			for st := core.Stage(0); st < core.NumStages; st++ {
				stacks[st][i] = ms.Stacks[st]
			}
		}
		agg := &core.MultiStack{}
		for st := core.Stage(0); st < core.NumStages; st++ {
			agg.Stacks[st] = core.AverageStacks(stacks[st])
		}
		res.Stacks = agg
	}
	if g.opts.FLOPS {
		fs := make([]core.FLOPSStack, n)
		for i := range g.accts {
			fs[i] = g.accts[i].flops.Finalize()
		}
		res.FLOPS = core.AverageFLOPSStacks(fs)
	}
	return foldSMP(res)
}

// foldSMP folds a gang result into the single-result wire shape the simd
// service encodes: averaged stacks pass through, counters are summed and
// Cycles is the slowest core's.
func foldSMP(smp sim.SMPResult) sim.Result {
	res := sim.Result{Machine: smp.Machine, Stacks: smp.Stacks, FLOPS: smp.FLOPS, Err: smp.Err}
	for _, st := range smp.PerCore {
		if st.Cycles > res.Stats.Cycles {
			res.Stats.Cycles = st.Cycles
		}
		res.Stats.Committed += st.Committed
		res.Stats.Loads += st.Loads
		res.Stats.Stores += st.Stores
		res.Stats.Branches += st.Branches
		res.Stats.Mispredicts += st.Mispredicts
		res.Stats.WrongPathUops += st.WrongPathUops
		res.Stats.SquashedUops += st.SquashedUops
		res.Stats.VFPUops += st.VFPUops
		res.Stats.FLOPs += st.FLOPs
		res.Stats.BarrierWaits += st.BarrierWaits
		res.Stats.ICacheStallCycles += st.ICacheStallCycles
	}
	return res
}

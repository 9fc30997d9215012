// Package sim ties the substrates together: it instantiates a machine
// configuration (core, predictor, hierarchy), runs a workload trace through
// it with the requested accountants attached, and returns the measured
// stacks and statistics. All experiment drivers and examples build on this
// package.
package sim

import (
	"context"
	"errors"
	"fmt"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/mem"
	"perfstacks/internal/trace"
)

// Options selects what to measure during a run.
type Options struct {
	// CPI enables multi-stage CPI stack accounting.
	CPI bool
	// FLOPS enables FLOPS stack accounting.
	FLOPS bool
	// MemDepth enables the per-level D-cache breakdown accountant.
	MemDepth bool
	// Structural enables the issue-stage structural stall breakdown.
	Structural bool
	// Fetch enables the optional fetch/decode-stage CPI stack.
	Fetch bool
	// Scheme selects the wrong-path accounting scheme (§III-B).
	Scheme core.WrongPathScheme
	// WrongPath selects the pipeline's wrong-path model.
	WrongPath cpu.WrongPathMode
	// WarmupUops runs the first N uops without accounting, warming caches
	// and predictors as the paper's fast-forward phase does.
	WarmupUops uint64
	// NoSkip disables event-driven idle-window skipping, forcing the core
	// to iterate every cycle of every stall window. Results are bit-identical
	// either way (see TestSkipEquivalence); the flag exists as a debugging
	// escape hatch and for measuring the skipping speedup.
	NoSkip bool
	// Context, when non-nil, lets the run be canceled cooperatively: the
	// step loop polls it every few thousand steps (off the per-cycle hot
	// path) and a canceled run returns with Result.Err wrapping ErrCanceled.
	// A context already done before the run starts cancels it at once.
	Context context.Context
}

// Default measures multi-stage CPI stacks with oracle wrong-path handling on
// a functional-first pipeline — the paper's primary setup.
func Default() Options {
	return Options{CPI: true}
}

// Result holds everything measured in one run.
type Result struct {
	// Machine names the configuration.
	Machine string
	// Stacks is the multi-stage CPI stack (nil unless Options.CPI).
	Stacks *core.MultiStack
	// FLOPS is the FLOPS stack (zero unless Options.FLOPS).
	FLOPS core.FLOPSStack
	// MemDepth is the per-level D-cache breakdown (zero unless
	// Options.MemDepth).
	MemDepth core.MemDepthStack
	// Structural is the issue-stage structural breakdown (zero unless
	// Options.Structural).
	Structural core.StructuralStack
	// Fetch is the fetch-stage CPI stack (zero unless Options.Fetch).
	Fetch core.Stack
	// Stats is the pipeline statistics.
	Stats cpu.Stats
	// Bpred is the branch predictor statistics.
	Bpred bpred.Stats
	// Err is non-nil when the run ended abnormally: the trace reader
	// reported a stream fault after draining (trace.ErrOf), or the run was
	// canceled (wrapping ErrCanceled). The stacks and statistics then cover
	// only the uops delivered before the fault — plausible-looking but
	// partial data — and must not be reported as a complete measurement.
	Err error
	// Truncated is set when Err stems from a torn trace file
	// (trace.ErrTruncated): the input was cut short rather than malformed.
	Truncated bool
}

// CPIOf is the run's measured CPI: post-warmup when CPI stacks were
// collected, whole-run otherwise.
func (r *Result) CPIOf() float64 {
	if r.Stacks != nil {
		return r.Stacks.Stacks[0].TotalCPI()
	}
	return r.Stats.CPI()
}

// newPredictor builds the predictor for a machine (perfect when idealized).
func newPredictor(m config.Machine) bpred.Predictor {
	if m.Core.PerfectBpred {
		return bpred.Perfect{}
	}
	return bpred.NewTournament(m.Bpred)
}

// ErrCanceled marks a run stopped early through Options.Context. Test with
// errors.Is; the wrapped chain carries the context's own cause.
var ErrCanceled = errors.New("sim: run canceled")

// runErr derives the Result error contract for one finished core run:
// cancellation first (the trace state is then unknowable), a reader stream
// fault otherwise, nil for a clean end of trace.
func runErr(tr trace.Reader, canceled bool, ctx context.Context, committed uint64) (err error, truncated bool) {
	if canceled {
		return fmt.Errorf("%w after %d committed uops: %w", ErrCanceled, committed, ctx.Err()), false
	}
	if terr := trace.ErrOf(tr); terr != nil {
		return fmt.Errorf("sim: trace ended abnormally after %d committed uops: %w", committed, terr),
			errors.Is(terr, trace.ErrTruncated)
	}
	return nil, false
}

// Run simulates tr on machine m and returns the measurements.
func Run(m config.Machine, tr trace.Reader, opts Options) Result {
	return RunCustom(m, tr, opts, core.Options{
		Width:  m.Core.MinWidth(),
		Scheme: opts.Scheme,
	})
}

// pendingBound is the most uops the speculative scheme can hold buffered
// at once on core p (core.Options.PendingBound), as DESIGN §5 derives it:
// twice the attribution-target changes that can still own a live entry,
// 10·ROB+4 since the youngest committed uop was dispatched plus
// 6·ROB+4·FEQueue+2 in the current wrong-path episode, rounded up. The
// measured peaks are 2.2–2.9·ROB.
func pendingBound(p cpu.Params) int {
	return 32*p.ROBSize + 8*p.FEQueueSize + 16
}

// RunCustom is Run with explicit accountant options; the ablation studies
// use it to disable the paper's width normalization.
func RunCustom(m config.Machine, tr trace.Reader, opts Options, acctOpts core.Options) Result {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	acctOpts.PendingBound = pendingBound(m.Core)
	m.Core.WrongPath = opts.WrongPath
	hier := cache.NewHierarchy(m.Hierarchy)
	pred := newPredictor(m)
	c := cpu.New(m.Core, hier, pred, tr)
	c.SetNoSkip(opts.NoSkip)
	if opts.Context != nil {
		c.SetContext(opts.Context)
	}

	var cpiAcct *core.MultiStageAccountant
	if opts.CPI {
		cpiAcct = core.NewMultiStageAccountant(acctOpts)
		c.Attach(cpiAcct)
	}
	var flopsAcct *core.FLOPSAccountant
	if opts.FLOPS {
		flopsAcct = core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes)
		c.Attach(flopsAcct)
	}
	var depthAcct *core.MemDepthAccountant
	if opts.MemDepth {
		depthAcct = core.NewMemDepthAccountant(m.Core.MinWidth())
		c.Attach(depthAcct)
	}
	var structAcct *core.StructuralAccountant
	if opts.Structural {
		structAcct = core.NewStructuralAccountant(m.Core.MinWidth())
		c.Attach(structAcct)
	}
	var fetchAcct *core.FetchAccountant
	if opts.Fetch {
		fetchAcct = core.NewFetchAccountant(m.Core.MinWidth())
		c.Attach(fetchAcct)
	}
	c.SetWarmup(opts.WarmupUops)

	// A context already done never starts the run: Core.Run polls only
	// every few thousand steps, so a short trace would otherwise complete
	// under a canceled context and come back without ErrCanceled.
	stats, canceled := c.Stats, opts.Context != nil && opts.Context.Err() != nil
	if !canceled {
		stats = c.Run()
		canceled = c.Canceled()
	}

	res := Result{Machine: m.Name, Stats: stats}
	res.Err, res.Truncated = runErr(tr, canceled, opts.Context, stats.Committed)
	if cpiAcct != nil {
		// Finalize with the accountant's own post-warmup commit count.
		res.Stacks = cpiAcct.Finalize(0)
	}
	if flopsAcct != nil {
		res.FLOPS = flopsAcct.Finalize()
	}
	if depthAcct != nil {
		res.MemDepth = depthAcct.Finalize()
	}
	if structAcct != nil {
		res.Structural = structAcct.Finalize()
	}
	if fetchAcct != nil {
		res.Fetch = fetchAcct.Finalize()
	}
	if t, ok := pred.(*bpred.Tournament); ok {
		res.Bpred = t.Stats
	}
	return res
}

// SMPResult aggregates a multi-core run: per-component averages over the
// homogeneous threads, as the paper aggregates (§IV, last ¶).
type SMPResult struct {
	Machine string
	// Stacks is the component-wise average multi-stage CPI stack.
	Stacks *core.MultiStack
	// FLOPS is the component-wise average FLOPS stack.
	FLOPS core.FLOPSStack
	// PerCore holds per-core pipeline statistics.
	PerCore []cpu.Stats
	// Err is non-nil when any thread's trace faulted or the gang was
	// canceled (the first error in core order; the aggregated stacks then
	// hold partial data). PerCoreErr pins each fault to its thread.
	Err        error
	PerCoreErr []error
}

// TotalFLOPs sums FLOPs over all cores.
func (r *SMPResult) TotalFLOPs() uint64 {
	var t uint64
	for _, s := range r.PerCore {
		t += s.FLOPs
	}
	return t
}

// RunSMP simulates n homogeneous cores sharing an L3 slice pool and memory.
// makeTrace builds the per-thread trace (typically the same generator seeded
// per thread). The shared L3 capacity is the per-core slice times n, so the
// aggregate uncore matches the paper's scaled-uncore methodology.
func RunSMP(m config.Machine, n int, makeTrace func(tid int) trace.Reader, opts Options) SMPResult {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	m.Core.WrongPath = opts.WrongPath

	// Shared uncore: one L3 pool (n per-core shares, address-hashed into
	// m.Hierarchy.L3Slices slices) over one memory whose bandwidth is n
	// per-core shares spread across the slice-owned channels.
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
	sharedMem := mem.NewChannels(memCfg, m.Hierarchy.ChannelCount())
	sharedL3 := cache.NewSlicedL3(l3cfg, m.Hierarchy.SliceCount(), sharedMem)

	cores := make([]*cpu.Core, n)
	traces := make([]trace.Reader, n)
	cpiAccts := make([]*core.MultiStageAccountant, n)
	flopsAccts := make([]*core.FLOPSAccountant, n)
	for i := 0; i < n; i++ {
		hier := cache.NewHierarchyShared(m.Hierarchy, sharedL3)
		pred := newPredictor(m)
		traces[i] = makeTrace(i)
		c := cpu.New(m.Core, hier, pred, traces[i])
		// Gang cores skip idle windows on the SMP gang clock unless NoSkip
		// forces per-cycle lockstep.
		c.SetNoSkip(opts.NoSkip)
		if opts.CPI {
			cpiAccts[i] = core.NewMultiStageAccountant(core.Options{
				Width:        m.Core.MinWidth(),
				Scheme:       opts.Scheme,
				PendingBound: pendingBound(m.Core),
			})
			c.Attach(cpiAccts[i])
		}
		if opts.FLOPS {
			flopsAccts[i] = core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes)
			c.Attach(flopsAccts[i])
		}
		c.SetWarmup(opts.WarmupUops)
		cores[i] = c
	}

	smp := cpu.NewSMP(cores)
	if opts.Context != nil {
		smp.SetContext(opts.Context)
	}
	// As in RunCustom, a context already done never starts the gang.
	canceled := opts.Context != nil && opts.Context.Err() != nil
	if !canceled {
		smp.Run()
		canceled = smp.Canceled()
	}

	res := SMPResult{
		Machine:    m.Name,
		PerCore:    make([]cpu.Stats, n),
		PerCoreErr: make([]error, n),
	}
	for i, c := range cores {
		res.PerCore[i] = c.Stats
		res.PerCoreErr[i], _ = runErr(traces[i], canceled, opts.Context, c.Stats.Committed)
		if res.Err == nil && res.PerCoreErr[i] != nil {
			res.Err = fmt.Errorf("sim: core %d: %w", i, res.PerCoreErr[i])
		}
	}
	if opts.CPI {
		stacks := make([][]core.Stack, core.NumStages)
		for st := range stacks {
			stacks[st] = make([]core.Stack, n)
		}
		for i := range cores {
			ms := cpiAccts[i].Finalize(0)
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
	if opts.FLOPS {
		fs := make([]core.FLOPSStack, n)
		for i := range flopsAccts {
			fs[i] = flopsAccts[i].Finalize()
		}
		res.FLOPS = core.AverageFLOPSStacks(fs)
	}
	return res
}

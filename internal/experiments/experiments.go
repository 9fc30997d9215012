package experiments

import (
	"context"

	"perfstacks/internal/config"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// RunSpec sizes the simulations behind an experiment. The defaults mirror
// the paper's methodology scaled to interactive runtimes: a warm-up phase
// standing in for the 10-billion-instruction fast-forward, then a detailed
// window standing in for the 1-billion-instruction measurement.
type RunSpec struct {
	// Uops is the measured window length in uops.
	Uops uint64
	// Warmup is the unmeasured warm-up length in uops.
	Warmup uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// L3Slices address-hashes the SMP gangs' shared L3 into this many
	// slices, each with its own memory channel (0 or 1 = monolithic). It
	// is a model knob: the partition changes which lines conflict, so
	// results differ between slice counts.
	L3Slices int
	// Ctx, when non-nil, cancels in-flight simulations cooperatively (the
	// graceful-shutdown path of cmd/experiments). A canceled experiment's
	// output is partial and must not be rendered as a result.
	Ctx context.Context
	// Cache, when non-nil, serves profile-driven simulations from the
	// content-addressed result cache (shared with cmd/sweep and simd) and
	// stores fresh results back. Simulations are deterministic, so a cached
	// rerun renders identical tables and figures.
	Cache *resultcache.Cache
}

// DefaultSpec returns the standard experiment sizing.
func DefaultSpec() RunSpec {
	return RunSpec{Uops: 300_000, Warmup: 200_000}
}

// QuickSpec returns a reduced sizing for tests.
func QuickSpec() RunSpec {
	return RunSpec{Uops: 60_000, Warmup: 40_000}
}

func (s RunSpec) workers() int { return runner.Workers(s.Parallelism) }

// ctx returns the spec's context (never nil).
func (s RunSpec) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// runSPEC simulates a named SPEC-like profile on a machine (with optional
// idealizations) under the spec's sizing, serving from the spec's result
// cache when one is attached.
func runSPEC(spec RunSpec, m config.Machine, prof workload.Profile, opts sim.Options) sim.Result {
	opts.WarmupUops = spec.Warmup
	opts.Context = spec.Ctx
	if spec.Cache != nil {
		res, _ := resultcache.RunSPEC(spec.Cache, m, prof, spec.Warmup+spec.Uops, opts)
		return res
	}
	tr := trace.NewLimit(workload.NewGenerator(prof), spec.Warmup+spec.Uops)
	return sim.Run(m, tr, opts)
}

// cpiOf runs a profile and returns the measured (post-warm-up) CPI.
func cpiOf(spec RunSpec, m config.Machine, prof workload.Profile) float64 {
	r := runSPEC(spec, m, prof, sim.Default())
	return r.CPIOf()
}

// parallel runs n jobs across the spec's worker pool (the shared
// internal/runner scheduler; results are index-ordered by construction).
// Experiment jobs are pure in-memory computations, so a job failure is a
// programming error: the supervisor's recovered panics are re-raised here
// rather than silently dropped. Jobs skipped by a canceled spec context
// simply leave their slots empty — the cmd layer checks the context before
// rendering.
func parallel(spec RunSpec, n int, job func(i int)) {
	failed := runner.Run(spec.ctx(), spec.workers(), n, func(_ context.Context, i int) error {
		job(i)
		return nil
	})
	for i := range failed {
		panic(failed[i].Error())
	}
}

// mustProfile fetches a named profile or panics (experiment tables are
// static; a missing name is a programming error).
func mustProfile(name string) workload.Profile {
	p, ok := workload.SPECProfile(name)
	if !ok {
		panic("unknown workload profile: " + name)
	}
	return p
}

// Command experiments regenerates the paper's tables and figures on the
// simulator: Table I, Figures 1-5, the accounting-overhead claim of §IV and
// the wrong-path accounting scheme study of §III-B.
//
// Like cmd/sweep, the driver is fault tolerant: SIGINT and SIGTERM cancel
// in-flight simulations cooperatively, and with -cache every completed
// profile-driven simulation is stored in the content-addressed result cache,
// so rerunning the same command resumes an interrupted run (tableI,
// figure1-3 and wrongpath replay from the cache; figure4, figure5, ablation
// and overhead re-run). A panicking experiment is isolated into a
// structured error and the command exits non-zero.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run tableI     # one experiment: tableI, figure1..figure5,
//	                            # overhead, wrongpath
//	experiments -uops 500000 -warmup 300000 -quick=false
//	experiments -run figure2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	experiments -cache DIR      # rerun to resume after ^C
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"perfstacks/internal/experiments"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
)

func main() {
	run := flag.String("run", "all", "experiment: all, tableI, figure1, figure2, figure3, figure4, figure5, overhead, wrongpath, ablation")
	uops := flag.Uint64("uops", 0, "measured uops per simulation (0 = default)")
	warmup := flag.Uint64("warmup", 0, "warm-up uops per simulation (0 = default)")
	quick := flag.Bool("quick", false, "use the reduced test sizing")
	par := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	l3Slices := flag.Int("l3-slices", 0, "address-hash the SMP shared L3 (figure5) into this many slices, a power of two (0 or 1 = monolithic)")
	benchJSON := flag.String("benchjson", "", "write per-experiment wall-time stats as JSON to this file (- for stderr)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (shared with simd and sweep)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("start CPU profile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: write heap profile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec := experiments.DefaultSpec()
	if *quick {
		spec = experiments.QuickSpec()
	}
	if *uops > 0 {
		spec.Uops = *uops
	}
	if *warmup > 0 {
		spec.Warmup = *warmup
	}
	spec.Parallelism = *par
	if s := *l3Slices; s < 0 || (s > 1 && s&(s-1) != 0) {
		fmt.Fprintf(os.Stderr, "experiments: -l3-slices must be a power of two, got %d\n", s)
		os.Exit(2)
	}
	spec.L3Slices = *l3Slices
	spec.Ctx = ctx
	if *cacheDir != "" {
		disk, err := resultcache.NewDisk(*cacheDir)
		if err != nil {
			fatal(err)
		}
		spec.Cache = resultcache.New(resultcache.NewMemory(64<<20), disk)
	}

	all := map[string]func() string{
		"tableI":    func() string { return experiments.TableI(spec).Render() },
		"figure1":   func() string { return experiments.Figure1(spec).Render() },
		"figure2":   func() string { return experiments.Figure2(spec).Render() },
		"figure3":   func() string { return experiments.Figure3(spec).Render() },
		"figure4":   func() string { return experiments.Figure4(spec).Render() },
		"figure5":   func() string { return experiments.Figure5(spec).Render() },
		"overhead":  func() string { return experiments.Overhead(spec, 3).Render() },
		"wrongpath": func() string { return experiments.WrongPath(spec).Render() },
		"ablation":  func() string { return experiments.Ablation(spec).Render() },
	}
	order := []string{"tableI", "figure1", "figure2", "figure3", "figure4", "figure5", "overhead", "wrongpath", "ablation"}

	names := order
	if *run != "all" {
		if _, ok := all[*run]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s)", *run, strings.Join(order, ", ")))
		}
		names = []string{*run}
	}

	// Experiments run sequentially through the shared supervisor (each one
	// parallelizes its simulations internally via spec.Parallelism); the
	// timed report carries per-experiment wall time for -benchjson, and a
	// panicking experiment becomes a JobError instead of a crash.
	outputs := make([]string, len(names))
	completed := make([]bool, len(names))
	report := runner.RunTimed(ctx, 1, len(names),
		func(jctx context.Context, i int) (string, uint64, error) {
			name := names[i]
			outputs[i] = all[name]()
			if jctx.Err() != nil {
				// Canceled mid-experiment: the rendered output covers
				// partial simulations and must not be reported.
				return name, 0, fmt.Errorf("experiment interrupted: %w", jctx.Err())
			}
			completed[i] = true
			return name, 0, nil
		})

	for i, name := range names {
		if !completed[i] {
			continue
		}
		fmt.Printf("===== %s (%.1fs) =====\n%s\n", name, report.Jobs[i].WallSeconds, outputs[i])
	}
	if *benchJSON != "" {
		out := os.Stderr
		if *benchJSON != "-" {
			f, err := os.Create(*benchJSON)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fatal(err)
		}
	}

	var missing int
	for _, done := range completed {
		if !done {
			missing++
		}
	}
	switch {
	case report.Failed():
		for i := range report.Errors {
			fmt.Fprintln(os.Stderr, "experiments:", report.Errors[i].Error())
		}
		os.Exit(1)
	case missing > 0:
		hint := "; pass -cache DIR next time to keep completed simulations across an interrupt"
		if *cacheDir != "" {
			hint = fmt.Sprintf("; completed simulations are cached, rerun with -cache %s to resume", *cacheDir)
		}
		fmt.Fprintf(os.Stderr, "experiments: interrupted with %d of %d experiments missing%s\n",
			missing, len(names), hint)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

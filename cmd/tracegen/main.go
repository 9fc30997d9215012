// Command tracegen materializes a synthetic workload into the binary trace
// file format, inspects trace files, and replays them through the simulator.
// The file format is the interchange point for driving the simulator with
// externally captured instruction streams.
//
// Usage:
//
//	tracegen -workload mcf -uops 500000 -o mcf.trace    # generate
//	tracegen -inspect mcf.trace                         # summarize
//	tracegen -replay mcf.trace -machine BDW             # simulate
package main

import (
	"flag"
	"fmt"
	"os"

	"perfstacks/internal/config"
	"perfstacks/internal/experiments"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

func main() {
	wl := flag.String("workload", "mcf", "workload profile to materialize")
	uops := flag.Uint64("uops", 500_000, "uops to write")
	out := flag.String("o", "", "output trace file (generate mode)")
	inspect := flag.String("inspect", "", "trace file to summarize")
	replay := flag.String("replay", "", "trace file to simulate")
	machine := flag.String("machine", "BDW", "machine for -replay")
	warm := flag.Uint64("warmup", 0, "warm-up uops for -replay")
	flag.Parse()

	switch {
	case *inspect != "":
		inspectFile(*inspect)
	case *replay != "":
		replayFile(*replay, *machine, *warm)
	case *out != "":
		generate(*wl, *uops, *out)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: need one of -o, -inspect or -replay")
		os.Exit(1)
	}
}

func generate(wl string, uops uint64, out string) {
	prof, ok := workload.SPECProfile(wl)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", wl))
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		fatal(err)
	}
	n, err := trace.Copy(w, trace.NewLimit(workload.NewGenerator(prof), uops), 0)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d uops of %s to %s\n", n, prof.Name, out)
}

func inspectFile(path string) {
	s, err := summarize(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d uops, %d FLOPs\n", path, s.total, s.flops)
	for op, n := range s.ops {
		if n == 0 {
			continue
		}
		fmt.Printf("  %-10s %8d (%.1f%%)\n", trace.Op(op), n, 100*float64(n)/float64(s.total))
	}
}

// summary tallies a trace file's uops.
type summary struct {
	ops          [256]uint64 // uops per Op, which is a uint8
	flops, total uint64
}

// summarize reads a whole trace file. A stream that ends on a fault (a
// torn record, an I/O error) returns the error instead of a partial count.
func summarize(path string) (summary, error) {
	var s summary
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	r, err := trace.NewFileReader(f)
	if err != nil {
		return s, err
	}
	for {
		u, ok := r.Next()
		if !ok {
			break
		}
		s.ops[u.Op]++
		s.flops += uint64(u.FLOPs())
		s.total++
	}
	return s, r.Err()
}

func replayFile(path, machine string, warm uint64) {
	m, err := config.ByName(machine)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewFileReader(f)
	if err != nil {
		fatal(err)
	}
	opts := sim.Default()
	opts.WarmupUops = warm
	res := sim.Run(m, r, opts)
	if res.Err != nil {
		// Covers both decode faults (torn file) and I/O errors: the stacks
		// then describe a truncated stream, not the recorded workload.
		fatal(res.Err)
	}
	fmt.Printf("%s on %s: %d uops, CPI %.3f\n\n", path, m.Name, res.Stats.Committed, res.CPIOf())
	fmt.Print(experiments.RenderMultiStack(res.Stacks))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

// Command perfbench is the perfstacks benchmark. It runs one named workload
// for a fixed time from a seed, checks every result against the digests
// recorded in testdata/expected.json, and prints its metrics, the last
// line being one JSON object:
//
//	perfbench -workload spec-mem -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same inputs on a hand-assembled core whose every layer is wrapped in
// a timer, and reports the per-layer metrics and the per-uop budget.
// README.md explains the workloads and metrics. -record rewrites the
// digest file from the program as built.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: spec-mem, wrongpath-study, deepbench-flops or simd-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 12, "measured time in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced, per-layer measurement")
		record  = flag.String("record", "", "record the expected digests of every input set to this file and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, record string) error {
	if record != "" {
		return recordDigests(record)
	}
	dg, err := loadDigests()
	if err != nil {
		return err
	}
	fmt.Println(hostFingerprint())
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%t\n", name, seed, seconds, traced)
	var rep *report
	switch {
	case simWorkloads[name] != nil:
		rep, err = runSimWorkload(name, seed, seconds, traced, dg)
	case name == "simd-mix":
		rep, err = runSimdMix(seed, seconds, traced, dg)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

func workloadNames() []string {
	names := []string{"simd-mix"}
	for n := range simWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// recordDigests runs every input set of every workload once and writes
// their digests.
func recordDigests(path string) error {
	dg := newRecorder()
	for _, name := range workloadNames() {
		if name == "simd-mix" {
			if err := recordSimdMix(dg); err != nil {
				return err
			}
			continue
		}
		for k := uint64(0); k < poolSize; k++ {
			r := newSimRun(name, k, dg)
			r.pass(nil)
			if r.failed > 0 {
				return fmt.Errorf("recording %s/%d: %v", name, k, r.errs)
			}
		}
		fmt.Fprintf(os.Stderr, "recorded %s\n", name)
	}
	return dg.write(path)
}

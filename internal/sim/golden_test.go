package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/export"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the current simulator")

const digestFile = "testdata/digests.json"

// Every single-core cell runs goldenUops uops, the first goldenWarmup of
// them without accounting.
const (
	goldenUops   = 40_000
	goldenWarmup = 10_000
)

// goldenCell is one pinned simulation; run returns the bytes whose digest
// is pinned.
type goldenCell struct {
	name string
	run  func(t *testing.T) []byte
}

func encode(t *testing.T, res *sim.Result, wl string) []byte {
	t.Helper()
	b, err := export.EncodeResult(res, wl)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func machine(t *testing.T, name string) config.Machine {
	t.Helper()
	m, err := config.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// specCells: a branchy and a memory-bound profile on every machine with
// every optional CPI-side stack, under the oracle scheme without wrong-path
// uops (the paper's primary setup) and under each of the three schemes over
// synthesized wrong paths (the §III-B study).
func specCells() []goldenCell {
	type variant struct {
		scheme core.WrongPathScheme
		wp     cpu.WrongPathMode
		label  string
	}
	variants := []variant{
		{core.WrongPathOracle, cpu.WrongPathNone, "oracle/none"},
		{core.WrongPathOracle, cpu.WrongPathSynth, "oracle/synth"},
		{core.WrongPathSimple, cpu.WrongPathSynth, "simple/synth"},
		{core.WrongPathSpeculative, cpu.WrongPathSynth, "speculative/synth"},
	}
	var cells []goldenCell
	for _, wl := range []string{"deepsjeng", "mcf"} {
		for _, mn := range []string{"BDW", "KNL", "SKX"} {
			for _, v := range variants {
				cells = append(cells, goldenCell{wl + "/" + mn + "/" + v.label, func(t *testing.T) []byte {
					prof, ok := workload.SPECProfile(wl)
					if !ok {
						t.Fatalf("unknown profile %q", wl)
					}
					opts := sim.Options{CPI: true, Fetch: true, MemDepth: true, Structural: true,
						Scheme: v.scheme, WrongPath: v.wp, WarmupUops: goldenWarmup}
					res := sim.Run(machine(t, mn), trace.NewLimit(workload.NewGenerator(prof), goldenUops), opts)
					return encode(t, &res, wl)
				}})
			}
		}
	}
	return cells
}

// wideCells: a big-loop profile under the three schemes over synthesized
// wrong paths, and the memory-bound profile with a perfect D-cache and
// single-cycle ALUs, where every producer completes one cycle after it
// issues and wakeups run at their tightest.
func wideCells() []goldenCell {
	var cells []goldenCell
	for _, mn := range []string{"BDW", "KNL"} {
		for _, v := range []struct {
			scheme core.WrongPathScheme
			label  string
		}{
			{core.WrongPathOracle, "oracle/synth"},
			{core.WrongPathSimple, "simple/synth"},
			{core.WrongPathSpeculative, "speculative/synth"},
		} {
			cells = append(cells, goldenCell{"cactuBSSN/" + mn + "/" + v.label, func(t *testing.T) []byte {
				prof, ok := workload.SPECProfile("cactuBSSN")
				if !ok {
					t.Fatal("unknown profile cactuBSSN")
				}
				opts := sim.Options{CPI: true, Fetch: true, MemDepth: true, Structural: true,
					Scheme: v.scheme, WrongPath: cpu.WrongPathSynth, WarmupUops: goldenWarmup}
				res := sim.Run(machine(t, mn), trace.NewLimit(workload.NewGenerator(prof), goldenUops), opts)
				return encode(t, &res, "cactuBSSN")
			}})
		}
	}
	for _, mn := range []string{"BDW", "SKX"} {
		cells = append(cells, goldenCell{"mcf/" + mn + "/perfect-dcache+1cyc-alu", func(t *testing.T) []byte {
			prof, ok := workload.SPECProfile("mcf")
			if !ok {
				t.Fatal("unknown profile mcf")
			}
			m := machine(t, mn).Apply(config.Idealize{PerfectDCache: true, SingleCycleALU: true})
			opts := sim.Options{CPI: true, Fetch: true, MemDepth: true, Structural: true, WarmupUops: goldenWarmup}
			res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), goldenUops), opts)
			return encode(t, &res, "mcf")
		}})
	}
	return cells
}

// familyCells: one profile from each remaining workload family on BDW with
// CPI and fetch stacks: a streaming floating-point profile and a
// front-end-bound one, whose large code footprint keeps the fetch stack's
// I-cache and branch components busy.
func familyCells() []goldenCell {
	var cells []goldenCell
	for _, wl := range []string{"lbm", "gcc-1"} {
		cells = append(cells, goldenCell{wl + "/BDW/cpi+fetch", func(t *testing.T) []byte {
			prof, ok := workload.SPECProfile(wl)
			if !ok {
				t.Fatalf("unknown profile %q", wl)
			}
			opts := sim.Options{CPI: true, Fetch: true, WarmupUops: goldenWarmup}
			res := sim.Run(machine(t, "BDW"), trace.NewLimit(workload.NewGenerator(prof), goldenUops), opts)
			return encode(t, &res, wl)
		}})
	}
	return cells
}

// kernelCells: one GEMM and one convolution kernel with CPI and FLOPS stacks
// on the two vector machines, in each machine's code style. They reach the
// FLOPS stack's oldest-waiting-VFP signals (Table III).
func kernelCells() []goldenCell {
	var cells []goldenCell
	for _, mn := range []string{"KNL", "SKX"} {
		style := workload.StyleSKX
		if mn == "KNL" {
			style = workload.StyleKNL
		}
		kernels := []struct {
			kind string
			mk   func(lanes int) trace.Reader
		}{
			{"gemm", func(lanes int) trace.Reader {
				return workload.NewGemm(style, workload.GemmTrain()[0], lanes, 1, 0)
			}},
			{"conv", func(lanes int) trace.Reader {
				return workload.NewConv(style, workload.ConvTrain()[1], workload.ConvFwd, lanes, 1, 0)
			}},
		}
		for _, k := range kernels {
			cells = append(cells, goldenCell{k.kind + "/" + mn + "/flops", func(t *testing.T) []byte {
				m := machine(t, mn)
				opts := sim.Options{CPI: true, FLOPS: true, Structural: true, WarmupUops: goldenWarmup}
				res := sim.Run(m, trace.NewLimit(k.mk(m.Core.VectorLanes), goldenUops), opts)
				return encode(t, &res, k.kind)
			}})
		}
	}
	return cells
}

// smpCells: a barrier-dense 3-core SKX convolution gang whose threads run at
// skewed paces, over one and over four L3 slices. The digest covers the
// averaged stacks and every core's statistics.
func smpCells() []goldenCell {
	const cores, uops = 3, 20_000
	var cells []goldenCell
	for _, slices := range []int{1, 4} {
		cells = append(cells, goldenCell{fmt.Sprintf("conv-smp%d/SKX/slices%d", cores, slices), func(t *testing.T) []byte {
			m := machine(t, "SKX")
			m.Hierarchy.L3Slices = slices
			cfg := workload.ConvTrain()[6]
			opts := sim.Options{CPI: true, FLOPS: true, WarmupUops: 5_000}
			res := sim.RunSMP(m, cores, func(tid int) trace.Reader {
				c := workload.NewConv(workload.StyleSKX, cfg, workload.ConvFwd, m.Core.VectorLanes,
					uint64(tid)*977+13, 5_000)
				c.SetExtraOverhead(tid % 3)
				return trace.NewLimit(c, uops)
			}, opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}})
	}
	return cells
}

// figure5Cells: Figure 5's 4-core SKX convolution-forward gang at its quick
// sizing, with all structures real and with a perfect D-cache.
func figure5Cells() []goldenCell {
	const cores, warmup, uops = 4, 40_000, 60_000
	var cells []goldenCell
	for _, perfectD := range []bool{false, true} {
		name := "figure5/SKX/all-real"
		if perfectD {
			name = "figure5/SKX/perfect-dcache"
		}
		cells = append(cells, goldenCell{name, func(t *testing.T) []byte {
			m := machine(t, "SKX").Apply(config.Idealize{PerfectDCache: perfectD})
			cfg := workload.ConvTrain()[6]
			opts := sim.Options{CPI: true, FLOPS: true, WarmupUops: warmup}
			res := sim.RunSMP(m, cores, func(tid int) trace.Reader {
				c := workload.NewConv(workload.StyleSKX, cfg, workload.ConvFwd, m.Core.VectorLanes,
					uint64(tid)*977+13, 20_000)
				c.SetExtraOverhead(tid % 3)
				return trace.NewLimit(c, warmup+uops)
			}, opts)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}})
	}
	return cells
}

// TestResultDigests pins the SHA-256 of each cell's encoded result, so a
// change to any result byte fails here. A deliberate change of results
// comes with a sim.SchemaVersion bump or a rerun with -update, explained in
// CHANGES.md.
func TestResultDigests(t *testing.T) {
	var cells []goldenCell
	for _, group := range [][]goldenCell{specCells(), wideCells(), familyCells(), kernelCells(), smpCells(), figure5Cells()} {
		cells = append(cells, group...)
	}
	got := make(map[string]string, len(cells))
	for _, c := range cells {
		sum := sha256.Sum256(c.run(t))
		got[c.name] = hex.EncodeToString(sum[:])
	}

	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(digestFile), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(digestFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for cell, w := range want {
		if g, ok := got[cell]; !ok {
			t.Errorf("%s: pinned but no longer run", cell)
		} else if g != w {
			t.Errorf("%s: digest %s, pinned %s", cell, g, w)
		}
	}
	for cell := range got {
		if _, ok := want[cell]; !ok {
			t.Errorf("%s: run but not pinned (rerun with -update)", cell)
		}
	}
}

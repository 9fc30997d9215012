package sensitivity

import (
	"context"
	"errors"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.SPECProfile(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	return prof
}

func TestPlanGeneration(t *testing.T) {
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells[0].Kind != KindBaseline {
		t.Fatalf("Cells[0] is %q, want baseline", p.Cells[0].Kind)
	}
	if !p.Opts.CPI {
		t.Fatal("NewPlan must force CPI accounting on")
	}
	// Every cell is a valid, distinct-from-baseline configuration.
	baseBytes, err := sim.CanonicalMachine(p.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	perParam := make(map[string]map[string]bool)
	ideals := make(map[core.Component]bool)
	for i, c := range p.Cells[1:] {
		if err := c.Machine.Validate(); err != nil {
			t.Fatalf("cell %d (%s/%s) invalid: %v", i+1, c.Param, c.Variant, err)
		}
		mb, err := sim.CanonicalMachine(c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		if string(mb) == string(baseBytes) {
			t.Fatalf("cell %s/%s is the baseline in disguise", c.Param, c.Variant)
		}
		if perParam[c.Param] == nil {
			perParam[c.Param] = make(map[string]bool)
		}
		if perParam[c.Param][string(mb)] {
			t.Fatalf("cell %s/%s duplicates another variant of the same parameter", c.Param, c.Variant)
		}
		perParam[c.Param][string(mb)] = true
		if c.Kind == KindIdeal {
			ideals[c.Component] = true
		}
	}
	for _, comp := range IdealComponents() {
		if !ideals[comp] {
			t.Errorf("no idealized endpoint cell for component %s", comp)
		}
	}
	// Every registry parameter contributes at least one cell on BDW.
	for _, par := range Parameters() {
		if len(perParam[par.Name]) == 0 {
			t.Errorf("parameter %s generated no cells", par.Name)
		}
	}
}

// TestIdealizeFor: each idealizable component maps to the one knob that
// removes it, and every other component to the all-real machine.
func TestIdealizeFor(t *testing.T) {
	want := map[core.Component]config.Idealize{
		core.CompBpred:  {PerfectBpred: true},
		core.CompICache: {PerfectICache: true},
		core.CompDCache: {PerfectDCache: true},
		core.CompALULat: {SingleCycleALU: true},
	}
	if len(IdealComponents()) != len(want) {
		t.Fatalf("IdealComponents() = %v, want the %d components with a knob", IdealComponents(), len(want))
	}
	for _, c := range IdealComponents() {
		if _, ok := want[c]; !ok {
			t.Errorf("IdealComponents lists %v, which has no knob", c)
		}
	}
	for _, c := range core.Components() {
		if got := IdealizeFor(c); got != want[c] {
			t.Errorf("IdealizeFor(%v) = %+v, want %+v", c, got, want[c])
		}
	}
}

func TestPlanParamSelection(t *testing.T) {
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{}, PlanOptions{Params: []string{"bpred"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells[1:] {
		if c.Param != "bpred_size" && c.Param != "mispredict_penalty" {
			t.Fatalf("group filter leaked parameter %q", c.Param)
		}
	}
	if _, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{}, PlanOptions{Params: []string{"warp_drive"}}); !errors.Is(err, sim.ErrBadValue) {
		t.Fatalf("unknown parameter: got %v, want ErrBadValue", err)
	}
}

// TestParametersIsACopy: the registry is built once, so a caller that
// edits the slice Parameters returns must not reach the next caller, and a
// call costs only that copy.
func TestParametersIsACopy(t *testing.T) {
	want := Parameters()
	got := Parameters()
	for i := range got {
		got[i].Name, got[i].Group, got[i].apply = "clobbered", "clobbered", nil
	}
	again := Parameters()
	if len(again) != len(want) {
		t.Fatalf("registry has %d entries after a caller's edit, want %d", len(again), len(want))
	}
	for i := range again {
		if again[i].Name != want[i].Name || again[i].Group != want[i].Group || again[i].apply == nil {
			t.Fatalf("entry %d = %s/%s after a caller's edit, want %s/%s", i, again[i].Name, again[i].Group, want[i].Name, want[i].Group)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Parameters() }); n != 1 {
		t.Fatalf("Parameters allocates %v times per call, want 1 (the copy)", n)
	}
}

func TestPlanVariantValidation(t *testing.T) {
	for _, bad := range [][]float64{{0}, {-2}, {1}, {65}, {2, 2}, {0.5, 2, 4, 8, 16, 32, 0.25, 0.125, 0.0625}} {
		if _, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{}, PlanOptions{Variants: bad}); !errors.Is(err, sim.ErrBadValue) {
			t.Errorf("variants %v: got %v, want ErrBadValue", bad, err)
		}
	}
	if _, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 0, sim.Options{}, PlanOptions{}); !errors.Is(err, sim.ErrBadValue) {
		t.Error("uops=0 must be rejected")
	}
}

func TestPlanNoEndpoints(t *testing.T) {
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{}, PlanOptions{NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Cells[1:] {
		if c.Kind != KindScale {
			t.Fatalf("NoEndpoints left a %s cell (%s/%s)", c.Kind, c.Param, c.Variant)
		}
	}
}

func TestPlanKeyBindsContents(t *testing.T) {
	mk := func(po PlanOptions, uops uint64) [32]byte {
		t.Helper()
		p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), uops, sim.Options{}, po)
		if err != nil {
			t.Fatal(err)
		}
		k, err := p.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a := mk(PlanOptions{Params: []string{"bpred"}}, 10_000)
	b := mk(PlanOptions{Params: []string{"bpred"}}, 10_000)
	if a != b {
		t.Fatal("identical plans derived different keys")
	}
	if a == mk(PlanOptions{Params: []string{"bpred"}}, 20_000) {
		t.Fatal("trace length did not change the plan key")
	}
	if a == mk(PlanOptions{Params: []string{"bpred"}, Variants: []float64{0.25, 4}}, 10_000) {
		t.Fatal("variant set did not change the plan key")
	}
	if a == mk(PlanOptions{Params: []string{"caches"}}, 10_000) {
		t.Fatal("parameter set did not change the plan key")
	}
}

func TestPlanHundredCells(t *testing.T) {
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 10_000, sim.Options{},
		PlanOptions{Variants: []float64{0.25, 0.5, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) < 100 {
		t.Fatalf("extended plan has %d cells, want >= 100", len(p.Cells))
	}
	if len(p.Cells) > MaxCells {
		t.Fatalf("extended plan has %d cells, above MaxCells=%d", len(p.Cells), MaxCells)
	}
}

// TestPlanCellKeys checks that NewPlan's once-per-plan cell keys are the
// shared derivation: every cell's Key is the SimKey a plain simulate
// request for its machine would use.
func TestPlanCellKeys(t *testing.T) {
	for _, po := range []PlanOptions{{}, {Params: []string{"caches", "mispredict_penalty"}, Variants: []float64{0.25, 4}}} {
		p, err := NewPlan(config.SKX(), mustProfile(t, "gcc-1"), 7_000, sim.Options{WarmupUops: 1_000}, po)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[resultcache.Key]bool, len(p.Cells))
		for _, c := range p.Cells {
			want, err := resultcache.SimKey(c.Machine, p.Profile, p.Uops, p.Opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.Key != want {
				t.Errorf("params %v: cell %s/%s: Key %s, SimKey %s", po.Params, c.Param, c.Variant, c.Key, want)
			}
			if seen[c.Key] {
				t.Errorf("params %v: cell %s/%s repeats a key", po.Params, c.Param, c.Variant)
			}
			seen[c.Key] = true
		}
	}
}

// TestZeroCellKeyRejected checks that a cell without a key is refused, not
// looked up: every hand-built cell would otherwise share the zero key's
// cache entry.
func TestZeroCellKeyRejected(t *testing.T) {
	p := testPlan(t, PlanOptions{Params: []string{"rob_size"}}, 3_000)
	cache := resultcache.New(resultcache.NewMemory(1<<20), nil)
	cell := p.Cells[0]
	cell.Key = resultcache.Key{}
	if _, err := LocalRunner(nil, cache)(context.Background(), p, cell); !errors.Is(err, ErrNoCellKey) {
		t.Fatalf("LocalRunner on a zero key: %v, want ErrNoCellKey", err)
	}
	if st := cache.Stats.Snapshot(); st.Hits()+st.Misses != 0 {
		t.Fatalf("LocalRunner looked the zero key up: %+v", st)
	}
	p.Cells[1].Key = resultcache.Key{}
	if _, err := p.Key(); !errors.Is(err, ErrNoCellKey) {
		t.Fatalf("Plan.Key with a zero cell key: %v, want ErrNoCellKey", err)
	}
}

// BenchmarkNewPlanKey measures what a re-POSTed plan costs before any cell
// runs: expanding the default 79-cell mcf/BDW plan and deriving its key.
func BenchmarkNewPlanKey(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	m := config.BDW()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := NewPlan(m, prof, 5_000, sim.Options{}, PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Key(); err != nil {
			b.Fatal(err)
		}
	}
}

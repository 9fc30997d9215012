package workload

import (
	"testing"
	"testing/quick"

	"perfstacks/internal/trace"
)

func take(r trace.Reader, n int) []trace.Uop {
	out := make([]trace.Uop, 0, n)
	for i := 0; i < n; i++ {
		u, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := SPECProfile("mcf")
	a := take(NewGenerator(p), 5000)
	b := take(NewGenerator(p), 5000)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("uop %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeqDense(t *testing.T) {
	p, _ := SPECProfile("gcc-1")
	for i, u := range take(NewGenerator(p), 2000) {
		if u.Seq != uint64(i) {
			t.Fatalf("uop %d has Seq %d", i, u.Seq)
		}
	}
}

func TestProducersPrecedeConsumers(t *testing.T) {
	for _, name := range []string{"mcf", "povray", "imagick", "bwaves-1"} {
		p, _ := SPECProfile(name)
		for i, u := range take(NewGenerator(p), 5000) {
			for _, s := range u.Src {
				if s == trace.NoProducer {
					continue
				}
				if s >= uint64(i) {
					t.Fatalf("%s: uop %d reads future/self producer %d", name, i, s)
				}
			}
		}
	}
}

func TestInstructionMixRoughlyMatchesProfile(t *testing.T) {
	p, _ := SPECProfile("mcf")
	uops := take(NewGenerator(p), 50000)
	var loads, stores, branches int
	for _, u := range uops {
		switch {
		case u.Op == trace.OpLoad:
			loads++
		case u.Op == trace.OpStore:
			stores++
		case u.Op.IsBranch():
			branches++
		}
	}
	lf := float64(loads) / float64(len(uops))
	// Body fractions exclude the block-terminating branches; tolerate the
	// dilution plus sampling noise.
	if lf < p.LoadFrac*0.6 || lf > p.LoadFrac*1.2 {
		t.Fatalf("load fraction %.3f vs profile %.3f", lf, p.LoadFrac)
	}
	if branches == 0 || stores == 0 {
		t.Fatal("expected branches and stores in the mix")
	}
}

func TestBranchTargetsWithinCode(t *testing.T) {
	p, _ := SPECProfile("xalancbmk")
	for _, u := range take(NewGenerator(p), 10000) {
		if u.Op.IsBranch() && u.Taken {
			if u.Target == 0 {
				t.Fatal("taken branch without target")
			}
		}
	}
}

func TestPCsStayInCodeFootprint(t *testing.T) {
	p, _ := SPECProfile("deepsjeng")
	limit := uint64(codeBase) + uint64(p.CodeFootprint) + 4096
	for _, u := range take(NewGenerator(p), 20000) {
		if u.PC >= limit && u.PC < driverBase {
			t.Fatalf("PC %#x outside code footprint", u.PC)
		}
	}
}

func TestBarrierInsertion(t *testing.T) {
	p, _ := SPECProfile("mcf")
	p.BarrierEvery = 500
	barriers := 0
	for _, u := range take(NewGenerator(p), 10000) {
		if u.Op == trace.OpBarrier {
			barriers++
		}
	}
	if barriers < 10 || barriers > 30 {
		t.Fatalf("saw %d barriers in 10000 uops with BarrierEvery=500", barriers)
	}
}

func TestSPECProfilesComplete(t *testing.T) {
	ps := SPECProfiles()
	if len(ps) != 36 {
		t.Fatalf("got %d profiles, want 36 (the paper's benchmark-input count)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" {
			t.Fatal("profile without a name")
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"mcf", "cactuBSSN", "bwaves-1", "povray", "imagick", "fotonik3d-1", "roms-2"} {
		if !seen[want] {
			t.Fatalf("case-study profile %s missing", want)
		}
	}
}

func TestSPECProfileLookup(t *testing.T) {
	if _, ok := SPECProfile("mcf"); !ok {
		t.Fatal("mcf should exist")
	}
	if _, ok := SPECProfile("doom"); ok {
		t.Fatal("unknown profile should not resolve")
	}
	if len(SPECNames()) != 36 {
		t.Fatal("SPECNames should list all profiles")
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	p, _ := SPECProfile("mcf")
	q := p
	q.Seed++
	a := take(NewGenerator(p), 1000)
	b := take(NewGenerator(q), 1000)
	same := 0
	for i := range a {
		if a[i].Op == b[i].Op && a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: generated uops are structurally valid for any profile knobs.
func TestGeneratorStructuralProperty(t *testing.T) {
	f := func(seed uint64, loadF, chaseF uint8) bool {
		p := Profile{
			Name: "prop", Seed: seed,
			LoadFrac:      float64(loadF%50) / 100,
			StoreFrac:     0.1,
			ChaseFrac:     float64(chaseF%100) / 100,
			BranchEntropy: 0.1,
		}
		g := NewGenerator(p)
		for i := 0; i < 500; i++ {
			u, ok := g.Next()
			if !ok {
				return false
			}
			if u.Op.IsMem() && u.Addr == 0 {
				return false
			}
			for _, s := range u.Src {
				if s != trace.NoProducer && s >= u.Seq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSPECProfileTable checks that lookups read the table built once at
// init: SPECProfile allocates nothing, and neither a returned Profile nor a
// returned SPECProfiles slice aliases the table.
func TestSPECProfileTable(t *testing.T) {
	want, _ := SPECProfile("mcf")
	if n := testing.AllocsPerRun(100, func() { _, _ = SPECProfile("mcf") }); n != 0 {
		t.Errorf("SPECProfile allocates %v times, want 0", n)
	}
	p, _ := SPECProfile("mcf")
	p.Seed++
	p.LoadFrac = 0.9
	ps := SPECProfiles()
	for i := range ps {
		ps[i].Name = "mutated"
	}
	if got, ok := SPECProfile("mcf"); !ok || got != want {
		t.Fatalf("mutating returned profiles changed the next lookup: %+v, want %+v", got, want)
	}
	if SPECProfiles()[0].Name == "mutated" {
		t.Fatal("SPECProfiles returned the table itself")
	}
}

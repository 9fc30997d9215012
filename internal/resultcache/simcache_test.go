package resultcache

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

func benchSetup(t *testing.T) (config.Machine, workload.Profile, sim.Options) {
	t.Helper()
	m, err := config.ByName("BDW")
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := workload.SPECProfile("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	opts := sim.Default()
	opts.WarmupUops = 1000
	return m, prof, opts
}

func TestSimKeyStableAndSensitive(t *testing.T) {
	m, prof, opts := benchSetup(t)
	k1, err := SimKey(m, prof, 5000, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SimKey(m, prof, 5000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("SimKey not deterministic")
	}
	if k3, _ := SimKey(m, prof, 5001, opts); k3 == k1 {
		t.Fatal("uop budget not part of the key")
	}
	ideal := m.Apply(config.Idealize{PerfectBpred: true})
	if k4, _ := SimKey(ideal, prof, 5000, opts); k4 == k1 {
		t.Fatal("idealization not part of the key")
	}
	o2 := opts
	o2.FLOPS = true
	if k5, _ := SimKey(m, prof, 5000, o2); k5 == k1 {
		t.Fatal("options not part of the key")
	}
}

func TestRunSPECCacheRoundTrip(t *testing.T) {
	m, prof, opts := benchSetup(t)
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)

	cold, hit := RunSPEC(c, m, prof, 5000, opts)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if hit {
		t.Fatal("first run reported a cache hit")
	}
	warm, hit := RunSPEC(c, m, prof, 5000, opts)
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	if !hit {
		t.Fatal("second identical run missed the cache")
	}
	// The decoded result is the measurement, not an approximation of it.
	if !reflect.DeepEqual(cold.Stacks, warm.Stacks) || cold.Stats != warm.Stats {
		t.Fatal("cached result differs from the simulated one")
	}

	// A nil cache still simulates correctly.
	bare, hit := RunSPEC(nil, m, prof, 5000, opts)
	if bare.Err != nil || hit {
		t.Fatalf("nil-cache run: err=%v hit=%v", bare.Err, hit)
	}
	if !reflect.DeepEqual(bare.Stacks, cold.Stacks) {
		t.Fatal("nil-cache run diverged")
	}
}

// TestRunSPECResultCallerOwned: a cache hit hands back the caller's own
// copy of the memoized decode, so mutating its stacks leaves the next hit
// unchanged.
func TestRunSPECResultCallerOwned(t *testing.T) {
	m, prof, opts := benchSetup(t)
	c := New(NewMemory(1<<20), nil)
	cold, _ := RunSPEC(c, m, prof, 5000, opts)
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	warm, hit := RunSPEC(c, m, prof, 5000, opts)
	if !hit || warm.Stacks == nil {
		t.Fatalf("second run: hit=%v stacks=%v, want a hit with stacks", hit, warm.Stacks != nil)
	}
	want := *warm.Stacks
	warm.Stacks.Stacks[0].Comp[0] += 1e6
	warm.Stacks.Stacks[2].Cycles = -1
	again, hit := RunSPEC(c, m, prof, 5000, opts)
	if !hit {
		t.Fatal("third run missed")
	}
	if again.Stacks == warm.Stacks || *again.Stacks != want {
		t.Fatal("mutating one hit's stacks changed the next hit")
	}
}

// A canceled simulation is partial data and must never be cached: an
// interrupted sweep resumes by rerunning with the same cache, so a stored
// partial result would be replayed as a measurement.
func TestRunSPECNeverCachesCanceledRun(t *testing.T) {
	m, prof, opts := benchSetup(t)
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := opts
	canceled.Context = ctx
	res, hit := RunSPEC(c, m, prof, 5000, canceled)
	if !errors.Is(res.Err, sim.ErrCanceled) {
		t.Fatalf("Err = %v, want sim.ErrCanceled", res.Err)
	}
	if hit {
		t.Fatal("canceled run reported a cache hit")
	}
	if got := c.Stats.Stores.Load(); got != 0 {
		t.Fatalf("Stores = %d after a canceled run, want 0", got)
	}

	live := opts
	live.Context = context.Background()
	res, hit = RunSPEC(c, m, prof, 5000, live)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if hit {
		t.Fatal("live rerun hit the cache: the canceled run was stored")
	}
	if got := c.Stats.Stores.Load(); got != 1 {
		t.Fatalf("Stores = %d after the live rerun, want 1", got)
	}
}

// TestSimKeyAllocs gates the allocations of one key derivation: the
// canonical machine, option and workload buffers and the hash, not a
// string per encoded field or a rebuilt profile table.
func TestSimKeyAllocs(t *testing.T) {
	m, prof, opts := benchSetup(t)
	if _, err := SimKey(m, prof, 5000, opts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = SimKey(m, prof, 5000, opts) }); n > 8 {
		t.Errorf("SimKey allocates %v times, want <= 8", n)
	}
}

// BenchmarkSimKey measures one cache-key derivation, the work every
// generator-driven simulate request does before its cache lookup.
func BenchmarkSimKey(b *testing.B) {
	m, err := config.ByName("BDW")
	if err != nil {
		b.Fatal(err)
	}
	prof, _ := workload.SPECProfile("mcf")
	opts := sim.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimKey(m, prof, 5000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

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

package resultcache

import (
	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// SimKey derives the content address of a generator-driven simulation:
// canonical machine bytes, canonical option bytes, the workload generator's
// identity (profile plus uop budget — the generator is a pure function of
// the two) and the result schema version. Every consumer of the cache
// (simd, sweep, experiments, sensitivity plans) derives keys here or from
// the same two helpers, so they can share a cache directory and hit each
// other's entries.
func SimKey(m config.Machine, prof workload.Profile, uops uint64, opts sim.Options) (Key, error) {
	mb, err := sim.CanonicalMachine(m)
	if err != nil {
		return Key{}, err
	}
	ob, err := sim.CanonicalOptions(opts)
	if err != nil {
		return Key{}, err
	}
	wb, err := WorkloadBytes(prof, uops)
	if err != nil {
		return Key{}, err
	}
	return SimKeyOf(mb, ob, wb), nil
}

// WorkloadBytes returns the canonical identity of a generator workload: the
// whole Profile plus the uop budget.
func WorkloadBytes(prof workload.Profile, uops uint64) ([]byte, error) {
	return sim.CanonicalBytes("workload", struct {
		Profile workload.Profile
		Uops    uint64
	}{prof, uops})
}

// SimKeyOf composes a result key from canonical machine and option bytes
// (sim.CanonicalMachine, sim.CanonicalOptions) and the workload's identity:
// WorkloadBytes for a generator, a digest for a trace file. A caller keying
// many machines under one workload and option set encodes the shared parts
// once.
func SimKeyOf(machine, opts, wl []byte) Key {
	return KeyOf(machine, opts, wl, []byte(sim.SchemaVersion))
}

// RunSPEC serves a generator-driven simulation from the cache, simulating
// and storing on a miss. uops is the total trace length (warm-up included;
// the warm-up split lives in opts.WarmupUops). A nil cache degrades to a
// plain simulation; a cache entry that fails to decode (old schema,
// damaged payload) is treated as a miss and overwritten. hit reports
// whether the result came from the cache.
func RunSPEC(c *Cache, m config.Machine, prof workload.Profile, uops uint64, opts sim.Options) (res sim.Result, hit bool) {
	key, err := SimKey(m, prof, uops, opts)
	if err != nil {
		return sim.Result{Err: err}, false
	}
	if r, ok := c.Result(key); ok {
		// r is shared with every other reader of the entry: hand the caller
		// its own copy, Stacks included.
		res = *r
		if r.Stacks != nil {
			stacks := *r.Stacks
			res.Stacks = &stacks
		}
		return res, true
	}
	res = sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), uops), opts)
	if res.Err != nil {
		return res, false
	}
	payload, err := export.EncodeResult(&res, prof.Name)
	if err != nil {
		// The measurement stands even if it cannot be cached.
		return res, false
	}
	// Best effort: a full disk costs recomputation, not correctness.
	_ = c.Put(key, payload)
	return res, false
}

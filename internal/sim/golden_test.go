package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
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

// TestResultDigests pins the SHA-256 of export.EncodeResult for a corpus of
// cells, so a change to any result byte fails here. The corpus holds the
// wrong-path study's speculative scheme over synthesized wrong paths, for
// a branchy and a memory-bound profile on every machine, with every
// optional CPI-side stack. A deliberate change of results comes with a
// sim.SchemaVersion bump or a rerun with -update, explained in CHANGES.md.
func TestResultDigests(t *testing.T) {
	got := map[string]string{}
	for _, wl := range []string{"deepsjeng", "mcf"} {
		prof, ok := workload.SPECProfile(wl)
		if !ok {
			t.Fatalf("unknown profile %q", wl)
		}
		for _, mn := range []string{"BDW", "KNL", "SKX"} {
			m, err := config.ByName(mn)
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.Options{CPI: true, Fetch: true, MemDepth: true, Structural: true,
				Scheme: core.WrongPathSpeculative, WrongPath: cpu.WrongPathSynth, WarmupUops: 10_000}
			res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), 40_000), opts)
			b, err := export.EncodeResult(&res, wl)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[wl+"/"+mn+"/speculative/synth"] = hex.EncodeToString(sum[:])
		}
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

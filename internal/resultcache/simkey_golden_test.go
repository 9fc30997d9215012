package resultcache_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/service"
	"perfstacks/internal/sim"
	"perfstacks/internal/workload"
)

// simKeyGolden pins the hex content addresses of generator-driven runs.
// Existing disk caches and the X-Result-Key values clients hold are only
// valid while these stay put: a change here is a key-space break, which
// needs a sim.SchemaVersion bump, not an edit of this table.
var simKeyGolden = map[string]string{
	"BDW/mcf/default":       "1e4c952f3b86e184afd8b6efd36274a816755a33b89fe39ac36247885e6b411f",
	"BDW/mcf/full":          "2548f591433b02f18e8ae8ee132718a1e6107a5b5b05b7c36d391d37f06d5960",
	"BDW/deepsjeng/default": "1cff57efcf903f21009f34f20f1969815cd49c3a660feaeab121e1a64f083591",
	"BDW/deepsjeng/full":    "e68a37db9c884b7187506d70ba8f1d093b671f385e7962c6f6bee3055a57b3ef",
	"BDW/gcc-1/default":     "2445d9fe50f1de2f2b4da45e3ad7cc1e6fc620ef861db41231c46527ca602038",
	"BDW/gcc-1/full":        "88026eb8f8352e468cee6d1e7315b66391b1abef0ab35dad75a3864621bf83b2",
	"KNL/mcf/default":       "63240a486c4b7c0d4760089fa91c5d65f2c38244b9a181604f077dea190bdda2",
	"KNL/mcf/full":          "c3d5da5ba929ccd79a4bda51a3b60ba8f0b22a946292094b367a1efaecb17257",
	"KNL/deepsjeng/default": "20d17691e4a9988ab9b71bd889639c0250f2003ca22bc8ba619de2d30b108b73",
	"KNL/deepsjeng/full":    "f2542a9be8f8caeb9d1c614c3ec8961a5d3663bbb6aba48e22cadd4f4f3481ef",
	"KNL/gcc-1/default":     "b0a2160fbcdb7f7ea9adbf14b6b15a53f6a0196821784835e31c88d653aa613c",
	"KNL/gcc-1/full":        "0c2364cdf8d72e71bf0e59b8225897d1f0e27f256235dc7ef1193a01403d5b2c",
	"SKX/mcf/default":       "0e657a4eb1b3fec0ac515d461b5957ca8410d70eb4736d74d9bfd2f72ee48447",
	"SKX/mcf/full":          "cdef3718886724f6671e72d2209282656815ef26cddd3666fcca8c0b7048d602",
	"SKX/deepsjeng/default": "0c9572118b856973ea67cb837432aa86309e1fe25cb1314b52635f3840ef83b1",
	"SKX/deepsjeng/full":    "1748739830b67244b0b931f8688632e962a2671c85af9cfaec4de004d19cdfdf",
	"SKX/gcc-1/default":     "1087517ae40ad299a2c272a83921b28966a4a80146da45b159cf5cb06a982315",
	"SKX/gcc-1/full":        "8438e04d8e2a43d2e775197490f93b4a5a030ec6e00fdbadc1b9b78efc77a758",
}

// smpKeyGolden is the X-Result-Key simd serves for a 2-core mcf gang on a
// 2-slice SKX (2000 uops per core, default options).
const smpKeyGolden = "01c50fbf5856b8993ce8b74888e044eb39da2483c06939731ae02d9180a2dcb4"

// planKeyGolden is the default sensitivity plan's key: mcf on BDW, 5000
// uops, default options and plan options.
const planKeyGolden = "35d84fadde0d4bf0776bc6c936388cbf9cef77ed2daeb856a59480f0f3f35bd2"

// fullOptions turns on every stack, warm-up and the speculative scheme over
// a synthesized wrong path: every option field that reaches the key.
func fullOptions() sim.Options {
	return sim.Options{
		CPI: true, FLOPS: true, MemDepth: true, Structural: true, Fetch: true,
		Scheme:     core.WrongPathSpeculative,
		WrongPath:  cpu.WrongPathSynth,
		WarmupUops: 1000,
	}
}

// TestSimKeyGolden pins SimKey over BDW/KNL/SKX × {mcf, deepsjeng, gcc-1} ×
// {default, full} options, one SMP gang key through simd's resolve path,
// and the default plan key.
func TestSimKeyGolden(t *testing.T) {
	optSets := []struct {
		label string
		opts  sim.Options
	}{{"default", sim.Default()}, {"full", fullOptions()}}
	for _, mn := range []string{"BDW", "KNL", "SKX"} {
		m, err := config.ByName(mn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []string{"mcf", "deepsjeng", "gcc-1"} {
			prof, ok := workload.SPECProfile(wl)
			if !ok {
				t.Fatalf("unknown profile %q", wl)
			}
			for _, o := range optSets {
				name := mn + "/" + wl + "/" + o.label
				k, err := resultcache.SimKey(m, prof, 5000, o.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := k.String(), simKeyGolden[name]; got != want {
					t.Errorf("%s: SimKey %s, want %s", name, got, want)
				}
			}
		}
	}

	t.Run("smp", func(t *testing.T) {
		s, err := service.New(context.Background(), service.Config{CacheDir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		body := `{"machine":"SKX","workload":{"profile":"mcf","uops":2000},"smp":{"cores":2,"l3_slices":2}}`
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Result-Key"); got != smpKeyGolden {
			t.Errorf("smp gang key %s, want %s", got, smpKeyGolden)
		}
	})

	t.Run("plan", func(t *testing.T) {
		prof, _ := workload.SPECProfile("mcf")
		p, err := sensitivity.NewPlan(config.BDW(), prof, 5000, sim.Options{}, sensitivity.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		k, err := p.Key()
		if err != nil {
			t.Fatal(err)
		}
		if got := k.String(); got != planKeyGolden {
			t.Errorf("plan key %s, want %s", got, planKeyGolden)
		}
	})
}

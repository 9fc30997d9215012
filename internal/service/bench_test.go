package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

const benchBody = `{"machine":"BDW","workload":{"profile":"mcf","uops":100000}}`

// BenchmarkServiceCacheHit measures the full HTTP round trip for a request
// served from the in-memory result cache. Compare against
// BenchmarkServiceColdSim: the acceptance bar is a hit at least 100x
// faster than simulating (for mcf on BDW the real gap is several orders of
// magnitude).
func BenchmarkServiceCacheHit(b *testing.B) {
	s, err := New(context.Background(), Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	prime, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(benchBody))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, prime.Body)
	prime.Body.Close()
	if prime.StatusCode != http.StatusOK {
		b.Fatalf("prime request: %d", prime.StatusCode)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(benchBody))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServiceColdSim measures the same request when every iteration
// misses (each uses a distinct uop budget, so a distinct key): parse, key
// derivation, simulation, encoding and cache store.
func BenchmarkServiceColdSim(b *testing.B) {
	s, err := New(context.Background(), Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":%d}}`, 100000+i)
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkPlanRecompute measures a warm "recompute":true re-POST of the
// default 79-cell mcf/BDW/5000-uop sensitivity plan on a server with memory
// and disk tiers: every cell is a cache hit and the report bytes match the
// stored report. p50_us is the median request.
func BenchmarkPlanRecompute(b *testing.B) {
	s, err := New(context.Background(), Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"recompute":true}`
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/sensitivity", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // simulates every cell and stores the report
	post() // first recompute: decodes every cell once

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		post()
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50_us")
}

// BenchmarkResolveSensitivity measures resolving the default 79-cell
// mcf/BDW/5000-uop plan request: cold expands the plan and derives its key
// (sensitivity.NewPlan + Plan.Key), memo finds both in the plan memo.
func BenchmarkResolveSensitivity(b *testing.B) {
	req := &SensitivityRequest{Machine: "BDW", Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000}}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memoServer("").resolveSensitivity(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		s := memoServer("")
		if _, err := s.resolveSensitivity(req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.resolveSensitivity(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

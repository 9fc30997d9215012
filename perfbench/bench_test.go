package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/faultinject"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := supportedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestDescribeStatesSampleCount(t *testing.T) {
	l := latencies{name: "hit"}
	for i := 1; i <= 100; i++ {
		l.add(1000 * 1000 * 1000) // 1 s each
	}
	got := l.describe(1000*1000*1000, "s")
	if !strings.Contains(got, "n=100") || !strings.Contains(got, "p90 1 s") {
		t.Errorf("describe = %q, want the count and p90", got)
	}
	l.ds = l.ds[:5]
	if got := l.describe(1000*1000*1000, "s"); !strings.Contains(got, "n=5") || !strings.Contains(got, "too few") {
		t.Errorf("describe = %q, want the count and no tail percentile", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		total    float64
		children []float64
		want     float64
	}{
		{100, nil, 100},
		{100, []float64{30, 20}, 50},
		{100, []float64{60, 40}, 0},
		{10, []float64{30}, 0}, // sampled children overshooting a short parent
	} {
		if got := selfTime(tc.total, tc.children...); got != tc.want {
			t.Errorf("selfTime(%v, %v) = %v, want %v", tc.total, tc.children, got, tc.want)
		}
	}
}

func TestLayerStatExtrapolates(t *testing.T) {
	st := layerStat{mask: 3}
	for i := 0; i < 16; i++ {
		if t0, timed := st.begin(); timed {
			st.end(t0 - 100) // pretend each timed call took 100 ns more
		}
	}
	if st.calls != 16 || st.sampled != 4 {
		t.Fatalf("calls=%d sampled=%d, want 16 and 4", st.calls, st.sampled)
	}
	if got := st.totalNs(0); got < 16*100 {
		t.Errorf("totalNs = %v, want at least 1600", got)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# HELP simd_requests_total Requests served, by HTTP status code.
# TYPE simd_requests_total counter
simd_requests_total{code="200"} 12
simd_request_seconds_bucket{le="0.005"} 3
simd_request_seconds_sum 0.125
simd_sims_total 7

weird{label="a b"} 1.5e3
`
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		`simd_requests_total{code="200"}`:         12,
		`simd_request_seconds_bucket{le="0.005"}`: 3,
		`simd_request_seconds_sum`:                0.125,
		`simd_sims_total`:                         7,
		`weird{label="a b"}`:                      1500,
	} {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", k, got, ok, want)
		}
	}
	if len(m) != 5 {
		t.Errorf("parsed %d series, want 5", len(m))
	}
	if _, err := parseMetrics(strings.NewReader("simd_sims_total seven\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestParseLiveMetrics(t *testing.T) {
	s, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	m, err := newClient(s.url).metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"simd_sims_total", "simd_coalesced_total", "simd_shed_total"} {
		if v, ok := m[k]; !ok || v != 0 {
			t.Errorf("%s = %v (present %t), want 0 on a fresh server", k, v, ok)
		}
	}
}

var errInjected = errors.New("injected fault")

func TestTimedReaderSurfacesFault(t *testing.T) {
	gen := workload.NewGenerator(mustProfile("mcf"))
	st := &layerStat{}
	r := newTimedReader(faultinject.FailAfter(trace.NewLimit(gen, 10_000), 500, errInjected), st)
	buf := make([]trace.Uop, 64)
	for r.ReadBatch(buf) > 0 {
	}
	if err := trace.ErrOf(r); !errors.Is(err, errInjected) {
		t.Fatalf("trace.ErrOf(wrapped) = %v, want the injected fault", err)
	}
	if st.work != 500 {
		t.Errorf("delivered %d uops, want 500", st.work)
	}
}

func TestTracedCoreReportsFault(t *testing.T) {
	m := config.BDW()
	mk := func(int) trace.Reader {
		return faultinject.FailAfter(trace.NewLimit(workload.NewGenerator(mustProfile("mcf")), 10_000), 2_000, errInjected)
	}
	opts := sim.Options{CPI: true}
	g, err := assemble(m, 1, mk, opts, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	got := g.run(newTracer())
	want := sim.Run(m, mk(0), opts)
	if !errors.Is(got.Err, errInjected) {
		t.Fatalf("traced Result.Err = %v, want the injected fault", got.Err)
	}
	if want.Err == nil || got.Err.Error() != want.Err.Error() {
		t.Errorf("traced Result.Err = %q, simulator's = %v", got.Err, want.Err)
	}
}

// TestTracedMatchesSimulator checks that the hand-assembled, wrapped core
// encodes byte-identical results to the simulator's own entry points on
// one input set of every simulator workload.
func TestTracedMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full input set of every workload")
	}
	for name, jobs := range simWorkloads {
		for _, j := range jobs(5) {
			plain := j.run()
			traced, err := j.runTraced(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			a, err := export.EncodeResult(&plain, j.name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := export.EncodeResult(&traced, j.name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: traced result differs from the simulator's", name, j.label)
			}
		}
	}
}

func TestRecordedDigestsCoverPools(t *testing.T) {
	dg, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dg.file.Misses); n != missPool {
		t.Errorf("recorded %d fresh keys, want %d", n, missPool)
	}
	for name, jobs := range simWorkloads {
		for k := uint64(0); k < poolSize; k++ {
			for _, j := range jobs(k) {
				label := fmt.Sprintf("%s/%d/%s", name, k, j.label)
				if _, ok := dg.file.Results[label]; !ok {
					t.Errorf("no recorded digest for %s", label)
				}
			}
		}
	}
	if known, err := dg.checkMiss(missPool, []byte("x")); known || err != nil {
		t.Errorf("checkMiss beyond the pool = %t, %v; want unknown", known, err)
	}
	if err := dg.check("spec-mem/0/BDW/mcf", []byte("not a result")); err == nil {
		t.Error("a wrong payload passed the digest check")
	}
}

func TestFloors(t *testing.T) {
	ms := time.Millisecond
	var l latencies
	for _, s := range []struct {
		shape int
		d     time.Duration
	}{{0, 30 * ms}, {1, 5 * ms}, {0, 10 * ms}, {2, 7 * ms}, {1, 9 * ms}, {0, 20 * ms}} {
		l.addShape(s.shape, s.d)
	}
	got := l.floors()
	want := []float64{0.005, 0.007, 0.010}
	if len(got) != len(want) {
		t.Fatalf("floors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("floors = %v, want each shape's fastest, ascending: %v", got, want)
		}
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

func postSensitivity(t *testing.T, ts *httptest.Server, body, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sensitivity"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sensitivityBody is a small plan: the bpred group over mcf.
func sensitivityBody(extra string) string {
	return `{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"params":["bpred"]` + extra + `}`
}

// TestSensitivityEndToEnd: a plan posts, fans out, and returns the ranked
// report; an identical re-post is a plan-level cache hit with an identical
// body; recompute bypasses the report cache but is served almost entirely
// from the per-cell tier.
func TestSensitivityEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	r1 := postSensitivity(t, ts, sensitivityBody(""), "")
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first plan: %d: %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first plan X-Cache = %q, want miss", got)
	}
	var rep sensitivity.Report
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != sensitivity.ReportSchemaVersion || rep.BaselineCPI <= 0 {
		t.Fatalf("implausible report: version %q, baseline %v", rep.Version, rep.BaselineCPI)
	}
	if len(rep.Bounds) != 1 || rep.Bounds[0].Component != "Bpred" {
		t.Fatalf("bounds = %+v, want exactly the Bpred cross-check", rep.Bounds)
	}
	if rep.Summary.Cells != len(rep.Cells) || rep.Summary.Cells == 0 {
		t.Fatalf("summary/cells mismatch: %+v vs %d cells", rep.Summary, len(rep.Cells))
	}

	r2 := postSensitivity(t, ts, sensitivityBody(""), "")
	b2 := readAll(t, r2)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("re-post X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical plans returned different report bytes")
	}

	r3 := postSensitivity(t, ts, sensitivityBody(`,"recompute":true`), "")
	b3 := readAll(t, r3)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("recompute: %d: %s", r3.StatusCode, b3)
	}
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("recompute X-Cache = %q, want miss (report cache bypassed)", got)
	}
	var rep3 sensitivity.Report
	if err := json.Unmarshal(b3, &rep3); err != nil {
		t.Fatal(err)
	}
	if got, want := rep3.Summary.FromCache*100, 95*rep3.Summary.Cells; got < want {
		t.Fatalf("recompute served %d/%d cells from cache, want >= 95%%",
			rep3.Summary.FromCache, rep3.Summary.Cells)
	}
	// Measurements agree cell-for-cell with the original run.
	for i := range rep.Cells {
		if rep.Cells[i].CPI != rep3.Cells[i].CPI {
			t.Fatalf("cell %d CPI changed on recompute: %v vs %v", i, rep.Cells[i].CPI, rep3.Cells[i].CPI)
		}
	}

	waitForMetric(t, ts, `simd_sensitivity_plans_total{event="completed"} 2`)
	waitForMetric(t, ts, `simd_sensitivity_plans_total{event="report_cache_hit"} 1`)
}

// TestSensitivityValidation: malformed plans are 400s before any work.
func TestSensitivityValidation(t *testing.T) {
	var sims atomic.Int32
	_, ts := newTestServer(t, Config{}, func(s *Server) {
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			sims.Add(1)
			return sim.Result{}
		}
	})
	cases := []struct {
		name, body, wantSub string
	}{
		{"garbage", `not json`, "decoding request"},
		{"unknown field", `{"machine":"BDW","wat":1,"workload":{"profile":"mcf","uops":10}}`, "unknown field"},
		{"no workload", `{"machine":"BDW"}`, "generator workload"},
		{"unknown machine", `{"machine":"EPYC","workload":{"profile":"mcf","uops":10}}`, "EPYC"},
		{"unknown profile", `{"machine":"BDW","workload":{"profile":"nope","uops":10}}`, "unknown workload profile"},
		{"zero uops", `{"machine":"BDW","workload":{"profile":"mcf","uops":0}}`, "uops"},
		{"unknown param", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"params":["warp_drive"]}`, "warp_drive"},
		{"bad variant", `{"machine":"BDW","workload":{"profile":"mcf","uops":10},"variants":[1]}`, "variant"},
		{"trailing object", sensitivityBody("") + `{}`, "trailing data"},
		{"oversized trailing whitespace", sensitivityBody("") + strings.Repeat(" ", maxRequestBytes), "request body too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSensitivity(t, ts, tc.body, "")
			b := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, b)
			}
			if !strings.Contains(string(b), tc.wantSub) {
				t.Fatalf("error %s does not mention %q", b, tc.wantSub)
			}
		})
	}
	if got := sims.Load(); got != 0 {
		t.Fatalf("invalid plans ran %d simulations", got)
	}
}

// TestSensitivityStream: ?stream=1 emits one NDJSON cell event per cell and
// a terminal report event; a report-cache hit collapses to the report line.
func TestSensitivityStream(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	resp := postSensitivity(t, ts, sensitivityBody(""), "?stream=1")
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var rep *sensitivity.Report
	cells := 0
	for i, line := range lines {
		var ev struct {
			Event  string              `json:"event"`
			Done   int                 `json:"done"`
			Total  int                 `json:"total"`
			CPI    float64             `json:"cpi"`
			Report *sensitivity.Report `json:"report"`
			Error  string              `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v: %q", i, err, line)
		}
		switch ev.Event {
		case "cell":
			cells++
			if ev.CPI <= 0 || ev.Total == 0 {
				t.Fatalf("implausible cell event: %q", line)
			}
		case "report":
			rep = ev.Report
			if i != len(lines)-1 {
				t.Fatal("report event is not the terminal line")
			}
		default:
			t.Fatalf("unexpected event %q (error=%q)", ev.Event, ev.Error)
		}
	}
	if rep == nil {
		t.Fatal("stream never delivered the report")
	}
	if cells != rep.Summary.Cells {
		t.Fatalf("streamed %d cell events for %d cells", cells, rep.Summary.Cells)
	}

	// The finished report is now cached: a streamed re-post is a single line.
	resp2 := postSensitivity(t, ts, sensitivityBody(""), "?stream=1")
	body2 := readAll(t, resp2)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("streamed re-post X-Cache = %q, want hit", got)
	}
	if lines2 := strings.Split(strings.TrimSpace(string(body2)), "\n"); len(lines2) != 1 {
		t.Fatalf("cached stream sent %d lines, want 1", len(lines2))
	}
}

// TestSensitivityCancellation: a client that walks away mid-fan-out cancels
// the in-flight cells, frees the pool for other work, and leaves no partial
// report in the cache — on the buffered and the streamed path alike.
func TestSensitivityCancellation(t *testing.T) {
	for _, query := range []string{"", "?stream=1"} {
		t.Run("query="+query, func(t *testing.T) {
			simStarted := make(chan struct{}, 64)
			var blocking atomic.Bool
			blocking.Store(true)
			srv, ts := newTestServer(t, Config{Workers: 2}, func(s *Server) {
				inner := s.runSim
				s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
					if blocking.Load() {
						simStarted <- struct{}{}
						<-opts.Context.Done()
						return sim.Result{Err: fmt.Errorf("%w: canceled", sim.ErrCanceled)}
					}
					return inner(m, tr, opts)
				}
			})

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/sensitivity"+query, strings.NewReader(sensitivityBody("")))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			respErr := make(chan error, 1)
			go func() {
				_, err := http.DefaultClient.Do(req)
				respErr <- err
			}()
			<-simStarted
			cancel()
			if err := <-respErr; err == nil {
				t.Fatal("canceled plan returned a response")
			}
			waitForMetric(t, ts, `simd_sensitivity_plans_total{event="failed"} 1`)

			// The partial plan was not cached under its report key.
			sp, err := srv.resolveSensitivity(&SensitivityRequest{
				Machine:  "BDW",
				Workload: &WorkloadSpec{Profile: "mcf", Uops: 5000},
				Params:   []string{"bpred"},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := srv.cache.Get(sp.key); ok {
				t.Fatal("a canceled (partial) plan left a report in the cache")
			}

			// The pool slots the plan held are free again: an ordinary
			// simulate request completes promptly.
			blocking.Store(false)
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp := post(t, ts, simulateBody(t, ""))
				b := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("post-cancel simulate: %d: %s", resp.StatusCode, b)
				}
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("pool never freed its slots after plan cancellation")
			}
		})
	}
}

// TestSensitivityPlanShedding: plan slots are bounded separately from the
// simulation queue; a plan beyond MaxPlans is shed with 429 + Retry-After
// while the running plan is unaffected.
func TestSensitivityPlanShedding(t *testing.T) {
	simStarted := make(chan struct{}, 64)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 2, MaxPlans: 1}, func(s *Server) {
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			simStarted <- struct{}{}
			select {
			case <-release:
			case <-opts.Context.Done():
			}
			return sim.Result{Err: fmt.Errorf("%w: canceled", sim.ErrCanceled)}
		}
	})

	planDone := make(chan struct{})
	go func() {
		defer close(planDone)
		resp := postSensitivity(t, ts, sensitivityBody(""), "")
		readAll(t, resp)
	}()
	<-simStarted

	// A distinct plan must not coalesce; with the only slot busy it sheds.
	resp := postSensitivity(t, ts, `{"machine":"BDW","workload":{"profile":"mcf","uops":6000},"params":["bpred"]}`, "")
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second plan: %d: %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed plan carries no Retry-After")
	}
	close(release)
	<-planDone
}

// metricsLayout scrapes /metrics and returns its "# TYPE" lines (family
// and type, in exposition order) and the source labels of
// simd_sensitivity_cells_total, in order.
func metricsLayout(t *testing.T, ts *httptest.Server) (families, sources []string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(readAll(t, resp)), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, f)
		}
		if rest, ok := strings.CutPrefix(line, `simd_sensitivity_cells_total{source="`); ok {
			sources = append(sources, rest[:strings.IndexByte(rest, '"')])
		}
	}
	return families, sources
}

// TestSensitivityMetricsGating pins the /metrics page layout: a server
// that never saw a sensitivity request exposes exactly the base families
// and no sensitivity series, and one plan inserts exactly the sensitivity
// section, with one cell counter per result source.
func TestSensitivityMetricsGating(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	resp := post(t, ts, simulateBody(t, ""))
	readAll(t, resp)

	head := []string{
		"simd_requests_total counter",
		"simd_request_seconds histogram",
		"simd_cache_hits_total counter",
		"simd_cache_misses_total counter",
		"simd_cache_corrupt_total counter",
		"simd_cache_stores_total counter",
		"simd_sims_total counter",
		"simd_shed_total counter",
		"simd_canceled_total counter",
		"simd_coalesced_total counter",
	}
	sens := []string{
		"simd_sensitivity_plans_total counter",
		"simd_sensitivity_cells_total counter",
		"simd_sensitivity_plan_seconds histogram",
	}
	tail := []string{
		"simd_queue_depth gauge",
		"simd_active_jobs gauge",
		"simd_inflight_keys gauge",
	}
	families, sources := metricsLayout(t, ts)
	if want := slices.Concat(head, tail); !slices.Equal(families, want) {
		t.Fatalf("families before any plan:\n got %q\nwant %q", families, want)
	}
	if len(sources) != 0 {
		t.Fatalf("cell sources exposed before any plan: %q", sources)
	}

	readAll(t, postSensitivity(t, ts, sensitivityBody(""), ""))
	waitForMetric(t, ts, `simd_sensitivity_plans_total{event="completed"} 1`)
	families, sources = metricsLayout(t, ts)
	if want := slices.Concat(head, sens, tail); !slices.Equal(families, want) {
		t.Fatalf("families after one plan:\n got %q\nwant %q", families, want)
	}
	if want := []string{"sim", "cache", "coalesced"}; !slices.Equal(sources, want) {
		t.Fatalf("cell sources after one plan: got %q, want %q", sources, want)
	}
}

// TestRunPlanCellRejectsZeroKey checks that a plan cell without a key is
// refused before any cache lookup, so hand-built cells cannot all alias
// the zero key's entry.
func TestRunPlanCellRejectsZeroKey(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1}, nil)
	prof, _ := workload.SPECProfile("mcf")
	p, err := sensitivity.NewPlan(config.BDW(), prof, 3_000, sim.Options{}, sensitivity.PlanOptions{Params: []string{"rob_size"}})
	if err != nil {
		t.Fatal(err)
	}
	cell := p.Cells[0]
	cell.Key = resultcache.Key{}
	if _, err := s.runPlanCell(context.Background(), p, cell); !errors.Is(err, sensitivity.ErrNoCellKey) {
		t.Fatalf("runPlanCell on a zero key: %v, want ErrNoCellKey", err)
	}
	if st := s.cache.Stats.Snapshot(); st.Hits()+st.Misses != 0 {
		t.Fatalf("runPlanCell looked the zero key up: %+v", st)
	}
}

package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-second cold simulations.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// planBuckets are the sensitivity-plan wall-time histogram bounds in
// seconds: a plan is hundreds of simulations, so the range is shifted well
// past the per-request buckets.
var planBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// metrics holds the server's counters and gauges. Counters are atomics
// updated on the request path; the one map (status codes) takes a mutex
// because codes are few and writes are per-request, not per-cycle.
type metrics struct {
	mu    sync.Mutex
	codes map[int]uint64

	bucketCounts []atomic.Uint64 // len(latencyBuckets)+1, last = +Inf
	latencySum   atomic.Uint64   // microseconds
	latencyCount atomic.Uint64

	sims      atomic.Uint64 // simulations actually run
	shed      atomic.Uint64 // requests rejected with 429
	canceled  atomic.Uint64 // requests abandoned by the client
	coalesced atomic.Uint64 // requests served by another request's flight

	plansStarted    atomic.Uint64 // sensitivity plans admitted to a slot
	plansCompleted  atomic.Uint64 // plans that produced a report
	plansFailed     atomic.Uint64 // plans that errored or were canceled
	planReportHits  atomic.Uint64 // plans served whole from the report cache
	cellsSim        atomic.Uint64 // plan cells that simulated locally
	cellsCache      atomic.Uint64 // plan cells served from the result cache
	cellsCoalesced  atomic.Uint64 // plan cells that rode another flight
	planBucketSlots []atomic.Uint64
	planSum         atomic.Uint64 // microseconds
	planCount       atomic.Uint64

	queueDepth atomic.Int64 // runner pool queue gauge
	active     atomic.Int64 // runner pool active-jobs gauge
	inflight   func() int   // singleflight gauge (read at scrape time)
}

func newMetrics() *metrics {
	return &metrics{
		codes:           make(map[int]uint64),
		bucketCounts:    make([]atomic.Uint64, len(latencyBuckets)+1),
		planBucketSlots: make([]atomic.Uint64, len(planBuckets)+1),
	}
}

// observe records one finished request: its status code and wall time.
func (m *metrics) observe(code int, wall time.Duration) {
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
	s := wall.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	m.bucketCounts[i].Add(1)
	m.latencySum.Add(uint64(wall.Microseconds()))
	m.latencyCount.Add(1)
}

// observePlan records one completed sensitivity plan's wall time.
func (m *metrics) observePlan(wall time.Duration) {
	s := wall.Seconds()
	i := sort.SearchFloat64s(planBuckets, s)
	m.planBucketSlots[i].Add(1)
	m.planSum.Add(uint64(wall.Microseconds()))
	m.planCount.Add(1)
}

// cellSource tallies one plan cell by where its result came from. The
// source strings are the sensitivity.Source* constants; an unknown string
// counts as a simulation (the conservative reading).
func (m *metrics) cellSource(source string) {
	switch source {
	case "cache":
		m.cellsCache.Add(1)
	case "coalesced":
		m.cellsCoalesced.Add(1)
	default:
		m.cellsSim.Add(1)
	}
}

// sensitivityActive reports whether any sensitivity request ever touched
// this process. The /metrics section is gated on it so a node that never
// served a plan stays byte-compatible with the pre-sensitivity exposition.
func (m *metrics) sensitivityActive() bool {
	return m.plansStarted.Load()|m.planReportHits.Load()|
		m.plansFailed.Load()|m.plansCompleted.Load() != 0
}

// ServeHTTP renders the Prometheus text exposition format (version 0.0.4)
// with the standard library only.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP simd_requests_total Requests served, by HTTP status code.\n")
	fmt.Fprintf(w, "# TYPE simd_requests_total counter\n")
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "simd_requests_total{code=%q} %d\n", strconv.Itoa(c), m.codes[c])
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP simd_request_seconds Request latency.\n")
	fmt.Fprintf(w, "# TYPE simd_request_seconds histogram\n")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.bucketCounts[i].Load()
		fmt.Fprintf(w, "simd_request_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "simd_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "simd_request_seconds_sum %g\n", float64(m.latencySum.Load())/1e6)
	fmt.Fprintf(w, "simd_request_seconds_count %d\n", m.latencyCount.Load())

	cs := s.cache.Stats.Snapshot()
	fmt.Fprintf(w, "# HELP simd_cache_hits_total Result-cache hits, by tier.\n")
	fmt.Fprintf(w, "# TYPE simd_cache_hits_total counter\n")
	fmt.Fprintf(w, "simd_cache_hits_total{tier=\"mem\"} %d\n", cs.MemHits)
	fmt.Fprintf(w, "simd_cache_hits_total{tier=\"disk\"} %d\n", cs.DiskHits)
	fmt.Fprintf(w, "# HELP simd_cache_misses_total Result-cache misses.\n")
	fmt.Fprintf(w, "# TYPE simd_cache_misses_total counter\n")
	fmt.Fprintf(w, "simd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP simd_cache_corrupt_total On-disk entries that failed verification.\n")
	fmt.Fprintf(w, "# TYPE simd_cache_corrupt_total counter\n")
	fmt.Fprintf(w, "simd_cache_corrupt_total %d\n", cs.Corrupt)
	fmt.Fprintf(w, "# HELP simd_cache_stores_total Results written to the cache.\n")
	fmt.Fprintf(w, "# TYPE simd_cache_stores_total counter\n")
	fmt.Fprintf(w, "simd_cache_stores_total %d\n", cs.Stores)

	fmt.Fprintf(w, "# HELP simd_sims_total Simulations run (cache misses that reached the simulator).\n")
	fmt.Fprintf(w, "# TYPE simd_sims_total counter\n")
	fmt.Fprintf(w, "simd_sims_total %d\n", m.sims.Load())
	fmt.Fprintf(w, "# HELP simd_shed_total Requests rejected because the admission queue was full.\n")
	fmt.Fprintf(w, "# TYPE simd_shed_total counter\n")
	fmt.Fprintf(w, "simd_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "# HELP simd_canceled_total Requests whose client disconnected before completion.\n")
	fmt.Fprintf(w, "# TYPE simd_canceled_total counter\n")
	fmt.Fprintf(w, "simd_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(w, "# HELP simd_coalesced_total Requests served by coalescing onto an identical in-flight request.\n")
	fmt.Fprintf(w, "# TYPE simd_coalesced_total counter\n")
	fmt.Fprintf(w, "simd_coalesced_total %d\n", m.coalesced.Load())

	if m.sensitivityActive() {
		s.serveSensitivityMetrics(w)
	}

	fmt.Fprintf(w, "# HELP simd_queue_depth Jobs admitted but not yet running.\n")
	fmt.Fprintf(w, "# TYPE simd_queue_depth gauge\n")
	fmt.Fprintf(w, "simd_queue_depth %d\n", m.queueDepth.Load())
	fmt.Fprintf(w, "# HELP simd_active_jobs Simulations currently running.\n")
	fmt.Fprintf(w, "# TYPE simd_active_jobs gauge\n")
	fmt.Fprintf(w, "simd_active_jobs %d\n", m.active.Load())
	if m.inflight != nil {
		fmt.Fprintf(w, "# HELP simd_inflight_keys Distinct request keys currently being produced.\n")
		fmt.Fprintf(w, "# TYPE simd_inflight_keys gauge\n")
		fmt.Fprintf(w, "simd_inflight_keys %d\n", m.inflight())
	}
}

// serveSensitivityMetrics renders the sensitivity section: plan lifecycle
// counters, per-source cell counters, and the plan wall-time histogram.
// Only emitted once a sensitivity request has touched this process, so a
// node that never serves one stays byte-compatible with the prior
// exposition.
func (s *Server) serveSensitivityMetrics(w http.ResponseWriter) {
	m := s.metrics
	fmt.Fprintf(w, "# HELP simd_sensitivity_plans_total Sensitivity plans, by lifecycle event.\n")
	fmt.Fprintf(w, "# TYPE simd_sensitivity_plans_total counter\n")
	fmt.Fprintf(w, "simd_sensitivity_plans_total{event=\"started\"} %d\n", m.plansStarted.Load())
	fmt.Fprintf(w, "simd_sensitivity_plans_total{event=\"completed\"} %d\n", m.plansCompleted.Load())
	fmt.Fprintf(w, "simd_sensitivity_plans_total{event=\"failed\"} %d\n", m.plansFailed.Load())
	fmt.Fprintf(w, "simd_sensitivity_plans_total{event=\"report_cache_hit\"} %d\n", m.planReportHits.Load())
	fmt.Fprintf(w, "# HELP simd_sensitivity_cells_total Plan cells satisfied, by result source.\n")
	fmt.Fprintf(w, "# TYPE simd_sensitivity_cells_total counter\n")
	fmt.Fprintf(w, "simd_sensitivity_cells_total{source=\"sim\"} %d\n", m.cellsSim.Load())
	fmt.Fprintf(w, "simd_sensitivity_cells_total{source=\"cache\"} %d\n", m.cellsCache.Load())
	fmt.Fprintf(w, "simd_sensitivity_cells_total{source=\"coalesced\"} %d\n", m.cellsCoalesced.Load())
	fmt.Fprintf(w, "# HELP simd_sensitivity_plan_seconds Completed-plan wall time.\n")
	fmt.Fprintf(w, "# TYPE simd_sensitivity_plan_seconds histogram\n")
	cum := uint64(0)
	for i, le := range planBuckets {
		cum += m.planBucketSlots[i].Load()
		fmt.Fprintf(w, "simd_sensitivity_plan_seconds_bucket{le=%q} %d\n", strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += m.planBucketSlots[len(planBuckets)].Load()
	fmt.Fprintf(w, "simd_sensitivity_plan_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "simd_sensitivity_plan_seconds_sum %g\n", float64(m.planSum.Load())/1e6)
	fmt.Fprintf(w, "simd_sensitivity_plan_seconds_count %d\n", m.planCount.Load())
}

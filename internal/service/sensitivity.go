package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/invariant"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// SensitivityRequest is the JSON body of POST /v1/sensitivity. It names a
// baseline machine and a generator workload, and optionally narrows the
// perturbation plan; the server expands it into one simulation cell per
// perturbed configuration and fans the cells through the same cache,
// singleflight and pool that serve /v1/simulate.
type SensitivityRequest struct {
	// Machine names the baseline configuration: BDW, KNL or SKX.
	Machine string `json:"machine"`
	// Workload generates the synthetic trace every cell replays.
	Workload *WorkloadSpec `json:"workload"`
	// Scheme selects wrong-path accounting: oracle (default), simple or
	// speculative.
	Scheme string `json:"scheme,omitempty"`
	// Warmup runs the first N uops of every cell without accounting.
	Warmup uint64 `json:"warmup,omitempty"`
	// Params narrows the plan to these parameter or group names (empty =
	// every tunable parameter).
	Params []string `json:"params,omitempty"`
	// Variants are the multiplicative scale factors per parameter (empty =
	// {0.5, 2}).
	Variants []float64 `json:"variants,omitempty"`
	// NoEndpoints drops the infinite/idealized endpoint cells, leaving only
	// the scaled variants (and no stack-bound cross-check).
	NoEndpoints bool `json:"no_endpoints,omitempty"`
	// Recompute bypasses the plan-level report cache and rebuilds the
	// report from the per-cell tier — repeats are then mostly cell-cache
	// hits, with a fresh Summary proving it.
	Recompute bool `json:"recompute,omitempty"`
}

// errPlanSaturated sheds a sensitivity request when every plan slot is
// occupied: a plan is hundreds of simulations, so plan admission is bounded
// separately from (and more tightly than) the per-simulation queue.
var errPlanSaturated = errors.New("service: all sensitivity plan slots are busy")

// sensPlan is a resolved sensitivity request: the expanded perturbation
// plan and the content-addressed key of its finished report, plus how this
// request runs it.
type sensPlan struct {
	resolvedPlan
	recompute bool
}

// parseSensitivityRequest decodes and strictly validates a request body.
func parseSensitivityRequest(body io.Reader) (*SensitivityRequest, error) {
	var req SensitivityRequest
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// resolveSensitivity expands the request into a validated plan, once per
// process for each distinct request: a repeat, recomputing or not, reuses
// the memoized plan and key. All errors are client errors
// (sensitivity.NewPlan wraps them in sim.ErrBadValue) and are never
// memoized.
func (s *Server) resolveSensitivity(req *SensitivityRequest) (*sensPlan, error) {
	mk, memoizable := memoKeyOf(req)
	if memoizable {
		if rp, ok := s.plans.get(mk); ok {
			if invariant.Enabled {
				checkMemoHit(req, rp)
			}
			return &sensPlan{resolvedPlan: rp, recompute: req.Recompute}, nil
		}
	}
	rp, err := expandSensitivity(req)
	if err != nil {
		return nil, err
	}
	if memoizable {
		s.plans.put(mk, rp, cap(rp.plan.Cells))
	}
	return &sensPlan{resolvedPlan: rp, recompute: req.Recompute}, nil
}

// memoKeyOf keys the plan memo: the canonical bytes of every request field
// except Recompute, which selects how the plan runs, not what it is. The
// walker encodes each field of the request and its WorkloadSpec, so a field
// added later joins the key unlisted. A request that does not encode (a NaN
// or infinite variant, which NewPlan rejects) is not memoizable.
func memoKeyOf(req *SensitivityRequest) (resultcache.Key, bool) {
	r := *req
	r.Recompute = false
	b, err := sim.CanonicalBytes("service.SensitivityRequest", r)
	if err != nil {
		return resultcache.Key{}, false
	}
	return resultcache.KeyOf(b), true
}

// expandSensitivity resolves the request without the memo. It reads only
// the request and fixed tables (config.ByName, workload.SPECProfile, the
// parameter registry, the schema versions), which is what makes memoizing
// its result sound.
func expandSensitivity(req *SensitivityRequest) (resolvedPlan, error) {
	machineName := req.Machine
	if machineName == "" {
		machineName = "BDW"
	}
	m, err := config.ByName(machineName)
	if err != nil {
		return resolvedPlan{}, fmt.Errorf("%w: %v", sim.ErrBadValue, err)
	}
	if req.Workload == nil {
		return resolvedPlan{}, fmt.Errorf("%w: sensitivity requires a generator workload", sim.ErrBadValue)
	}
	prof, ok := workload.SPECProfile(req.Workload.Profile)
	if !ok {
		return resolvedPlan{}, fmt.Errorf("%w: unknown workload profile %q", sim.ErrBadValue, req.Workload.Profile)
	}
	opts := sim.Options{WarmupUops: req.Warmup}
	if opts.Scheme, err = sim.ParseScheme(req.Scheme); err != nil {
		return resolvedPlan{}, err
	}
	p, err := sensitivity.NewPlan(m, prof, req.Workload.Uops, opts, sensitivity.PlanOptions{
		Params:      req.Params,
		Variants:    req.Variants,
		NoEndpoints: req.NoEndpoints,
	})
	if err != nil {
		return resolvedPlan{}, err
	}
	key, err := p.Key()
	if err != nil {
		return resolvedPlan{}, err
	}
	return resolvedPlan{plan: p, key: key}, nil
}

// checkMemoHit re-resolves a memo hit without the memo and panics unless it
// matches: a mismatch is an incomplete memo key or a write to a shared plan.
func checkMemoHit(req *SensitivityRequest, rp resolvedPlan) {
	fresh, err := expandSensitivity(req)
	invariant.Assertf(err == nil, "plan memo: memoized request no longer resolves: %v", err)
	invariant.Assertf(fresh.key == rp.key, "plan memo: plan key %s, fresh resolution %s", rp.key, fresh.key)
	invariant.Assertf(reflect.DeepEqual(fresh.plan, rp.plan), "plan memo: memoized plan %s differs from a fresh resolution", rp.key)
}

// handleSensitivity serves POST /v1/sensitivity.
func (s *Server) handleSensitivity(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code, err := s.sensitivity(w, r)
	s.metrics.observe(code, time.Since(start))
	if err != nil && code >= 500 {
		s.logf("simd: %s: %v", r.URL.Path, err)
	}
}

// sensitivity runs the full plan flow: parse → expand/validate → report
// cache → plan singleflight → bounded plan execution, every cell riding
// the /v1/simulate production path. ?stream=1 switches the response to
// NDJSON progress events.
func (s *Server) sensitivity(w http.ResponseWriter, r *http.Request) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	req, err := parseSensitivityRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}
	sp, err := s.resolveSensitivity(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	}
	if r.URL.Query().Get("stream") == "1" {
		return s.streamSensitivity(w, r, sp)
	}

	if !sp.recompute {
		if payload, ok := s.cache.Get(sp.key); ok {
			s.metrics.planReportHits.Add(1)
			s.writeResult(w, sp.key, payload, "hit")
			return http.StatusOK, nil
		}
	}
	payload, err, leader := s.group.Do(r.Context(), sp.key, func(ctx context.Context) ([]byte, error) {
		return s.producePlan(ctx, sp, nil)
	})
	if !leader {
		s.metrics.coalesced.Add(1)
	}
	switch {
	case err == nil:
		s.writeResult(w, sp.key, payload, "miss")
		return http.StatusOK, nil
	case errors.Is(err, errPlanSaturated), errors.Is(err, runner.ErrSaturated), errors.Is(err, runner.ErrPoolClosed):
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
		return http.StatusTooManyRequests, err
	case r.Context().Err() != nil:
		s.metrics.canceled.Add(1)
		return statusClientClosed, err
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
		return http.StatusGatewayTimeout, err
	case errors.Is(err, sim.ErrBadValue):
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest, err
	default:
		writeError(w, http.StatusInternalServerError, err)
		return http.StatusInternalServerError, err
	}
}

// producePlan executes one plan under a plan slot and caches the finished
// report under the plan key. A failed (or canceled) plan caches nothing:
// partial reports never enter the cache, though every completed cell did —
// which is exactly what makes the retry cheap.
func (s *Server) producePlan(ctx context.Context, sp *sensPlan, onCell func(sensitivity.Progress)) ([]byte, error) {
	select {
	case s.planSem <- struct{}{}:
		defer func() { <-s.planSem }()
	default:
		return nil, errPlanSaturated
	}
	s.metrics.plansStarted.Add(1)
	start := time.Now()
	orch := &sensitivity.Orchestrator{Run: s.runPlanCell, Concurrency: s.workers, OnCell: onCell}
	rep, err := orch.Execute(ctx, sp.plan)
	if err != nil {
		s.metrics.plansFailed.Add(1)
		return nil, err
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		s.metrics.plansFailed.Add(1)
		return nil, err
	}
	if err := s.cache.Put(sp.key, enc); err != nil {
		// A full disk degrades to recomputation, not failure.
		s.logf("simd: caching plan %s: %v", sp.key, err)
	}
	s.metrics.plansCompleted.Add(1)
	s.metrics.observePlan(time.Since(start))
	return enc, nil
}

// runPlanCell satisfies one plan cell through the same ladder as a
// /v1/simulate request: cache, then cell-level singleflight into produce.
// The one difference is admission — a cell waits for a pool slot (plan
// admission already happened at the plan level) instead of being shed, so
// a plan saturates the pool politely rather than failing halfway.
func (s *Server) runPlanCell(ctx context.Context, p *sensitivity.Plan, cell sensitivity.Cell) (sensitivity.CellOutcome, error) {
	key := cell.Key
	if key == (resultcache.Key{}) {
		return sensitivity.CellOutcome{}, sensitivity.ErrNoCellKey
	}
	// An entry that fails to decode is a miss: it degrades to
	// recomputation.
	if res, ok := s.cache.Result(key); ok {
		s.metrics.cellSource(sensitivity.SourceCache)
		return sensitivity.CellOutcome{Result: res, Source: sensitivity.SourceCache}, nil
	}
	cp := &plan{
		key:      key,
		machine:  cell.Machine,
		opts:     p.Opts,
		workload: p.Profile.Name,
		mkReader: func() (trace.Reader, error) {
			return trace.NewLimit(workload.NewGenerator(p.Profile), p.Uops), nil
		},
		wait: true,
	}
	payload, err, leader := s.group.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		return s.produce(fctx, cp)
	})
	if err != nil {
		return sensitivity.CellOutcome{}, err
	}
	res, _, err := export.DecodeResult(payload)
	if err != nil {
		return sensitivity.CellOutcome{}, err
	}
	source := sensitivity.SourceSim
	if !leader {
		source = sensitivity.SourceCoalesced
	}
	s.metrics.cellSource(source)
	return sensitivity.CellOutcome{Result: res, Source: source}, nil
}

// streamEvent is one NDJSON line of a ?stream=1 response: a "cell"
// progress event per completed cell, then one "report" (or "error") event.
type streamEvent struct {
	Event   string          `json:"event"`
	Done    int             `json:"done,omitempty"`
	Total   int             `json:"total,omitempty"`
	Param   string          `json:"param,omitempty"`
	Variant string          `json:"variant,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Source  string          `json:"source,omitempty"`
	CPI     float64         `json:"cpi,omitempty"`
	Report  json.RawMessage `json:"report,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// streamSensitivity serves the ?stream=1 variant: progress events as the
// fan-out completes cells, then the full report as the final line. The
// stream runs outside the plan-level singleflight (an NDJSON body is a
// live view, not a shareable artifact) but its cells still coalesce with
// any concurrent identical work at the cell level.
func (s *Server) streamSensitivity(w http.ResponseWriter, r *http.Request, sp *sensPlan) (int, error) {
	enc := json.NewEncoder(w)
	if !sp.recompute {
		if payload, ok := s.cache.Get(sp.key); ok {
			s.metrics.planReportHits.Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "hit")
			enc.Encode(streamEvent{Event: "report", Report: payload})
			return http.StatusOK, nil
		}
	}
	flusher, _ := w.(http.Flusher)
	started := false
	onCell := func(pr sensitivity.Progress) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "miss")
			started = true
		}
		enc.Encode(streamEvent{
			Event: "cell", Done: pr.Done, Total: pr.Total,
			Param: pr.Cell.Param, Variant: pr.Cell.Variant, Kind: pr.Cell.Kind,
			Source: pr.Source, CPI: pr.CPI,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
	payload, err := s.producePlan(r.Context(), sp, onCell)
	switch {
	case err == nil:
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Cache", "miss")
		}
		enc.Encode(streamEvent{Event: "report", Report: payload})
		return http.StatusOK, nil
	case errors.Is(err, errPlanSaturated) && !started:
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
		return http.StatusTooManyRequests, err
	case r.Context().Err() != nil:
		s.metrics.canceled.Add(1)
		return statusClientClosed, err
	default:
		// Cells may already be on the wire; the error becomes the stream's
		// terminal event rather than a status code the client cannot see.
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		enc.Encode(streamEvent{Event: "error", Error: err.Error()})
		s.logf("simd: %s (stream): %v", r.URL.Path, err)
		return http.StatusOK, err
	}
}

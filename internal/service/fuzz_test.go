package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// FuzzSimulateRequest feeds arbitrary bodies through /v1/simulate's decode
// and resolve steps against a trace directory holding one small trace. On
// any input: no panic, every error wraps sim.ErrBadValue (the handler's 400
// class), and a request that resolves keys the same after a JSON round
// trip, so the cache key depends on what the request means, not on how its
// bytes were spelled. Each accepted body resolves twice through the request
// memo, memoized in between as a cache hit would, and both resolutions
// match one that bypasses the memo; a rejected or trace_path body is never
// held.
func FuzzSimulateRequest(f *testing.F) {
	dir := f.TempDir()
	writeFuzzTrace(f, filepath.Join(dir, "mcf.trace"))
	s := memoServer(dir)
	for _, seed := range []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000}}`,
		`{"workload":{"profile":"gcc-1","uops":1},"stacks":["cpi","flops","memdepth","structural","fetch"]}`,
		`{"machine":"SKX","workload":{"profile":"deepsjeng","uops":9},"scheme":"speculative","wrongpath":"synth","warmup":3}`,
		`{"machine":"KNL","idealize":{"perfect_icache":true,"perfect_dcache":true,"perfect_bpred":true,"single_cycle_alu":true},"workload":{"profile":"lbm","uops":7}}`,
		`{"machine":"SKX","workload":{"profile":"mcf","uops":4000},"smp":{"cores":4,"parallel":true,"l3_slices":4}}`,
		`{"machine":"BDW","trace_path":"mcf.trace","stacks":["fetch"]}`,
		`{"trace_path":"../mcf.trace"}`,
		`{"trace_path":"."}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":5000},"smp":{"cores":2,"l3_slices":3}}`,
		`{"machine":"ARM"}`,
		`{"workload":{"profile":"mcf","uops":5000}}{}`,
		`{"bogus":1}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wasHeld := heldRequest(s, string(body)) // the fuzzer repeats bodies
		p, memoizable, err := s.resolveBody(body, nil)
		if err != nil {
			badValue(t, err)
			if heldRequest(s, string(body)) {
				t.Fatalf("rejected body %s is memoized", body)
			}
			return
		}
		if memoizable {
			s.memoizeRequest(body, p) // as a cache hit does
		}
		hit, memoizableAgain, err := s.resolveBody(body, nil)
		if err != nil || memoizableAgain {
			t.Fatalf("second resolution of %s: memoizable %v, %v", body, memoizableAgain, err)
		}
		req, err := parseRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("resolved body %s does not parse: %v", body, err)
		}
		fresh, err := s.resolve(req)
		if err != nil {
			t.Fatalf("uncached resolution of %s: %v", body, err)
		}
		generator := req.TracePath == ""
		if memoizable != (generator && !wasHeld) || heldRequest(s, string(body)) != generator {
			t.Fatalf("body %s: memoizable %v, held %v", body, memoizable, heldRequest(s, string(body)))
		}
		if generator && hit != p {
			t.Fatalf("second resolution of %s missed the request memo", body)
		}
		for _, q := range []*plan{p, hit} {
			if q.key != fresh.key || !samePlan(q, fresh) {
				t.Fatalf("memoized resolution of %s differs from an uncached one", body)
			}
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := parseRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshalled request %s does not parse: %v", again, err)
		}
		p2, err := s.resolve(req2)
		if err != nil {
			t.Fatalf("re-marshalled request %s does not resolve: %v", again, err)
		}
		if p.key != p2.key {
			t.Fatalf("key changed across a JSON round trip of %s", again)
		}
	})
}

// FuzzSensitivityRequest is FuzzSimulateRequest for /v1/sensitivity: the
// decode and plan-expansion steps never panic, fail only with
// sim.ErrBadValue, and key a re-marshalled request's report identically.
// Each accepted request resolves twice, the second time from the plan
// memo, and both resolutions match one that bypasses the memo.
func FuzzSensitivityRequest(f *testing.F) {
	s := memoServer("")
	for _, seed := range []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":100000}}`,
		`{"machine":"SKX","workload":{"profile":"gcc-1","uops":5000},"scheme":"simple","warmup":100,"params":["rob","l2"],"variants":[0.25,0.5,2,4],"no_endpoints":true,"recompute":true}`,
		`{"workload":{"profile":"lbm","uops":1},"variants":[1e300]}`,
		`{"workload":{"profile":"mcf","uops":0}}`,
		`{"workload":{"profile":"mcf","uops":5000},"params":["nope"]}`,
		`{"workload":{"profile":"mcf","uops":5000},"variants":[0,-1]}`,
		`{"machine":"BDW"}`,
		`{"workload":{"profile":"mcf","uops":5000}} 1`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseSensitivityRequest(bytes.NewReader(body))
		if err != nil {
			badValue(t, err)
			return
		}
		sp, err := s.resolveSensitivity(req)
		if err != nil {
			badValue(t, err)
			if mk, ok := memoKeyOf(req); ok {
				if _, held := s.plans.get(mk); held {
					t.Fatalf("rejected request %s is memoized", body)
				}
			}
			return
		}
		hit, err := s.resolveSensitivity(req)
		if err != nil {
			t.Fatalf("second resolution of %s: %v", body, err)
		}
		fresh, err := expandSensitivity(req)
		if err != nil {
			t.Fatalf("uncached resolution of %s: %v", body, err)
		}
		if hit.plan != sp.plan {
			t.Fatalf("second resolution of %s missed the plan memo", body)
		}
		if sp.key != fresh.key || hit.key != fresh.key || !reflect.DeepEqual(sp.plan, fresh.plan) {
			t.Fatalf("memoized resolution of %s differs from an uncached one", body)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, err := parseSensitivityRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-marshalled request %s does not parse: %v", again, err)
		}
		sp2, err := s.resolveSensitivity(req2)
		if err != nil {
			t.Fatalf("re-marshalled request %s does not resolve: %v", again, err)
		}
		if sp.key != sp2.key {
			t.Fatalf("report key changed across a JSON round trip of %s", again)
		}
	})
}

// badValue fails t unless err is a client error.
func badValue(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, sim.ErrBadValue) {
		t.Fatalf("error does not wrap sim.ErrBadValue: %v", err)
	}
}

// writeFuzzTrace writes a short mcf trace file to path.
func writeFuzzTrace(tb testing.TB, path string) {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	prof, _ := workload.SPECProfile("mcf")
	if _, err := trace.Copy(w, workload.NewGenerator(prof), 64); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

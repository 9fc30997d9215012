package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/invariant"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
)

// requestMemoState returns the request memo's entry count and the cost
// held.
func requestMemoState(s *Server) (entries, cost int) {
	s.requests.mu.Lock()
	defer s.requests.mu.Unlock()
	return len(s.requests.entries), s.requests.cost
}

// heldRequest reports whether body is in the request memo.
func heldRequest(s *Server, body string) bool {
	_, ok := s.requests.get(body)
	return ok
}

// postOK posts body to /v1/simulate and returns the response body, X-Cache
// and X-Result-Key of a 200.
func postOK(t *testing.T, url, body string) (payload []byte, tier, key string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d: %s", body, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Cache"), resp.Header.Get("X-Result-Key")
}

// TestRequestMemoInsertOnHit: a body enters the memo only when its result
// came from the cache, and never as a trace_path or invalid body. A memo
// hit serves the memoized plan without decoding the body.
func TestRequestMemoInsertOnHit(t *testing.T) {
	traceDir := t.TempDir()
	name := writeTraceFile(t, traceDir, "small.trc", 2000)
	s, ts := newTestServer(t, Config{TraceDir: traceDir}, nil)

	body := simulateBody(t, "")
	if _, tier, _ := postOK(t, ts.URL, body); tier != "miss" || heldRequest(s, body) {
		t.Fatalf("a miss (X-Cache %q) entered the memo", tier)
	}
	if _, tier, _ := postOK(t, ts.URL, body); tier != "hit" || !heldRequest(s, body) {
		t.Fatalf("a hit (X-Cache %q) did not enter the memo", tier)
	}
	if n, cost := requestMemoState(s); n != 1 || cost != len(body)+requestPlanBytes {
		t.Fatalf("memo holds %d entries / %d bytes, want 1 / %d", n, cost, len(body)+requestPlanBytes)
	}

	// An SMP gang body is memoized on its hit too.
	smp := `{"machine":"SKX","workload":{"profile":"mcf","uops":2000},"smp":{"cores":2}}`
	postOK(t, ts.URL, smp)
	if _, tier, _ := postOK(t, ts.URL, smp); tier != "hit" || !heldRequest(s, smp) {
		t.Fatalf("an SMP hit (X-Cache %q) did not enter the memo", tier)
	}

	// A trace_path body is a hit on its second post but never memoized:
	// after the file changes, the same bytes must key the new contents.
	tb := `{"machine":"BDW","trace_path":"` + name + `"}`
	postOK(t, ts.URL, tb)
	_, tier, k1 := postOK(t, ts.URL, tb)
	if tier != "hit" || heldRequest(s, tb) {
		t.Fatalf("trace_path hit (X-Cache %q): memoized = %v", tier, heldRequest(s, tb))
	}
	path := filepath.Join(traceDir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-44] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, k2 := postOK(t, ts.URL, tb); k2 == k1 {
		t.Fatal("a changed trace file kept its result key")
	}

	// Invalid bodies are 400s every time and never memoized.
	for _, bad := range []string{`{"machine":"EPYC","workload":{"profile":"mcf","uops":10}}`, `not json`} {
		for i := 0; i < 2; i++ {
			resp := post(t, ts, bad)
			readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest || heldRequest(s, bad) {
				t.Fatalf("%s: status %d, memoized %v", bad, resp.StatusCode, heldRequest(s, bad))
			}
		}
	}
	if n, _ := requestMemoState(s); n != 2 {
		t.Fatalf("memo holds %d entries, want the two generator bodies", n)
	}

	// A memo hit skips decoding: bytes memoized under another body's plan
	// are served that plan's result. (Under simdebug the cross-check
	// rejects such a hit; TestRequestMemoCrossCheck covers that.)
	if invariant.Enabled {
		return
	}
	other := simulateBody(t, `,"warmup":10`)
	po, _, err := s.resolveBody([]byte(other), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.memoizeRequest([]byte(`{"anything":1}`), po)
	postOK(t, ts.URL, other)
	_, tier, ko := postOK(t, ts.URL, `{"anything":1}`)
	if tier != "hit" || ko != fmt.Sprintf("%x", po.key[:]) {
		t.Fatalf("memoized bytes got X-Cache %q key %s, want a hit on %x", tier, ko, po.key[:])
	}
}

// TestRequestMemoCrossCheck: under simdebug a memo hit whose plan differs
// from a fresh resolution of its bytes panics, whether the memo holds the
// wrong plan or the right plan written after it was shared.
func TestRequestMemoCrossCheck(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the cross-check runs only under -tags simdebug")
	}
	s := memoServer("")
	resolve := func(body string) *plan {
		t.Helper()
		p, _, err := s.resolveBody([]byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hitPanics := func(body string) {
		t.Helper()
		defer func() {
			if _, ok := recover().(*invariant.Violation); !ok {
				t.Fatalf("memo hit on %s did not fail the cross-check", body)
			}
		}()
		s.resolveBody([]byte(body), nil)
	}
	a, b := simulateBody(t, ""), simulateBody(t, `,"warmup":10`)
	s.memoizeRequest([]byte(a), resolve(a))
	resolve(a) // a consistent hit passes
	s.memoizeRequest([]byte(`{"anything":1}`), resolve(b))
	hitPanics(`{"anything":1}`)
	s.memoizeRequest([]byte(b), resolve(a))
	hitPanics(b)
	c := simulateBody(t, `,"stacks":["flops"]`)
	pc := resolve(c)
	s.memoizeRequest([]byte(c), pc)
	pc.opts.Fetch = true
	hitPanics(c)
}

// TestRequestMemoHTTPBytes: a memo hit's body and X-Result-Key are those of
// the first hit and of a server resolving the body afresh.
func TestRequestMemoHTTPBytes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir}, nil)
	for _, body := range []string{
		simulateBody(t, ""),
		simulateBody(t, `,"stacks":["cpi","flops","memdepth","structural","fetch"],"scheme":"speculative","wrongpath":"synth"`),
		`{"machine":"KNL","idealize":{"perfect_dcache":true},"workload":{"profile":"gcc-1","uops":3000}}`,
		`{"machine":"SKX","workload":{"profile":"mcf","uops":1500},"smp":{"cores":3,"l3_slices":2}}`,
	} {
		miss, _, kMiss := postOK(t, ts.URL, body)
		hit, _, kHit := postOK(t, ts.URL, body)
		memo, tier, kMemo := postOK(t, ts.URL, body)
		if !heldRequest(s, body) || tier != "hit" {
			t.Fatalf("%s: third post X-Cache %q, memoized %v", body, tier, heldRequest(s, body))
		}
		// A second server over the same cache resolves the body afresh.
		_, fresh := newTestServer(t, Config{CacheDir: dir}, nil)
		cold, _, kCold := postOK(t, fresh.URL, body)
		for _, c := range []struct {
			what string
			b    []byte
			k    string
		}{{"miss", miss, kMiss}, {"first hit", hit, kHit}, {"cold resolution", cold, kCold}} {
			if !bytes.Equal(memo, c.b) || kMemo != c.k {
				t.Fatalf("%s: memo-hit response differs from the %s (key %s vs %s)", body, c.what, kMemo, c.k)
			}
		}
	}
}

// TestMemoBounds: past either bound the oldest entries go first, and the
// memo never holds more than its bounds.
func TestMemoBounds(t *testing.T) {
	m := memo[string, int]{maxEntries: 3, maxCost: 10}
	held := func(want ...string) {
		t.Helper()
		var got []string
		for _, k := range []string{"a", "b", "c", "d", "e", "f", "g"} {
			if _, ok := m.get(k); ok {
				got = append(got, k)
			}
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(m.order, want) {
			t.Fatalf("memo holds %v in order %v, want %v", got, m.order, want)
		}
		if len(m.entries) > m.maxEntries || m.cost > m.maxCost {
			t.Fatalf("memo holds %d entries / cost %d past its bounds", len(m.entries), m.cost)
		}
	}
	m.put("a", 1, 2)
	m.put("b", 2, 2)
	m.put("c", 3, 2)
	held("a", "b", "c")
	m.put("d", 4, 2) // entry bound: a goes
	held("b", "c", "d")
	m.put("e", 5, 5) // cost bound: b goes (c+d+e = 9)
	held("c", "d", "e")
	m.put("f", 6, 11) // alone past the cost bound: not held
	held("c", "d", "e")
	m.put("c", 7, 1) // already held: kept
	if v, _ := m.get("c"); v != 3 {
		t.Fatalf("re-put replaced a held entry: %d", v)
	}
	m.put("g", 8, 10) // needs the whole memo
	held("g")
	if m.cost != 10 {
		t.Fatalf("cost %d, want 10", m.cost)
	}

	// The request memo's own bounds: the entry bound binds for small
	// bodies and the byte bound for large ones.
	s := memoServer("")
	p, _, err := s.resolveBody([]byte(simulateBody(t, "")), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requestMemoEntries+10; i++ {
		s.memoizeRequest([]byte(fmt.Sprint(i)), p)
	}
	if n, _ := requestMemoState(s); n != requestMemoEntries || heldRequest(s, "9") || !heldRequest(s, "10") {
		t.Fatalf("after %d small puts the memo holds %d entries", requestMemoEntries+10, n)
	}
	big := bytes.Repeat([]byte(" "), requestMemoBytes/4)
	for i := 0; i < 8; i++ {
		big[0] = byte('a' + i)
		s.memoizeRequest(big, p)
		if _, cost := requestMemoState(s); cost > requestMemoBytes {
			t.Fatalf("memo holds %d bytes, bound %d", cost, requestMemoBytes)
		}
	}
	if n, _ := requestMemoState(s); n != 3 {
		t.Fatalf("memo holds %d entries of %d bytes, want 3", n, len(big))
	}
}

// TestRequestMemoConcurrent: concurrent hits on memoized and new bodies
// from many clients all get their own result (run under -race).
func TestRequestMemoConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	const distinct = 4
	bodies := make([]string, distinct)
	keys := make([]string, distinct)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"machine":"BDW","workload":{"profile":"mcf","uops":%d}}`, 2000+i)
		_, _, keys[i] = postOK(t, ts.URL, bodies[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (g + i) % distinct
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(bodies[j]))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || resp.Header.Get("X-Result-Key") != keys[j] {
					t.Errorf("body %d: status %d X-Cache %q key %s, want a hit on %s", j,
						resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Result-Key"), keys[j])
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := requestMemoState(s); n != distinct {
		t.Fatalf("memo holds %d entries, want %d", n, distinct)
	}
}

// TestSamePlanComparesEveryField: the request-memo cross-check compares
// every plan field but the reader constructors. The table must name each
// field, so a field added to plan without a case fails here.
func TestSamePlanComparesEveryField(t *testing.T) {
	change := map[string]func(p *plan){
		"key":      func(p *plan) { p.key[0] ^= 1 },
		"machine":  func(p *plan) { p.machine.Core.ROBSize++ },
		"opts":     func(p *plan) { p.opts.WarmupUops++ },
		"workload": func(p *plan) { p.workload += "x" },
		"smpCores": func(p *plan) { p.smpCores++ },
		"wait":     func(p *plan) { p.wait = !p.wait },
		"mkReader": nil, // a closure; see below
		"mkSMP":    nil,
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(plan{})) {
		fields = append(fields, f.Name)
		mutate, ok := change[f.Name]
		if !ok {
			t.Errorf("plan field %s has no case: compare it in samePlan and add one here", f.Name)
			continue
		}
		if (mutate == nil) != (f.Type.Kind() == reflect.Func) {
			t.Errorf("plan field %s: only func fields may go uncompared", f.Name)
		}
	}
	if len(fields) != len(change) {
		t.Errorf("table names %d fields, plan has %v", len(change), fields)
	}

	s := memoServer("")
	base, _, err := s.resolveBody([]byte(`{"machine":"SKX","workload":{"profile":"mcf","uops":100},"smp":{"cores":2}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range change {
		if mutate == nil {
			continue
		}
		p := *base
		mutate(&p)
		if samePlan(base, &p) {
			t.Errorf("samePlan ignores a change to %s", name)
		}
	}
	p := *base
	p.mkReader = func() (trace.Reader, error) { return nil, nil }
	p.mkSMP = func(int) trace.Reader { return nil }
	if !samePlan(base, &p) {
		t.Error("samePlan compares the reader constructors")
	}
}

// TestOversizedBodyMessage: a body past maxRequestBytes gets a 400 with the
// message of decoding it from the stream, as before the body was read
// whole, and never enters the memo. That holds for a complete object
// followed by whitespace past the bound too.
func TestOversizedBodyMessage(t *testing.T) {
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.runSim = func(m config.Machine, tr trace.Reader, opts sim.Options) sim.Result {
			return sim.Result{Machine: m.Name}
		}
	})
	pad := strings.Repeat(" ", maxRequestBytes)
	for name, body := range map[string]string{
		"long string":         `{"machine":"` + strings.Repeat("A", maxRequestBytes),
		"early syntax error":  `{"machine":?` + pad,
		"trailing whitespace": simulateBody(t, "") + pad,
	} {
		t.Run(name, func(t *testing.T) {
			_, ref := parseRequest(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), maxRequestBytes))
			if ref == nil {
				t.Fatal("the stream decoder accepted an oversized body")
			}
			for i := 0; i < 2; i++ {
				resp := post(t, ts, body)
				b := readAll(t, resp)
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != ref.Error() {
					t.Fatalf("status %d error %q, want 400 and the stream decoder's %q", resp.StatusCode, e.Error, ref)
				}
			}
			if heldRequest(s, body) {
				t.Fatal("an oversized body entered the memo")
			}
		})
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"

	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
)

// memoState returns the plan memo's entry count and cell slots held.
func memoState(s *Server) (entries, cells int) {
	s.plans.mu.Lock()
	defer s.plans.mu.Unlock()
	return len(s.plans.entries), s.plans.cost
}

// memoServer is a Server with its memos and no pool or cache, for
// resolving requests.
func memoServer(traceDir string) *Server {
	return &Server{traceDir: traceDir, plans: newPlanMemo(), requests: newRequestMemo()}
}

// smallRequest is a 4-cell plan: rob_size at x0.5, x2 and inf over mcf.
func smallRequest(uops uint64) *SensitivityRequest {
	return &SensitivityRequest{
		Machine:  "BDW",
		Workload: &WorkloadSpec{Profile: "mcf", Uops: uops},
		Params:   []string{"rob_size"},
	}
}

// mustResolve resolves req on s and checks the result against a resolution
// that bypasses the memo.
func mustResolve(t *testing.T, s *Server, req *SensitivityRequest) *sensPlan {
	t.Helper()
	sp, err := s.resolveSensitivity(req)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := expandSensitivity(req)
	if err != nil {
		t.Fatal(err)
	}
	if sp.key != fresh.key || !reflect.DeepEqual(sp.plan, fresh.plan) {
		t.Fatalf("resolution of %+v differs from an uncached NewPlan + Plan.Key", req)
	}
	return sp
}

// TestPlanMemoSharesRepeats: a repeated request gets the plan and key the
// first resolution derived, and Recompute (how the plan runs, not what it
// is) shares the entry while staying per request.
func TestPlanMemoSharesRepeats(t *testing.T) {
	s := memoServer("")
	first := mustResolve(t, s, smallRequest(3000))
	again := mustResolve(t, s, smallRequest(3000))
	if again.plan != first.plan || again.key != first.key {
		t.Fatal("an identical request re-expanded its plan")
	}
	rc := smallRequest(3000)
	rc.Recompute = true
	re := mustResolve(t, s, rc)
	if re.plan != first.plan || re.key != first.key {
		t.Fatal("recompute:true missed the entry of the same plan")
	}
	if !re.recompute || first.recompute {
		t.Fatalf("recompute flags %v/%v, want each request's own", first.recompute, re.recompute)
	}
	if n, cells := memoState(s); n != 1 || cells != cap(first.plan.Cells) {
		t.Fatalf("memo holds %d entries / %d cells, want 1 / %d", n, cells, cap(first.plan.Cells))
	}
}

// requestFields lists the exported fields of SensitivityRequest, descending
// into struct pointers ("Workload.Uops").
func requestFields(t reflect.Type, prefix string) []string {
	var out []string
	for _, f := range reflect.VisibleFields(t) {
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			out = append(out, requestFields(f.Type.Elem(), prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestPlanMemoKeyCoversEveryField: every request field but Recompute keys
// its own entry, whose plan and key match an uncached resolution. The
// table must name each exported field, so a field added to the request
// without a case fails here.
func TestPlanMemoKeyCoversEveryField(t *testing.T) {
	change := map[string]func(r *SensitivityRequest){
		"Machine":          func(r *SensitivityRequest) { r.Machine = "SKX" },
		"Workload.Profile": func(r *SensitivityRequest) { r.Workload.Profile = "gcc-1" },
		"Workload.Uops":    func(r *SensitivityRequest) { r.Workload.Uops = 3001 },
		"Scheme":           func(r *SensitivityRequest) { r.Scheme = "simple" },
		"Warmup":           func(r *SensitivityRequest) { r.Warmup = 100 },
		"Params":           func(r *SensitivityRequest) { r.Params = []string{"bpred"} },
		"Variants":         func(r *SensitivityRequest) { r.Variants = []float64{0.25, 4} },
		"NoEndpoints":      func(r *SensitivityRequest) { r.NoEndpoints = true },
		"Recompute":        nil, // shares the entry; see TestPlanMemoSharesRepeats
	}
	fields := requestFields(reflect.TypeOf(SensitivityRequest{}), "")
	for _, f := range fields {
		if _, ok := change[f]; !ok {
			t.Errorf("request field %s has no case: add one that changes it", f)
		}
	}
	for name := range change {
		if !slices.Contains(fields, name) {
			t.Errorf("case %s names no request field", name)
		}
	}

	s := memoServer("")
	base := mustResolve(t, s, smallRequest(3000))
	seen := map[resultcache.Key]string{base.key: "base"}
	want := 1
	for _, f := range fields {
		mutate := change[f]
		if mutate == nil {
			continue
		}
		req := smallRequest(3000)
		mutate(req)
		sp := mustResolve(t, s, req)
		want++
		if n, _ := memoState(s); n != want {
			t.Fatalf("after changing %s the memo holds %d entries, want %d", f, n, want)
		}
		if sp.plan == base.plan {
			t.Fatalf("changing %s reused the base plan", f)
		}
		if prev, dup := seen[sp.key]; dup {
			t.Fatalf("changing %s gives the plan key of %s", f, prev)
		}
		seen[sp.key] = f
		if again := mustResolve(t, s, req); again.plan != sp.plan {
			t.Fatalf("repeating the request that changes %s re-expanded its plan", f)
		}
	}
}

// TestPlanMemoSkipsInvalid: an invalid plan is a 400 every time and is
// never memoized.
func TestPlanMemoSkipsInvalid(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	for _, body := range []string{
		`{"machine":"BDW","workload":{"profile":"mcf","uops":10},"params":["warp_drive"]}`,
		`{"machine":"BDW","workload":{"profile":"mcf","uops":10},"variants":[1]}`,
		`{"machine":"BDW","workload":{"profile":"nope","uops":10}}`,
	} {
		for i := 0; i < 2; i++ {
			resp := postSensitivity(t, ts, body, "")
			b := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("post %d of %s: status %d, want 400; body %s", i+1, body, resp.StatusCode, b)
			}
		}
	}
	if n, cells := memoState(s); n != 0 || cells != 0 {
		t.Fatalf("invalid plans left %d entries / %d cells in the memo", n, cells)
	}
}

// sizedPlan is a plan holding n empty cells, for the memo's accounting.
func sizedPlan(n int) resolvedPlan {
	return resolvedPlan{plan: &sensitivity.Plan{Cells: make([]sensitivity.Cell, n)}}
}

func memoKey(i int) resultcache.Key { return resultcache.KeyOf([]byte(fmt.Sprint(i))) }

// TestPlanMemoEvictsOldest: past planMemoCells the oldest entries go first,
// and the cells held never exceed the bound.
func TestPlanMemoEvictsOldest(t *testing.T) {
	m := newPlanMemo()
	put := func(i, cells int) { m.put(memoKey(i), sizedPlan(cells), cells) }
	put(0, sensitivity.MaxCells)
	put(1, sensitivity.MaxCells)
	if _, ok := m.get(memoKey(0)); !ok || m.cost != planMemoCells {
		t.Fatalf("two largest plans do not fit: %d cells held", m.cost)
	}
	put(2, 1)
	put(3, sensitivity.MaxCells)
	for i, held := range []bool{false, false, true, true} {
		if _, ok := m.get(memoKey(i)); ok != held {
			t.Fatalf("entry %d held = %v, want %v", i, ok, held)
		}
	}

	// Random sizes: the held entries are always the newest, their cells
	// are the memo's count, and the count stays within the bound.
	m = newPlanMemo()
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 400)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(sensitivity.MaxCells/4)
		put(i, sizes[i])
		if m.cost > planMemoCells {
			t.Fatalf("after %d puts the memo holds %d cells, bound %d", i+1, m.cost, planMemoCells)
		}
		total, oldest := 0, i+1
		for j := i; j >= 0; j-- {
			if _, ok := m.get(memoKey(j)); !ok {
				break
			}
			total += sizes[j]
			oldest = j
		}
		if total != m.cost || len(m.entries) != i+1-oldest || len(m.order) != len(m.entries) {
			t.Fatalf("after %d puts: newest %d entries hold %d cells, memo has %d entries / %d cells",
				i+1, i+1-oldest, total, len(m.entries), m.cost)
		}
	}

	// Real plans: 79-cell default plans past the bound evict the first.
	s := memoServer("")
	first := mustResolve(t, s, &SensitivityRequest{Workload: &WorkloadSpec{Profile: "mcf", Uops: 1000}})
	for i := 1; i <= planMemoCells/cap(first.plan.Cells); i++ {
		mustResolve(t, s, &SensitivityRequest{Workload: &WorkloadSpec{Profile: "mcf", Uops: uint64(1000 + i)}})
		if _, cells := memoState(s); cells > planMemoCells {
			t.Fatalf("memo holds %d cells, bound %d", cells, planMemoCells)
		}
	}
	mk, _ := memoKeyOf(&SensitivityRequest{Workload: &WorkloadSpec{Profile: "mcf", Uops: 1000}})
	if _, ok := s.plans.get(mk); ok {
		t.Fatal("the oldest plan survived a full memo")
	}
}

// TestPlanMemoConcurrent: identical and distinct requests resolved from
// many goroutines at once all get their own plan's key (run under -race).
func TestPlanMemoConcurrent(t *testing.T) {
	s := memoServer("")
	const distinct = 4
	want := make([]resultcache.Key, distinct)
	for i := range want {
		rp, err := expandSensitivity(smallRequest(uint64(2000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rp.key
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j := (g + i) % distinct
				sp, err := s.resolveSensitivity(smallRequest(uint64(2000 + j)))
				if err != nil {
					t.Error(err)
					return
				}
				if sp.key != want[j] {
					t.Errorf("request %d resolved to key %s, want %s", j, sp.key, want[j])
				}
				for _, c := range sp.plan.Cells {
					if c.Key == (resultcache.Key{}) {
						t.Errorf("request %d: cell %s/%s has no key", j, c.Param, c.Variant)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := memoState(s); n != distinct {
		t.Fatalf("memo holds %d entries, want %d", n, distinct)
	}
}

// TestPlanMemoHTTPBytes: responses served from a memoized plan carry the
// bytes and X-Result-Key of a server that resolved the plan afresh.
func TestPlanMemoHTTPBytes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CacheDir: dir}, nil)
	post := func(ts string, body, query string) ([]byte, string) {
		t.Helper()
		resp, err := http.Post(ts+"/v1/sensitivity"+query, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", body, resp.StatusCode, b)
		}
		return b, resp.Header.Get("X-Result-Key")
	}
	b1, k1 := post(ts.URL, sensitivityBody(""), "")
	b2, k2 := post(ts.URL, sensitivityBody(""), "")
	if !bytes.Equal(b1, b2) || k1 != k2 || k1 == "" {
		t.Fatalf("memo-hit response differs from the first: key %q vs %q", k2, k1)
	}
	r3, k3 := post(ts.URL, sensitivityBody(`,"recompute":true`), "")
	if k3 != k1 {
		t.Fatalf("memo-hit recompute X-Result-Key %q, want %q", k3, k1)
	}
	stream, _ := post(ts.URL, sensitivityBody(`,"recompute":true`), "?stream=1")
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	var last streamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "report" || !bytes.Equal(last.Report, r3) {
		t.Fatalf("memo-hit stream ends with %s, want the recompute's report", lines[len(lines)-1])
	}
	if n, _ := memoState(s); n != 1 {
		t.Fatalf("memo holds %d entries after four posts of one plan, want 1", n)
	}

	// A second server over the same cache resolves the plan afresh; its
	// all-cached recompute is the reference for the memo hit's.
	_, fresh := newTestServer(t, Config{CacheDir: dir}, nil)
	ref, kref := post(fresh.URL, sensitivityBody(`,"recompute":true`), "")
	if !bytes.Equal(r3, ref) || k3 != kref {
		t.Fatalf("memo-hit recompute body differs from a fresh server's:\n%s\n%s", r3, ref)
	}
}

package service

import (
	"sync"
	"unsafe"

	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
	"perfstacks/internal/workload"
)

// memo is the service's one memo type: a map bounded by entry count and by
// the summed cost of its values, evicting the oldest entry first. A value is
// shared by every reader once put and is never written again.
type memo[K comparable, V any] struct {
	maxEntries int // 0 = bounded by cost only
	maxCost    int

	mu      sync.Mutex
	entries map[K]memoEntry[V]
	order   []K // insertion order, oldest first
	cost    int // summed cost of the entries held
}

type memoEntry[V any] struct {
	val  V
	cost int
}

// get returns the value held under k, if any.
func (m *memo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[k]
	m.mu.Unlock()
	return e.val, ok
}

// put records v under k at the given cost. A value whose cost alone exceeds
// the bound is not held. Concurrent misses on one key derive equal values,
// so an entry already held is kept.
func (m *memo[K, V]) put(k K, v V, cost int) {
	if cost > m.maxCost {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	if m.entries == nil {
		m.entries = make(map[K]memoEntry[V])
	}
	for m.cost+cost > m.maxCost || (m.maxEntries > 0 && len(m.entries) >= m.maxEntries) {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.cost -= m.entries[oldest].cost
		delete(m.entries, oldest)
	}
	m.entries[k] = memoEntry[V]{val: v, cost: cost}
	m.order = append(m.order, k)
	m.cost += cost
}

// planMemoCells bounds the plan memo by the cell slots its plans hold in
// total (~856 B each, so ~3.5 MB): room for two plans of the largest legal
// size. A plan is charged its Cells capacity, the memory it pins.
const planMemoCells = 2 * sensitivity.MaxCells

// resolvedPlan is what resolving one sensitivity request derives: the
// expanded plan and the key of its finished report.
type resolvedPlan struct {
	// plan is shared by every request that resolves to it and only read.
	plan *sensitivity.Plan
	key  resultcache.Key
}

// planMemo maps a sensitivity request's key (memoKeyOf) to its resolved
// plan.
type planMemo = memo[resultcache.Key, resolvedPlan]

func newPlanMemo() planMemo { return planMemo{maxCost: planMemoCells} }

// The request memo holds at most requestMemoEntries simulate plans, charged
// their body bytes plus requestPlanBytes each, within requestMemoBytes.
const (
	requestMemoEntries = 1024
	requestMemoBytes   = 4 << 20
	// requestPlanBytes is a plan and the profile its reader closure
	// captures.
	requestPlanBytes = int(unsafe.Sizeof(plan{}) + unsafe.Sizeof(workload.Profile{}))
)

// requestMemo maps the exact bytes of a simulate body to its resolved plan.
type requestMemo = memo[string, *plan]

func newRequestMemo() requestMemo {
	return requestMemo{maxEntries: requestMemoEntries, maxCost: requestMemoBytes}
}

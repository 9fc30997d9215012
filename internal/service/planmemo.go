package service

import (
	"sync"

	"perfstacks/internal/resultcache"
	"perfstacks/internal/sensitivity"
)

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
// plan, evicting the oldest entry first once the cells held would exceed
// planMemoCells. Its zero value is empty and ready to use.
type planMemo struct {
	mu      sync.Mutex
	entries map[resultcache.Key]resolvedPlan
	order   []resultcache.Key // insertion order, oldest first
	cells   int               // cell slots held across entries
}

// get returns the plan resolved under k, if held.
func (m *planMemo) get(k resultcache.Key) (resolvedPlan, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rp, ok := m.entries[k]
	return rp, ok
}

// put records rp under k. Concurrent misses on one key resolve equal plans,
// so an entry already held is kept.
func (m *planMemo) put(k resultcache.Key, rp resolvedPlan) {
	n := cap(rp.plan.Cells)
	if n > planMemoCells {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	if m.entries == nil {
		m.entries = make(map[resultcache.Key]resolvedPlan)
	}
	for m.cells+n > planMemoCells {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.cells -= cap(m.entries[oldest].plan.Cells)
		delete(m.entries, oldest)
	}
	m.entries[k] = rp
	m.order = append(m.order, k)
	m.cells += n
}

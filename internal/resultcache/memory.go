package resultcache

import (
	"bytes"
	"container/list"
	"sync"
	"unsafe"

	"perfstacks/internal/core"
	"perfstacks/internal/sim"
)

// memShards is the number of independently locked LRU shards. Shard choice
// is the key's first byte modulo memShards; SHA-256 output is uniform, so
// shards stay balanced without any extra mixing.
const memShards = 16

// decodedBytes is what a memoized decode adds to an entry's charge: the
// sim.Result and the MultiStack its Stacks points at. Every other part of a
// decoded result is held by value.
const decodedBytes = int64(unsafe.Sizeof(sim.Result{}) + unsafe.Sizeof(core.MultiStack{}))

// Memory is the in-memory tier: a sharded, byte-budgeted LRU. Each shard
// holds its own lock, map and recency list, so concurrent lookups from many
// request handlers contend only when they land on the same shard.
type Memory struct {
	shards [memShards]memShard
}

type memShard struct {
	mu    sync.Mutex
	limit int64 // byte budget for this shard
	used  int64
	items map[Key]*list.Element
	lru   *list.List // front = most recently used
}

type memEntry struct {
	key     Key
	payload []byte
	// res is the payload decoded by the first Cache.Result, shared
	// read-only by every later one; nil until then.
	res *sim.Result
	// onDisk records that this process wrote or read payload on the disk
	// tier, so a Put of the same bytes has nothing left to make durable.
	onDisk bool
}

// size is the entry's charge against its shard's budget.
func (e *memEntry) size() int64 {
	n := int64(len(e.payload))
	if e.res != nil {
		n += decodedBytes
	}
	return n
}

// NewMemory builds a memory tier with the given total byte budget spread
// across the shards. Budgets below one payload per shard still work: a Put
// larger than the shard budget is simply not cached.
func NewMemory(budgetBytes int64) *Memory {
	if budgetBytes < 1 {
		budgetBytes = 1
	}
	m := &Memory{}
	per := budgetBytes / memShards
	if per < 1 {
		per = 1
	}
	for i := range m.shards {
		m.shards[i].limit = per
		m.shards[i].items = make(map[Key]*list.Element)
		m.shards[i].lru = list.New()
	}
	return m
}

func (m *Memory) shard(k Key) *memShard { return &m.shards[int(k[0])%memShards] }

// Get returns the payload stored under k and marks it most recently used.
// The returned slice is shared: callers must not modify it.
func (m *Memory) Get(k Key) ([]byte, bool) {
	payload, _, ok := m.lookup(k)
	return payload, ok
}

// lookup is Get plus the entry's memoized decode (nil if none yet).
func (m *Memory) lookup(k Key) ([]byte, *sim.Result, bool) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, nil, false
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*memEntry)
	return e.payload, e.res, true
}

// Put stores payload under k, evicting least-recently-used entries to fit
// the shard budget. Payloads larger than the whole shard budget are not
// cached (they would evict everything for one entry).
func (m *Memory) Put(k Key, payload []byte) { m.put(k, payload, nil, false) }

// put is Put with a decode of payload to memoize (or nil) and whether
// payload is known to be on the disk tier. An entry already holding these
// exact bytes keeps its payload, gains res if it had no decode and onDisk
// if it was not durable; put then reports same and the entry's onDisk bit
// from before the call. Different bytes replace the entry's payload and
// drop its decode and onDisk bit.
func (m *Memory) put(k Key, payload []byte, res *sim.Result, onDisk bool) (same, wasOnDisk bool) {
	s := m.shard(k)
	if int64(len(payload)) > s.limit {
		return false, false
	}
	if int64(len(payload))+decodedBytes > s.limit {
		res = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		e := &memEntry{key: k, payload: payload, res: res, onDisk: onDisk}
		s.items[k] = s.lru.PushFront(e)
		s.used += e.size()
		s.evict()
		return false, false
	}
	e := el.Value.(*memEntry)
	s.lru.MoveToFront(el)
	s.used -= e.size()
	if same = bytes.Equal(e.payload, payload); same {
		wasOnDisk = e.onDisk
		if e.res == nil {
			e.res = res
		}
		e.onDisk = e.onDisk || onDisk
	} else {
		e.payload, e.res, e.onDisk = payload, res, onDisk
	}
	s.used += e.size()
	s.evict()
	return same, wasOnDisk
}

// markOnDisk sets the onDisk bit of k's entry if it still holds payload.
func (m *Memory) markOnDisk(k Key, payload []byte) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		if e := el.Value.(*memEntry); bytes.Equal(e.payload, payload) {
			e.onDisk = true
		}
	}
}

// memo attaches res, the decode of payload, to k's entry and returns the
// decode every caller should share: an earlier memo if a concurrent caller
// won, res otherwise. Nothing is attached if the entry is gone or now
// holds other bytes, or if payload and decode together exceed the shard
// budget.
func (m *Memory) memo(k Key, payload []byte, res *sim.Result) *sim.Result {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return res
	}
	e := el.Value.(*memEntry)
	if e.res != nil {
		return e.res
	}
	if !bytes.Equal(e.payload, payload) || int64(len(payload))+decodedBytes > s.limit {
		return res
	}
	e.res = res
	s.used += decodedBytes
	s.lru.MoveToFront(el)
	s.evict()
	return res
}

// evict drops least-recently-used entries until the shard fits its budget.
// The caller holds s.mu.
func (s *memShard) evict() {
	for s.used > s.limit {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.items, e.key)
		s.used -= e.size()
	}
}

// Len returns the number of cached entries across all shards.
func (m *Memory) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Package resultcache is the content-addressed store behind the simulation
// service and the batch drivers: completed measurements keyed by SHA-256
// over (canonical machine config, canonical run options, trace identity,
// schema version), held in a sharded in-memory LRU in front of an on-disk
// store. The same (config, trace) cell therefore simulates once — whether
// it recurs within one service process, across overlapping sweeps, or after
// a restart.
//
// Correctness before hit rate: payloads are stored with their own digest
// and verified on every disk read, so a corrupted entry (bit rot, torn
// write, hand-edited file) is detected, evicted and treated as a miss —
// never served. Any change to the simulator's observable behaviour bumps
// sim.SchemaVersion, which changes every key and orphans stale entries
// wholesale.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// Key is a 32-byte content address.
type Key [sha256.Size]byte

// String returns the key in hex (also the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives a content address from the identity parts (canonical config
// bytes, canonical option bytes, trace digest, schema version, ...). Parts
// are length-prefixed before hashing, so no concatenation of different part
// lists can collide.
func KeyOf(parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats counts cache outcomes. All fields are atomics: read with the
// matching Load functions or via Snapshot.
type Stats struct {
	// MemHits counts lookups served by the in-memory tier.
	MemHits atomic.Uint64
	// DiskHits counts lookups served (and verified) from disk.
	DiskHits atomic.Uint64
	// Misses counts lookups that found nothing in any tier.
	Misses atomic.Uint64
	// Corrupt counts disk entries rejected by digest/format verification.
	Corrupt atomic.Uint64
	// Stores counts successful Put operations.
	Stores atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	MemHits, DiskHits, Misses, Corrupt, Stores uint64
}

// Snapshot reads all counters at once (not atomically across fields, which
// is fine for monitoring).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		MemHits:  s.MemHits.Load(),
		DiskHits: s.DiskHits.Load(),
		Misses:   s.Misses.Load(),
		Corrupt:  s.Corrupt.Load(),
		Stores:   s.Stores.Load(),
	}
}

// Hits sums hits across tiers.
func (s StatsSnapshot) Hits() uint64 { return s.MemHits + s.DiskHits }

// Cache is the two-tier store. Either tier may be nil: a service without a
// -cache dir runs memory-only, a batch sweep with a tiny memory budget can
// run disk-only. The zero Cache is valid and caches nothing.
type Cache struct {
	mem  *Memory
	disk *Disk
	// Stats counts outcomes across both tiers.
	Stats Stats
}

// New assembles a two-tier cache (either tier may be nil).
func New(mem *Memory, disk *Disk) *Cache {
	return &Cache{mem: mem, disk: disk}
}

// Get returns the payload stored under k, consulting memory first and
// promoting disk hits into memory. The returned slice must not be modified.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	if c.mem != nil {
		if p, ok := c.mem.Get(k); ok {
			c.Stats.MemHits.Add(1)
			return p, true
		}
	}
	if c.disk != nil {
		p, ok, corrupt := c.disk.Get(k)
		if corrupt {
			c.Stats.Corrupt.Add(1)
		}
		if ok {
			c.Stats.DiskHits.Add(1)
			if c.mem != nil {
				c.mem.Put(k, p)
			}
			return p, true
		}
	}
	c.Stats.Misses.Add(1)
	return nil, false
}

// Put stores payload under k in every configured tier. Disk write failures
// are returned but leave the memory tier populated — a full disk degrades
// the cache, it does not fail the simulation that produced the payload.
func (c *Cache) Put(k Key, payload []byte) error {
	if c == nil {
		return nil
	}
	if c.mem != nil {
		c.mem.Put(k, payload)
	}
	var err error
	if c.disk != nil {
		err = c.disk.Put(k, payload)
	}
	if err == nil {
		c.Stats.Stores.Add(1)
	}
	return err
}

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

	"perfstacks/internal/export"
	"perfstacks/internal/sim"
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
	p, _, ok := c.lookup(k, false)
	return p, ok
}

// Result returns the decoded result stored under k. The first call for an
// entry decodes its payload with export.DecodeResult and memoizes the
// decode beside the bytes in the memory tier; later calls return that same
// pointer, so the result is shared and callers must not modify it. A disk
// hit is decoded, then promoted with its decode. A payload that fails to
// decode (an older schema, damaged bytes) is reported as a miss and never
// memoized; Stats count the lookup exactly as Get does.
func (c *Cache) Result(k Key) (*sim.Result, bool) {
	_, res, ok := c.lookup(k, true)
	return res, ok
}

// lookup walks the tiers for Get and, with decode, for Result.
func (c *Cache) lookup(k Key, decode bool) ([]byte, *sim.Result, bool) {
	if c == nil {
		return nil, nil, false
	}
	if c.mem != nil {
		if p, res, ok := c.mem.lookup(k); ok {
			c.Stats.MemHits.Add(1)
			if decode && res == nil {
				r, _, err := export.DecodeResult(p)
				if err != nil {
					return nil, nil, false
				}
				res = c.mem.memo(k, p, r)
			}
			return p, res, true
		}
	}
	if c.disk != nil {
		p, ok, corrupt := c.disk.Get(k)
		if corrupt {
			c.Stats.Corrupt.Add(1)
		}
		if ok {
			c.Stats.DiskHits.Add(1)
			var res *sim.Result
			if decode {
				r, _, err := export.DecodeResult(p)
				if err != nil {
					return nil, nil, false
				}
				res = r
			}
			if c.mem != nil {
				c.mem.put(k, p, res, true)
			}
			return p, res, true
		}
	}
	c.Stats.Misses.Add(1)
	return nil, nil, false
}

// Put stores payload under k in every configured tier. Disk write failures
// are returned but leave the memory tier populated — a full disk degrades
// the cache, it does not fail the simulation that produced the payload.
//
// A Put of the bytes the memory tier already holds for k writes nothing
// and keeps the entry's decode: with no disk tier there is nothing else to
// do, and with one the entry must be known durable — written or read on
// disk by this process — so a completed Put still survives a crash. Such a
// Put still counts in Stats.Stores.
func (c *Cache) Put(k Key, payload []byte) error {
	if c == nil {
		return nil
	}
	if c.mem != nil {
		if same, onDisk := c.mem.put(k, payload, nil, false); same && (onDisk || c.disk == nil) {
			c.Stats.Stores.Add(1)
			return nil
		}
	}
	var err error
	if c.disk != nil {
		err = c.disk.Put(k, payload)
		if err == nil && c.mem != nil {
			c.mem.markOnDisk(k, payload)
		}
	}
	if err == nil {
		c.Stats.Stores.Add(1)
	}
	return err
}

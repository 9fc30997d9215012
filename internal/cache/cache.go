// Package cache implements the cache hierarchy substrate: set-associative
// write-back caches with LRU replacement, miss status holding registers
// (MSHRs) that bound outstanding misses and create queueing delay under
// contention, a stream prefetcher, and instruction/data TLBs.
//
// The hierarchy is trace-driven: an access carries the cycle at which it is
// made and the cache returns the cycle at which the data is available. All
// queueing (MSHR occupancy, downstream bandwidth) is folded into that
// completion time. Unified levels (L2, L3) hold both instruction and data
// lines in one array, which produces the second-order coupling effects the
// paper discusses (e.g. a perfect L1I reduces the L2 miss rate for data).
package cache

import "fmt"

// LineSize is the cache line size in bytes, fixed at 64 across the hierarchy.
const LineSize = 64

// LineShift converts addresses to line numbers.
const LineShift = 6

// LineOf maps a byte address to its line number.
func LineOf(addr uint64) uint64 { return addr >> LineShift }

// Request is one line access into a cache level.
type Request struct {
	// Line is the line number (address >> LineShift).
	Line uint64
	// At is the cycle the request arrives at this level.
	At int64
	// Write marks stores (write-allocate) and dirty writebacks.
	Write bool
	// Instr marks instruction fetches (for per-type statistics).
	Instr bool
	// Prefetch marks hardware prefetch requests.
	Prefetch bool
}

// Result describes the outcome of an access.
type Result struct {
	// DoneAt is the cycle the data is available to the requester.
	DoneAt int64
	// MissLevels is how many cache levels the request missed in before
	// being satisfied (0 = hit in the level accessed).
	MissLevels int
}

// Level is anything that can serve line requests: a cache or main memory.
type Level interface {
	// Access serves the request, returning completion time and miss depth.
	Access(req Request) Result
	// ResetState restores power-on state (arrays, MSHRs, statistics).
	ResetState()
}

// Config sizes one cache level.
type Config struct {
	// Name labels the level in statistics output (e.g. "L1-D").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the load-to-use latency in cycles on a hit.
	HitLatency int64
	// MSHRs bounds outstanding misses; 0 means effectively unbounded.
	MSHRs int
	// PortCycles serializes accesses (hits, misses and prefetches alike) on
	// the cache's access port: at most one access may start per PortCycles.
	// 0 disables the port model. Port queueing is what lets heavy prefetch
	// traffic delay even requests that would hit in the array.
	PortCycles int64
	// Prefetch enables the stream prefetcher at this level.
	Prefetch PrefetchConfig
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	sets := c.SizeBytes / (LineSize * c.Ways)
	if sets < 1 {
		sets = 1
	}
	// Power-of-two sets for cheap indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return sets
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes < LineSize {
		return fmt.Errorf("cache %s: size %d smaller than a line", c.Name, c.SizeBytes)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache %s: ways must be >= 1", c.Name)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %s: hit latency must be >= 1", c.Name)
	}
	return nil
}

// Stats counts per-level cache events, split by request type.
type Stats struct {
	Hits           uint64
	Misses         uint64
	InstrHits      uint64
	InstrMisses    uint64
	PrefetchIssued uint64
	// PrefetchHits counts demand accesses that merged into an outstanding
	// fill (typically one initiated by the prefetcher or an earlier miss).
	PrefetchHits uint64
	Writebacks   uint64
	// MSHRStall accumulates cycles demand requests waited for a free MSHR.
	MSHRStall int64
}

// Accesses returns total demand accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns demand misses per access (0 when idle).
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

type line struct {
	tag   uint64 // line number | 1 shifted so 0 means invalid
	dirty bool
	lru   uint32
}

// Cache is one set-associative write-back level.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	lines    []line
	tick     uint32
	mshrs    mshrPool
	pf       *streamPrefetcher
	next     Level
	portNext int64

	// Stats is exported for experiment reporting.
	Stats Stats
}

// New builds a cache level in front of next.
func New(cfg Config, next Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:  cfg,
		sets: cfg.Sets(),
		ways: cfg.Ways,
		next: next,
	}
	c.lines = make([]line, c.sets*c.ways)
	c.mshrs = newMSHRPool(cfg.MSHRs)
	if cfg.Prefetch.Enabled {
		c.pf = newStreamPrefetcher(cfg.Prefetch)
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// ResetState implements Level. It does not reset downstream levels.
func (c *Cache) ResetState() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.tick = 0
	c.mshrs.reset()
	if c.pf != nil {
		c.pf.reset()
	}
	c.portNext = 0
	c.Stats = Stats{}
}

func (c *Cache) setOf(ln uint64) int { return int(ln & uint64(c.sets-1)) }

func tagOf(ln uint64) uint64 { return ln<<1 | 1 }

// lookup probes the array; returns way index or -1.
func (c *Cache) lookup(ln uint64) int {
	base := c.setOf(ln) * c.ways
	t := tagOf(ln)
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].tag == t {
			return base + w
		}
	}
	return -1
}

// install fills ln into its set, returning the evicted line (valid,dirty) if
// any.
func (c *Cache) install(ln uint64, dirty bool) (evicted uint64, evictedDirty, hadVictim bool) {
	base := c.setOf(ln) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.lines[i].tag == 0 {
			victim = i
			hadVictim = false
			goto fill
		}
		if c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
	hadVictim = true
	evicted = c.lines[victim].tag >> 1
	evictedDirty = c.lines[victim].dirty
fill:
	c.tick++
	c.lines[victim] = line{tag: tagOf(ln), dirty: dirty, lru: c.tick}
	return evicted, evictedDirty, hadVictim
}

// Access implements Level.
func (c *Cache) Access(req Request) Result {
	if c.cfg.PortCycles > 0 {
		if c.portNext > req.At {
			req.At = c.portNext
		}
		c.portNext = req.At + c.cfg.PortCycles
	}
	// An in-flight fill to the same line takes precedence over the array
	// state: the line is installed at allocation time for bookkeeping, but
	// its data only arrives at the fill time, so accesses before that are
	// secondary misses that merge with the outstanding MSHR.
	if fillAt, ok := c.mshrs.inflight(req.Line, req.At); ok {
		c.recordMiss(req)
		if !req.Prefetch {
			c.Stats.PrefetchHits++ // merged into an outstanding fill
		}
		c.observePrefetcher(req, true)
		done := fillAt
		if done < req.At+c.cfg.HitLatency {
			done = req.At + c.cfg.HitLatency
		}
		return Result{DoneAt: done, MissLevels: 1}
	}

	if w := c.lookup(req.Line); w >= 0 {
		// Hit.
		c.tick++
		c.lines[w].lru = c.tick
		if req.Write {
			c.lines[w].dirty = true
		}
		c.recordHit(req)
		c.observePrefetcher(req, false)
		return Result{DoneAt: req.At + c.cfg.HitLatency}
	}

	// Primary miss: allocate an MSHR, waiting if the pool is full.
	start, waited := c.mshrs.allocTime(req.At)
	if !req.Prefetch {
		c.Stats.MSHRStall += waited
	}
	down := c.next.Access(Request{
		Line:     req.Line,
		At:       start + c.cfg.HitLatency, // tag lookup before going down
		Write:    false,                    // fills are reads; dirtiness tracked locally
		Instr:    req.Instr,
		Prefetch: req.Prefetch,
	})
	fillAt := down.DoneAt
	c.mshrs.insert(req.Line, fillAt)
	c.recordMiss(req)

	// Install now (timing is carried by fillAt); handle dirty eviction. The
	// writeback is charged at the request time, not the future fill time:
	// timestamps into shared resources (ports, memory bandwidth) must stay
	// near-monotone or a far-future charge would block earlier requests.
	ev, dirty, had := c.install(req.Line, req.Write)
	if had && dirty {
		c.Stats.Writebacks++
		c.next.Access(Request{Line: ev, At: start, Write: true})
	}
	c.observePrefetcher(req, true)
	return Result{DoneAt: fillAt, MissLevels: 1 + down.MissLevels}
}

func (c *Cache) recordHit(req Request) {
	if req.Prefetch {
		return
	}
	c.Stats.Hits++
	if req.Instr {
		c.Stats.InstrHits++
	}
}

func (c *Cache) recordMiss(req Request) {
	if req.Prefetch {
		return
	}
	c.Stats.Misses++
	if req.Instr {
		c.Stats.InstrMisses++
	}
}

// observePrefetcher lets the stream prefetcher watch demand traffic and
// issue prefetches into this same level (occupying MSHRs, creating the
// contention the paper's bwaves case study hinges on).
func (c *Cache) observePrefetcher(req Request, miss bool) {
	if c.pf == nil || req.Prefetch || req.Instr {
		return
	}
	for _, ln := range c.pf.observe(req.Line, miss) {
		c.prefetchLine(ln, req.At)
	}
}

func (c *Cache) prefetchLine(ln uint64, at int64) {
	if c.lookup(ln) >= 0 {
		return
	}
	if _, ok := c.mshrs.find(ln); ok {
		return
	}
	start, _ := c.mshrs.allocTime(at)
	c.Stats.PrefetchIssued++
	down := c.next.Access(Request{Line: ln, At: start + c.cfg.HitLatency, Prefetch: true})
	c.mshrs.insert(ln, down.DoneAt)
	ev, dirty, had := c.install(ln, false)
	if had && dirty {
		c.Stats.Writebacks++
		c.next.Access(Request{Line: ev, At: start, Write: true})
	}
}

// Contains reports whether the line is resident (for tests).
func (c *Cache) Contains(ln uint64) bool { return c.lookup(ln) >= 0 }

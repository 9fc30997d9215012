package cache

import "perfstacks/internal/mem"

// HierarchyConfig describes a core's full memory hierarchy. The L3 slice and
// memory bandwidth are expected to be pre-scaled by the socket core count
// (the paper scales all uncore components down to mimic a loaded socket).
type HierarchyConfig struct {
	L1I  Config
	L1D  Config
	L2   Config
	L3   Config
	ITLB TLBConfig
	DTLB TLBConfig
	Mem  mem.Config

	// PerfectL1I makes every instruction fetch hit in L1-I (and skips the
	// ITLB): the paper's "perfect L1 Icache" idealization. TLB penalties are
	// lumped into the cache components, so idealizing a cache idealizes its
	// TLB too.
	PerfectL1I bool
	// PerfectL1D makes every data access hit in L1-D (and skips the DTLB).
	PerfectL1D bool

	// L3Slices address-partitions the L3 into a power-of-two number of
	// independent slices (SlicedLevel), each with SizeBytes/S capacity,
	// MSHRs/S miss registers and its own memory channel. 0 and 1 both mean a
	// monolithic L3 and are omitted from the canonical encoding, so adding
	// this knob changed no existing cache key.
	L3Slices int `canon:"omitzero"`
	// MemChannels is the memory channel count: a power-of-two multiple of
	// the slice count (each channel belongs to exactly one slice). 0 means
	// one channel per L3 slice, and is likewise canonical-omitted.
	MemChannels int `canon:"omitzero"`
}

// SliceCount returns the effective L3 slice count (0 and 1 both mean one).
func (cfg HierarchyConfig) SliceCount() int {
	if cfg.L3Slices < 1 {
		return 1
	}
	return cfg.L3Slices
}

// ChannelCount returns the effective memory channel count: MemChannels when
// set, otherwise one channel per L3 slice.
func (cfg HierarchyConfig) ChannelCount() int {
	if cfg.MemChannels < 1 {
		return cfg.SliceCount()
	}
	return cfg.MemChannels
}

// Hierarchy wires private L1-I, L1-D and a unified private L2 above a shared
// L3 slice and main memory. The unified L2/L3 levels hold instruction and
// data lines in one array, producing the I$/D$ coupling the paper analyzes.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	// L3 is the monolithic L3; nil when the L3 is shared and owned
	// elsewhere, or sliced (then L3Sliced holds it).
	L3 *Cache
	// L3Sliced is the address-sliced L3 when cfg.L3Slices > 1.
	L3Sliced *SlicedLevel
	ITLB     *TLB
	DTLB     *TLB
	Mem      *mem.Memory // nil when memory is shared and owned elsewhere

	cfg      HierarchyConfig
	perfectI bool
	perfectD bool
}

// memLevel adapts mem.Memory to the cache Level interface, routing each line
// to its channel with the slice hash (chanMask = channels-1, so on a
// single-channel device every request lands on channel 0 exactly as before).
type memLevel struct {
	m        *mem.Memory
	chanMask uint64
}

func (ml memLevel) Access(req Request) Result {
	done := ml.m.Access(mem.Request{
		Line: req.Line, At: req.At, Write: req.Write, Prefetch: req.Prefetch,
		Channel: sliceIndex(req.Line, ml.chanMask),
	})
	return Result{DoneAt: done, MissLevels: 0}
}

func (ml memLevel) ResetState() { ml.m.Reset() }

// MemLevel wraps a memory model as a Level (exported for the SMP harness).
// Lines are routed to the memory's channels by the slice hash.
func MemLevel(m *mem.Memory) Level {
	return memLevel{m: m, chanMask: uint64(m.Channels() - 1)}
}

// NewHierarchy builds a private hierarchy including its own L3 (monolithic
// or sliced per cfg.L3Slices) and memory model.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	s := cfg.SliceCount()
	m := mem.NewChannels(cfg.Mem, cfg.ChannelCount())
	if s == 1 {
		l3 := New(cfg.L3, MemLevel(m))
		h := newPrivate(cfg, l3)
		h.L3 = l3
		h.Mem = m
		return h
	}
	l3 := NewSlicedL3(cfg.L3, s, m)
	h := newPrivate(cfg, l3)
	h.L3Sliced = l3
	h.Mem = m
	return h
}

// NewHierarchyShared builds the private levels (L1-I, L1-D, L2, TLBs) on top
// of an externally owned shared level (typically an L3 in front of memory).
func NewHierarchyShared(cfg HierarchyConfig, shared Level) *Hierarchy {
	return newPrivate(cfg, shared)
}

func newPrivate(cfg HierarchyConfig, below Level) *Hierarchy {
	l2 := New(cfg.L2, below)
	return &Hierarchy{
		L1I:      New(cfg.L1I, l2),
		L1D:      New(cfg.L1D, l2),
		L2:       l2,
		ITLB:     NewTLB(cfg.ITLB),
		DTLB:     NewTLB(cfg.DTLB),
		cfg:      cfg,
		perfectI: cfg.PerfectL1I,
		perfectD: cfg.PerfectL1D,
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Reset restores power-on state on all owned levels.
func (h *Hierarchy) Reset() {
	h.L1I.ResetState()
	h.L1D.ResetState()
	h.L2.ResetState()
	if h.L3 != nil {
		h.L3.ResetState()
	}
	if h.L3Sliced != nil {
		h.L3Sliced.ResetState()
	}
	if h.Mem != nil {
		h.Mem.Reset()
	}
	h.ITLB.Reset()
	h.DTLB.Reset()
}

// Ifetch fetches the instruction line holding pc at the given cycle. It
// returns the cycle the line is available and whether the access missed L1-I
// (i.e. took longer than the L1-I hit latency).
func (h *Hierarchy) Ifetch(pc uint64, at int64) (doneAt int64, missed bool) {
	if h.perfectI {
		return at + h.L1I.cfg.HitLatency, false
	}
	extra, _ := h.ITLB.Access(PageOf(pc))
	res := h.L1I.Access(Request{Line: LineOf(pc), At: at + extra, Instr: true})
	done := res.DoneAt
	return done, extra > 0 || res.MissLevels > 0
}

// Data performs a data access at the given cycle. It returns the cycle the
// data is available and whether the access missed L1-D (or the DTLB).
func (h *Hierarchy) Data(addr uint64, at int64, write bool) (doneAt int64, missed bool) {
	done, depth := h.DataDepth(addr, at, write)
	return done, depth > 0
}

// DataDepth is Data with the miss depth exposed: 0 = L1-D hit, 1 = served by
// the next level (L2), 2 = the level after (L3), and so on; a DTLB miss on
// an otherwise-hitting access reports depth 1 (the walk leaves the core).
// The depth feeds the per-level memory breakdown of the commit-stage CPI
// stack — the paper's "more components, e.g. differentiating between the
// different cache levels and TLBs".
func (h *Hierarchy) DataDepth(addr uint64, at int64, write bool) (doneAt int64, depth int) {
	if h.perfectD {
		return at + h.L1D.cfg.HitLatency, 0
	}
	extra, tlbMiss := h.DTLB.Access(PageOf(addr))
	res := h.L1D.Access(Request{Line: LineOf(addr), At: at + extra, Write: write})
	d := res.MissLevels
	if d == 0 && tlbMiss {
		d = 1
	}
	return res.DoneAt, d
}

// DataHitLatency returns the L1-D hit latency (the load-to-use floor).
func (h *Hierarchy) DataHitLatency() int64 { return h.L1D.cfg.HitLatency }

// Address-sliced shared levels.
//
// Real sockets slice the LLC by a hash of the physical address so that
// disjoint-address traffic lands on disjoint slice pipelines. SlicedLevel
// reproduces that: a power-of-two number of independent Level state machines
// with a deterministic line hash routing every request to exactly one of
// them. Slicing is a model dimension: per-slice capacity, MSHR pool and
// memory channel, for bandwidth sensitivity per the scaled-uncore
// methodology (DESIGN §13).
package cache

import (
	"fmt"

	"perfstacks/internal/mem"
)

// sliceIndex hashes a line-aligned address onto a slice (mask = slices-1).
// The XOR-fold mixes tag bits into the low index bits so strided and
// page-local streams spread across slices instead of camping on one; because
// bit 0 of the line participates, consecutive lines round-robin across
// slices the way hashed LLC slices do on real parts. The hash is part of the
// deterministic model: changing it changes simulation results for S > 1.
func sliceIndex(line, mask uint64) int {
	h := line ^ line>>7 ^ line>>17
	return int(h & mask)
}

// SlicedLevel partitions one shared level's line space across a power-of-two
// set of independent slices. It implements Level; every request is routed to
// the unique slice owning its line, so the slices are disjoint state
// machines — no line ever appears in two slices, and two requests touching
// different slices share no model state. One slice (S=1) degenerates to the
// wrapped level with an identical access stream (TestSlicedSingleIdentical).
type SlicedLevel struct {
	slices []Level
	mask   uint64
}

// NewSlicedLevel builds a sliced level over the given slices (length must be
// a power of two >= 1).
func NewSlicedLevel(slices []Level) *SlicedLevel {
	n := len(slices)
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: slice count %d is not a power of two", n))
	}
	return &SlicedLevel{slices: slices, mask: uint64(n - 1)}
}

// NewSlicedL3 builds an S-slice shared L3 over a multi-channel memory. cfg
// describes the aggregate pool: each slice gets SizeBytes/S capacity and
// MSHRs/S miss registers (floor 1), so the totals match the monolithic
// configuration and S=1 is byte-identical to cache.New(cfg, MemLevel(m)).
// The memory must have at least S channels (a power-of-two multiple), so the
// channel hash refines the slice hash and each channel is owned by exactly
// one slice.
func NewSlicedL3(cfg Config, s int, m *mem.Memory) *SlicedLevel {
	if m.Channels() < s {
		panic(fmt.Sprintf("cache: %d L3 slices need >= %d memory channels, have %d", s, s, m.Channels()))
	}
	per := cfg
	per.SizeBytes = cfg.SizeBytes / s
	if cfg.MSHRs > 0 {
		per.MSHRs = cfg.MSHRs / s
		if per.MSHRs < 1 {
			per.MSHRs = 1
		}
	}
	below := MemLevel(m)
	slices := make([]Level, s)
	for i := range slices {
		slices[i] = New(per, below)
	}
	return NewSlicedLevel(slices)
}

// NumSlices returns the slice count.
func (s *SlicedLevel) NumSlices() int { return len(s.slices) }

// Slice returns slice i's underlying level (stats inspection, tests).
func (s *SlicedLevel) Slice(i int) Level { return s.slices[i] }

// SliceOf returns the index of the slice owning the given line.
func (s *SlicedLevel) SliceOf(line uint64) int { return sliceIndex(line, s.mask) }

// Access implements Level by routing to the owning slice.
func (s *SlicedLevel) Access(req Request) Result {
	return s.slices[sliceIndex(req.Line, s.mask)].Access(req)
}

// ResetState implements Level.
func (s *SlicedLevel) ResetState() {
	for _, sl := range s.slices {
		sl.ResetState()
	}
}

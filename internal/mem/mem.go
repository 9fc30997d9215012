// Package mem models main memory as a fixed-latency, bandwidth-limited
// device. Bandwidth is expressed as a minimum cycle spacing between line
// transfers; when requests arrive faster than the spacing allows, they queue
// and their completion times slide out. This is the classic "scaled uncore"
// memory model: the paper divides socket memory bandwidth by the core count
// to mimic a fully loaded processor, which here simply raises the per-line
// spacing.
//
// The device may be split into a power-of-two number of channels, each with
// its own bandwidth cursor and statistics. Callers that address-slice the
// levels above (cache.SlicedLevel) route each line to a channel by the same
// hash, so disjoint slices never share queueing state. Aggregate bandwidth
// is preserved by construction: each of n channels spaces lines
// CyclesPerLine*n apart, so together they sustain one line per CyclesPerLine.
package mem

import (
	"fmt"

	"perfstacks/internal/invariant"
)

// Request describes one line-sized memory access.
type Request struct {
	// Line is the line-aligned address.
	Line uint64
	// At is the cycle the request reaches memory.
	At int64
	// Write marks writeback traffic.
	Write bool
	// Prefetch marks hardware prefetches (accounted separately in stats).
	Prefetch bool
	// Channel selects the channel serving this line: 0 on a single-channel
	// device, the address-hash channel index otherwise. The caller routes —
	// memory has no opinion on the hash — so the cache layer and the memory
	// layer agree on slice ownership by construction.
	Channel int
}

// Config sizes the memory model.
type Config struct {
	// Latency is the idle (unloaded) access latency in core cycles.
	Latency int64
	// CyclesPerLine is the minimum spacing between line transfers, i.e. the
	// inverse bandwidth in core cycles per cache line. On a multi-channel
	// device this is the aggregate spacing; each channel runs n times slower.
	CyclesPerLine int64
	// MaxQueue bounds how far the bandwidth queue may run ahead; requests
	// that would exceed it are still served but the queue depth statistic
	// saturates. Zero means unbounded.
	MaxQueue int64
}

// Stats counts memory traffic.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Prefetches uint64
	// StallCycles accumulates queueing delay beyond the idle latency.
	StallCycles int64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Prefetches += o.Prefetches
	s.StallCycles += o.StallCycles
}

// Memory is the DRAM model. It is not safe for concurrent use: the SMP
// harness steps its cores round-robin on one goroutine, so a shared Memory
// sees one request at a time.
type Memory struct {
	cfg     Config
	spacing int64
	// nextSlot is the per-channel bandwidth cursor.
	nextSlot []int64
	// stats holds each channel's counters (ChannelStats).
	stats []Stats
}

// New builds a single-channel Memory from cfg. A zero CyclesPerLine disables
// the bandwidth limit.
func New(cfg Config) *Memory { return NewChannels(cfg, 1) }

// NewChannels builds a Memory with n independent channels. n must be a power
// of two >= 1 (the routing hash masks with n-1).
func NewChannels(cfg Config, n int) *Memory {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("mem: channel count %d is not a power of two", n))
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 1
	}
	return &Memory{
		cfg:      cfg,
		spacing:  cfg.CyclesPerLine * int64(n),
		nextSlot: make([]int64, n),
		stats:    make([]Stats, n),
	}
}

// Config returns the active configuration.
func (m *Memory) Config() Config { return m.cfg }

// Channels returns the channel count.
func (m *Memory) Channels() int { return len(m.nextSlot) }

// Stats aggregates traffic counters over all channels.
func (m *Memory) Stats() Stats {
	var t Stats
	for i := range m.stats {
		t.add(m.stats[i])
	}
	return t
}

// ChannelStats returns channel i's counters.
func (m *Memory) ChannelStats(i int) Stats { return m.stats[i] }

// Access serves one request and returns the cycle its data is available.
func (m *Memory) Access(req Request) int64 {
	if invariant.Enabled {
		invariant.Assertf(req.Channel >= 0 && req.Channel < len(m.nextSlot),
			"mem: channel %d out of range [0,%d)", req.Channel, len(m.nextSlot))
	}
	st := &m.stats[req.Channel]
	switch {
	case req.Write:
		st.Writes++
	case req.Prefetch:
		st.Prefetches++
	default:
		st.Reads++
	}
	start := req.At
	if m.spacing > 0 {
		if next := m.nextSlot[req.Channel]; next > start {
			st.StallCycles += next - start
			start = next
		}
		m.nextSlot[req.Channel] = start + m.spacing
	}
	return start + m.cfg.Latency
}

// Reset clears queue state and statistics.
func (m *Memory) Reset() {
	for i := range m.nextSlot {
		m.nextSlot[i] = 0
		m.stats[i] = Stats{}
	}
}

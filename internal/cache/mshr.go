package cache

import "math/bits"

// mshrPool models a fixed set of miss status holding registers. Each entry
// tracks an outstanding line fill and the cycle it completes. When the pool
// is full, a new miss must wait until the earliest outstanding fill frees
// its entry — this waiting is the queueing delay that surfaces as the MSHR
// contention effects discussed in the paper (Section V-A, bwaves).
//
// No operation scans every slot. byFill is a binary min-heap of the valid
// slots ordered by (fill time, slot): its top is the earliest fill, so
// expire pops only the entries that are due, allocTime reads the earliest
// fill in O(1), and the unbounded pool's recycle victim (the lowest slot
// among the earliest fills) is the top as well. idx maps a line to its
// slots, so find probes a few buckets instead of walking the pool. Slot
// choice (scanPos) and the recycle rule are those of a plain linear pool,
// so every return value is the same as one.
type mshrPool struct {
	cap     int // 0 = unbounded
	lines   []uint64
	fillAt  []int64
	valid   []bool
	inUse   int
	scanPos int
	// lastFill bounds every entry's fill time from above: no entry is
	// outstanding at or after it.
	lastFill int64
	// byFill holds the inUse valid slots as a min-heap on (fillAt, slot).
	byFill []int32
	// idx is an open-addressed, linearly probed line→slot index over the
	// valid entries: each bucket holds slot+1 (0 = empty). A line may own
	// several slots; find picks the lowest, as a scan in slot order would.
	idx   []int32
	shift uint // 64 - log2(len(idx))
}

func newMSHRPool(capacity int) mshrPool {
	n := capacity
	if n <= 0 {
		n = 64 // tracking storage for unbounded pools (merge detection only)
	}
	// At least twice as many buckets as slots keeps the probe runs short.
	logB := bits.Len(uint(2*n - 1))
	return mshrPool{
		cap:    capacity,
		lines:  make([]uint64, n),
		fillAt: make([]int64, n),
		valid:  make([]bool, n),
		byFill: make([]int32, 0, n),
		idx:    make([]int32, 1<<logB),
		shift:  uint(64 - logB),
	}
}

func (p *mshrPool) reset() {
	for i := range p.valid {
		p.valid[i] = false
	}
	for i := range p.idx {
		p.idx[i] = 0
	}
	p.byFill = p.byFill[:0]
	p.inUse = 0
	p.scanPos = 0
	p.lastFill = 0
}

// before orders slots by fill time, then by slot.
func (p *mshrPool) before(a, b int32) bool {
	fa, fb := p.fillAt[a], p.fillAt[b]
	return fa < fb || fa == fb && a < b
}

// siftUp restores the heap above position i.
func (p *mshrPool) siftUp(i int) {
	h := p.byFill
	for i > 0 {
		parent := (i - 1) / 2
		if !p.before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the heap below position i.
func (p *mshrPool) siftDown(i int) {
	h := p.byFill
	for {
		least := i
		if l := 2*i + 1; l < len(h) && p.before(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && p.before(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// home is line's first bucket (Fibonacci hashing).
func (p *mshrPool) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> p.shift)
}

// index adds slot, which holds a valid entry, to the line index.
func (p *mshrPool) index(slot int) {
	mask := len(p.idx) - 1
	b := p.home(p.lines[slot])
	for p.idx[b] != 0 {
		b = (b + 1) & mask
	}
	p.idx[b] = int32(slot + 1)
}

// unindex removes slot from the line index. lines[slot] must still hold the
// line it was indexed under. The run after the hole is shifted back so that
// no lookup stops early.
func (p *mshrPool) unindex(slot int) {
	mask := len(p.idx) - 1
	b := p.home(p.lines[slot])
	for p.idx[b] != int32(slot+1) {
		b = (b + 1) & mask
	}
	for hole, j := b, (b+1)&mask; ; j = (j + 1) & mask {
		e := p.idx[j]
		if e == 0 {
			p.idx[hole] = 0
			return
		}
		// An entry may fill the hole unless its home lies cyclically in
		// (hole, j]: then a probe for it would never pass the hole.
		if h := p.home(p.lines[e-1]); (j-h)&mask >= (j-hole)&mask {
			p.idx[hole] = e
			hole = j
		}
	}
}

// expire frees entries whose fills completed at or before now.
func (p *mshrPool) expire(now int64) {
	for len(p.byFill) > 0 {
		i := int(p.byFill[0])
		if p.fillAt[i] > now {
			return
		}
		p.valid[i] = false
		p.inUse--
		p.unindex(i)
		last := len(p.byFill) - 1
		p.byFill[0] = p.byFill[last]
		p.byFill = p.byFill[:last]
		p.siftDown(0)
	}
}

// inflight returns the fill time of line's entry if that fill completes
// after now. Once every fill is done by now there is nothing to look up.
func (p *mshrPool) inflight(line uint64, now int64) (int64, bool) {
	if p.lastFill <= now {
		return 0, false
	}
	fillAt, ok := p.find(line)
	return fillAt, ok && fillAt > now
}

// find returns the fill time of the valid entry for line, completed or not,
// if any. Of several entries for line, the lowest slot's wins.
func (p *mshrPool) find(line uint64) (int64, bool) {
	mask := len(p.idx) - 1
	slot := -1
	for b := p.home(line); p.idx[b] != 0; b = (b + 1) & mask {
		if s := int(p.idx[b] - 1); p.lines[s] == line && (slot < 0 || s < slot) {
			slot = s
		}
	}
	if slot < 0 {
		return 0, false
	}
	return p.fillAt[slot], true
}

// allocTime returns the earliest cycle >= now at which a free entry exists,
// and the number of cycles waited. It expires completed fills first.
func (p *mshrPool) allocTime(now int64) (start int64, waited int64) {
	p.expire(now)
	if p.cap <= 0 || p.inUse < p.cap {
		return now, 0
	}
	// Pool full: wait for the earliest outstanding fill, the heap's top
	// (later than now, or expire would have freed it).
	earliest := p.fillAt[p.byFill[0]]
	p.expire(earliest)
	return earliest, earliest - now
}

// insert records an outstanding fill. The caller must have used allocTime to
// find a legal start so a slot is free (or the pool is unbounded, in which
// case the oldest tracked entry may be recycled).
func (p *mshrPool) insert(line uint64, fillAt int64) {
	p.lastFill = max(p.lastFill, fillAt)
	if p.inUse < len(p.valid) {
		// Take the first invalid slot from scanPos on.
		i := p.scanPos
		for p.valid[i] {
			if i++; i == len(p.valid) {
				i = 0
			}
		}
		p.valid[i] = true
		p.lines[i] = line
		p.fillAt[i] = fillAt
		p.inUse++
		p.index(i)
		p.byFill = append(p.byFill, int32(i))
		p.siftUp(len(p.byFill) - 1)
		if i++; i == len(p.valid) {
			i = 0
		}
		p.scanPos = i
		return
	}
	// Full tracking storage (an unbounded pool): recycle the earliest fill,
	// the lowest slot among ties, which tops the heap.
	victim := int(p.byFill[0])
	p.unindex(victim)
	p.lines[victim] = line
	p.fillAt[victim] = fillAt
	p.index(victim)
	p.siftDown(0)
}

// occupancy returns live entries at the given cycle (for tests).
func (p *mshrPool) occupancy(now int64) int {
	p.expire(now)
	return p.inUse
}

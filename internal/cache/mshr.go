package cache

// mshrPool models a fixed set of miss status holding registers. Each entry
// tracks an outstanding line fill and the cycle it completes. When the pool
// is full, a new miss must wait until the earliest outstanding fill frees
// its entry — this waiting is the queueing delay that surfaces as the MSHR
// contention effects discussed in the paper (Section V-A, bwaves).
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
}

func newMSHRPool(capacity int) mshrPool {
	n := capacity
	if n <= 0 {
		n = 64 // tracking storage for unbounded pools (merge detection only)
	}
	return mshrPool{
		cap:    capacity,
		lines:  make([]uint64, n),
		fillAt: make([]int64, n),
		valid:  make([]bool, n),
	}
}

func (p *mshrPool) reset() {
	for i := range p.valid {
		p.valid[i] = false
	}
	p.inUse = 0
	p.scanPos = 0
	p.lastFill = 0
}

// expire frees entries whose fills completed at or before now.
func (p *mshrPool) expire(now int64) {
	if p.inUse == 0 {
		return
	}
	for i := range p.valid {
		if p.valid[i] && p.fillAt[i] <= now {
			p.valid[i] = false
			p.inUse--
		}
	}
}

// inflight returns the fill time of line's entry if that fill completes
// after now. Once every fill is done by now there is nothing to scan.
func (p *mshrPool) inflight(line uint64, now int64) (int64, bool) {
	if p.lastFill <= now {
		return 0, false
	}
	fillAt, ok := p.find(line)
	return fillAt, ok && fillAt > now
}

// find returns the fill time of the valid entry for line, completed or not,
// if any.
func (p *mshrPool) find(line uint64) (int64, bool) {
	for i := range p.valid {
		if p.valid[i] && p.lines[i] == line {
			return p.fillAt[i], true
		}
	}
	return 0, false
}

// allocTime returns the earliest cycle >= now at which a free entry exists,
// and the number of cycles waited. It expires completed fills first.
func (p *mshrPool) allocTime(now int64) (start int64, waited int64) {
	p.expire(now)
	if p.cap <= 0 || p.inUse < p.cap {
		return now, 0
	}
	// Pool full: wait for the earliest outstanding fill.
	earliest := int64(-1)
	for i := range p.valid {
		if p.valid[i] && (earliest < 0 || p.fillAt[i] < earliest) {
			earliest = p.fillAt[i]
		}
	}
	if earliest <= now {
		return now, 0
	}
	p.expire(earliest)
	return earliest, earliest - now
}

// insert records an outstanding fill. The caller must have used allocTime to
// find a legal start so a slot is free (or the pool is unbounded, in which
// case the oldest tracked entry may be recycled).
func (p *mshrPool) insert(line uint64, fillAt int64) {
	p.lastFill = max(p.lastFill, fillAt)
	// Prefer an invalid slot.
	for n := 0; n < len(p.valid); n++ {
		i := (p.scanPos + n) % len(p.valid)
		if !p.valid[i] {
			p.valid[i] = true
			p.lines[i] = line
			p.fillAt[i] = fillAt
			p.inUse++
			p.scanPos = (i + 1) % len(p.valid)
			return
		}
	}
	// Unbounded pool with full tracking storage: recycle the earliest fill.
	victim := 0
	for i := range p.valid {
		if p.fillAt[i] < p.fillAt[victim] {
			victim = i
		}
	}
	p.lines[victim] = line
	p.fillAt[victim] = fillAt
}

// occupancy returns live entries at the given cycle (for tests).
func (p *mshrPool) occupancy(now int64) int {
	p.expire(now)
	return p.inUse
}

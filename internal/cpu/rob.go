package cpu

import (
	"math"
	"math/bits"

	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// wpBit marks wrong-path sequence numbers; they live in their own dense
// counter space so they never collide with trace sequence numbers.
const wpBit = uint64(1) << 63

// Per-entry ROB status flags (rob.flags).
const (
	robIssued uint8 = 1 << iota
	robDcacheMiss
	robMispredict // branch that was mispredicted (resolves at doneAt)
)

// rob is a ring-buffer reorder buffer laid out as a structure of arrays: the
// uop payloads, latencies, completion times and status flags live in dense
// parallel slices, so the pipeline's hot walks (srcScan over u[slot].Src,
// the per-slot flag checks) touch narrow homogeneous arrays instead of
// striding over one wide struct. The ring is sized to the next power of two
// above the architectural capacity so the per-uop slot arithmetic is a mask
// instead of an integer division (ROB sizes like 224 are not powers of two,
// and the modulo showed up hot in profiles).
type rob struct {
	u      []trace.Uop
	lat    []int64
	doneAt []int64
	flags  []uint8
	depth  []uint8 // cache levels missed by a load (0 = L1 hit)

	mask  int // len(u) - 1
	cap   int // architectural capacity (<= len(u))
	head  int
	count int
}

func newROB(size int) *rob {
	ring := 1
	for ring < size {
		ring <<= 1
	}
	return &rob{
		u:      make([]trace.Uop, ring),
		lat:    make([]int64, ring),
		doneAt: make([]int64, ring),
		flags:  make([]uint8, ring),
		depth:  make([]uint8, ring),
		mask:   ring - 1,
		cap:    size,
	}
}

func (r *rob) full() bool  { return r.count == r.cap }
func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) len() int    { return r.count }

// push allocates the tail slot for u and returns its index. The slot's
// timing and status columns are reset in place.
func (r *rob) push(u *trace.Uop, lat int64, mispredict bool) int {
	slot := (r.head + r.count) & r.mask
	r.count++
	r.u[slot] = *u
	r.lat[slot] = lat
	r.doneAt[slot] = 0
	var f uint8
	if mispredict {
		f = robMispredict
	}
	r.flags[slot] = f
	r.depth[slot] = 0
	return slot
}

// headSlot returns the oldest in-flight slot (-1 when empty).
func (r *rob) headSlot() int {
	if r.count == 0 {
		return -1
	}
	return r.head
}

// doneBy reports whether the slot's uop has issued and completed by now.
func (r *rob) doneBy(slot int, now int64) bool {
	return r.flags[slot]&robIssued != 0 && r.doneAt[slot] <= now
}

// pop retires the head entry.
func (r *rob) pop() {
	r.head = (r.head + 1) & r.mask
	r.count--
}

// popTailWrongPath removes wrong-path entries from the tail (squash),
// returning how many were removed.
func (r *rob) popTailWrongPath() int {
	n := 0
	for r.count > 0 {
		slot := (r.head + r.count - 1) & r.mask
		if !r.u[slot].WrongPath {
			break
		}
		r.count--
		n++
	}
	return n
}

// classify applies the paper's blamed-instruction classification (Table II
// lines 10-16) to a slot: a load with an outstanding D-cache miss charges
// the D-cache component; an instruction with latency > 1 charges the ALU
// latency component; a single-cycle instruction charges dependence.
func (r *rob) classify(slot int) core.ProdClass {
	if r.u[slot].Op == trace.OpLoad {
		if r.flags[slot]&robDcacheMiss != 0 {
			return core.ProdDCache
		}
		// A hit load still has multi-cycle latency.
		return core.ProdLongLat
	}
	if r.lat[slot] > 1 {
		return core.ProdLongLat
	}
	return core.ProdDepend
}

// Scoreboard status flags (scoreboard.meta, low nibble); the high nibble
// holds the producer's miss depth.
const (
	sbIssued uint8 = 1 << iota
	sbIsLoad
	sbMiss
	sbLongLat // latency > 1, precomputed at issue
)

// scoreboard tracks producer readiness by sequence number. Correct-path and
// wrong-path uops have separate dense counter spaces; each space is a ring
// sized to the next power of two above the in-flight window, so the per-seq
// slot lookup is a mask rather than a division (idx() runs on every
// producer probe). The two spaces share parallel arrays — completion
// times, packed status bytes and the heads of the wait lists of RS entries
// blocked on the producer (Core.wake) — with the wrong-path half at offset
// size, so idx() is branch-free on the wpBit. Producers older than the
// in-flight window have committed and are always ready.
type scoreboard struct {
	done     []int64 // len 2*size: correct-path space, then wrong-path space
	meta     []uint8
	wait     []int32 // head of the producer's wait list: consumer ROB slot+1, 0 = none
	mask     uint64  // size - 1
	size     uint64
	oldestCP uint64 // sequence numbers below this have committed
}

func newScoreboard(window int) *scoreboard {
	size := 1
	for size < window {
		size <<= 1
	}
	return &scoreboard{
		done: make([]int64, 2*size),
		meta: make([]uint8, 2*size),
		wait: make([]int32, 2*size),
		mask: uint64(size - 1),
		size: uint64(size),
	}
}

// idx maps a sequence number to its slot: the masked counter, offset into
// the wrong-path half when the wpBit is set.
func (s *scoreboard) idx(seq uint64) uint64 {
	return seq&s.mask + (seq>>63)*s.size
}

// allocate resets the producer record when a uop dispatches.
func (s *scoreboard) allocate(seq uint64, isLoad bool) {
	i := s.idx(seq)
	s.done[i] = 0
	var m uint8
	if isLoad {
		m = sbIsLoad
	}
	s.meta[i] = m
}

// issue records execution results.
func (s *scoreboard) issue(seq uint64, doneAt, lat int64, miss bool, missDepth uint8) {
	i := s.idx(seq)
	s.done[i] = doneAt
	m := s.meta[i] | sbIssued | missDepth<<4
	if miss {
		m |= sbMiss
	}
	if lat > 1 {
		m |= sbLongLat
	}
	s.meta[i] = m
}

// readyAt returns when the producer's result is available, or (0,true) for
// committed/absent producers; ok=false when the producer has not issued yet.
func (s *scoreboard) readyAt(seq uint64) (int64, bool) {
	if seq == trace.NoProducer {
		return 0, true
	}
	if seq&wpBit == 0 && seq < s.oldestCP {
		return 0, true
	}
	i := s.idx(seq)
	if s.meta[i]&sbIssued == 0 {
		return 0, false
	}
	return s.done[i], true
}

// producerClassDepth classifies a producer for issue-stage accounting
// (Table II, issue column): the producer of the first non-ready
// instruction. It also reports whether the producer is a load and, for a
// missing load, its miss depth.
func (s *scoreboard) producerClassDepth(seq uint64) (cls core.ProdClass, isLoad bool, depth uint8) {
	if seq == trace.NoProducer || (seq&wpBit == 0 && seq < s.oldestCP) {
		return core.ProdNone, false, 0
	}
	m := s.meta[s.idx(seq)]
	if m&sbIsLoad != 0 {
		if m&(sbIssued|sbMiss) == sbIssued|sbMiss {
			return core.ProdDCache, true, m >> 4
		}
		return core.ProdLongLat, true, 0
	}
	if m&(sbIssued|sbLongLat) == sbIssued|sbLongLat {
		return core.ProdLongLat, false, 0
	}
	// Unissued producers and issued single-cycle ones are dependence-chain
	// stalls either way.
	return core.ProdDepend, false, 0
}

// retire advances the committed horizon.
func (s *scoreboard) retire(seq uint64) {
	if seq&wpBit == 0 && seq >= s.oldestCP {
		s.oldestCP = seq + 1
	}
}

// bitset is a ring of bits whose length is a power of two; a ring shorter
// than 64 bits uses the low bits of one word. The reservation stations are
// bitsets over ROB ring slots, and the completion calendar's wheel is one
// over cycles.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// next returns the first set bit at or after i in ring order, wrapping past
// the end, or -1 when the set is empty.
func (b bitset) next(i int) int { return b.nextAndNot(nil, i) }

// nextAndNot is next over the bits of b that are clear in x (a nil x
// excludes nothing).
func (b bitset) nextAndNot(x bitset, i int) int {
	w, n := i>>6, len(b)
	if v := b.word(x, w) >> (i & 63); v != 0 {
		return i + bits.TrailingZeros64(v)
	}
	for k := 1; k < n; k++ {
		j := (w + k) & (n - 1)
		if v := b.word(x, j); v != 0 {
			return j<<6 | bits.TrailingZeros64(v)
		}
	}
	if v := b.word(x, w) & (1<<(i&63) - 1); v != 0 {
		return w<<6 | bits.TrailingZeros64(v)
	}
	return -1
}

// word returns word j of b with the bits of x cleared.
func (b bitset) word(x bitset, j int) uint64 {
	if x == nil {
		return b[j]
	}
	return b[j] &^ x[j]
}

// calHorizon is the span of the completion calendar's wheel in cycles. It is
// a power of two above the common memory-miss latencies (~250-400 cycles on
// the built-in machines); completions further out, from queued misses, wait
// in the overflow list.
const (
	calHorizon = 512
	calMask    = calHorizon - 1
)

// calendar is the core's completion calendar: a bitmap timing wheel over
// [base, base+calHorizon) plus an overflow list for later times. A set wheel
// bit marks a cycle at which some event falls: the completion of an issued
// uop, or the readyAt of a timed RS entry, which is itself some producer's
// completion. Timed entries are listed per wheel slot (due) so the cycle
// their readyAt arrives promotes them to ready. Cycles before base have been
// processed and their bits cleared.
type calendar struct {
	when bitset
	// due heads, per wheel slot, the list of timed ROB slots (slot+1, 0 =
	// none) whose readyAt falls there, linked through Core.link.
	due []int32
	// over holds the events at base+calHorizon or later, in no order;
	// overMin is their earliest time (math.MaxInt64 when there are none).
	// Its capacity starts at twice the ROB ring, above the few dozen far
	// events memory-bound profiles keep pending.
	over    []calEvent
	overMin int64
	base    int64
}

// calEvent is an overflow event: a timed entry's ROB slot and readyAt, or
// (slot -1) a completion time only.
type calEvent struct {
	at   int64
	slot int32
}

func newCalendar(robRing int) calendar {
	return calendar{
		when:    newBitset(calHorizon),
		due:     make([]int32, calHorizon),
		over:    make([]calEvent, 0, 2*robRing),
		overMin: math.MaxInt64,
	}
}

// add records an event at t >= base. slot >= 0 makes it a timed entry's
// promotion, linked through link; slot -1 records a completion time only.
func (cal *calendar) add(t int64, slot int, link []int32) {
	if invariant.Enabled && t < cal.base {
		invariant.Failf("calendar event at %d, before its first unprocessed cycle %d", t, cal.base)
	}
	if t-cal.base >= calHorizon {
		cal.over = append(cal.over, calEvent{t, int32(slot)})
		cal.overMin = min(cal.overMin, t)
		return
	}
	p := int(t) & calMask
	cal.when.set(p)
	if slot >= 0 {
		link[slot] = cal.due[p]
		cal.due[p] = int32(slot) + 1
	}
}

// remove withdraws a squashed timed entry's promotion at t. Its completion
// event, if any, stays: a spurious event only costs a skipped window.
func (cal *calendar) remove(slot int, t int64, link []int32) {
	if t-cal.base >= calHorizon {
		for i := range cal.over {
			if cal.over[i].slot == int32(slot) {
				cal.over[i].slot = -1
				break
			}
		}
		return
	}
	p := &cal.due[int(t)&calMask]
	for *p != int32(slot)+1 {
		p = &link[*p-1]
	}
	*p = link[slot]
}

// next returns the earliest pending event time, or math.MaxInt64.
func (cal *calendar) next() int64 {
	p := int(cal.base) & calMask
	if q := cal.when.next(p); q >= 0 {
		return cal.base + int64((q-p)&calMask)
	}
	return cal.overMin
}

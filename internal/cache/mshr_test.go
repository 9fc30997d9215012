package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// linearMSHRPool is the MSHR pool as a plain linear scan over its slots:
// every operation walks the whole pool. It is the reference mshrPool must
// match return for return.
type linearMSHRPool struct {
	cap      int
	lines    []uint64
	fillAt   []int64
	valid    []bool
	inUse    int
	scanPos  int
	lastFill int64
}

func newLinearMSHRPool(capacity int) *linearMSHRPool {
	n := capacity
	if n <= 0 {
		n = 64
	}
	return &linearMSHRPool{cap: capacity, lines: make([]uint64, n), fillAt: make([]int64, n), valid: make([]bool, n)}
}

func (p *linearMSHRPool) reset() {
	for i := range p.valid {
		p.valid[i] = false
	}
	p.inUse, p.scanPos, p.lastFill = 0, 0, 0
}

func (p *linearMSHRPool) expire(now int64) {
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

func (p *linearMSHRPool) inflight(line uint64, now int64) (int64, bool) {
	if p.lastFill <= now {
		return 0, false
	}
	fillAt, ok := p.find(line)
	return fillAt, ok && fillAt > now
}

func (p *linearMSHRPool) find(line uint64) (int64, bool) {
	for i := range p.valid {
		if p.valid[i] && p.lines[i] == line {
			return p.fillAt[i], true
		}
	}
	return 0, false
}

func (p *linearMSHRPool) allocTime(now int64) (int64, int64) {
	p.expire(now)
	if p.cap <= 0 || p.inUse < p.cap {
		return now, 0
	}
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

func (p *linearMSHRPool) insert(line uint64, fillAt int64) {
	p.lastFill = max(p.lastFill, fillAt)
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
	victim := 0
	for i := range p.valid {
		if p.fillAt[i] < p.fillAt[victim] {
			victim = i
		}
	}
	p.lines[victim] = line
	p.fillAt[victim] = fillAt
}

func (p *linearMSHRPool) occupancy(now int64) int {
	p.expire(now)
	return p.inUse
}

// TestMSHRPoolMatchesLinearScan drives the indexed pool and the linear
// reference through the same random operations and requires every return
// value, and the slot layout after each operation, to agree. Fill times
// come in coarse steps so ties are common, and some phases insert without
// allocating first: that fills an unbounded pool's tracking storage and
// takes the recycle path (the lowest slot among the earliest fills).
func TestMSHRPoolMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{0, 1, 4, 10, 16, 32, 128} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity) + 1))
			p, ref := newMSHRPool(capacity), newLinearMSHRPool(capacity)
			lines := uint64(2*len(ref.valid) + 8)
			now, recycled := int64(0), 0
			for op := 0; op < 60000; op++ {
				// Phases of 2000 operations alternate slow and fast clocks and
				// allocating and raw inserts.
				phase := op / 2000 % 4
				if phase%2 == 0 {
					now += int64(rng.Intn(3))
				} else {
					now += int64(rng.Intn(12))
				}
				fill := func(at int64) int64 { return at + 1 + 25*int64(rng.Intn(12)) }
				var what string
				switch r := rng.Intn(100); {
				case r < 35:
					what = "alloc+insert"
					s, w := p.allocTime(now)
					rs, rw := ref.allocTime(now)
					if s != rs || w != rw {
						t.Fatalf("op %d: allocTime(%d) = %d, %d; linear gives %d, %d", op, now, s, w, rs, rw)
					}
					line, f := rng.Uint64()%lines, fill(s)
					p.insert(line, f)
					ref.insert(line, f)
				case r < 50 && phase >= 2:
					what = "raw insert"
					if ref.inUse == len(ref.valid) {
						recycled++
					}
					line, f := rng.Uint64()%lines, fill(now)
					p.insert(line, f)
					ref.insert(line, f)
				case r < 55:
					what = "expire"
					at := now + int64(rng.Intn(60))
					p.expire(at)
					ref.expire(at)
				case r < 60:
					what = "occupancy"
					at := now + int64(rng.Intn(60))
					if got, want := p.occupancy(at), ref.occupancy(at); got != want {
						t.Fatalf("op %d: occupancy(%d) = %d, linear gives %d", op, at, got, want)
					}
				case r == 60:
					what = "reset"
					p.reset()
					ref.reset()
				default:
					what = "lookup"
				}
				for i := 0; i < 3; i++ {
					line, at := rng.Uint64()%lines, now+int64(rng.Intn(400))-50
					f, ok := p.find(line)
					rf, rok := ref.find(line)
					if f != rf || ok != rok {
						t.Fatalf("op %d (%s): find(%d) = %d, %v; linear gives %d, %v", op, what, line, f, ok, rf, rok)
					}
					f, ok = p.inflight(line, at)
					rf, rok = ref.inflight(line, at)
					if f != rf || ok != rok {
						t.Fatalf("op %d (%s): inflight(%d, %d) = %d, %v; linear gives %d, %v", op, what, line, at, f, ok, rf, rok)
					}
				}
				if p.inUse != ref.inUse || p.scanPos != ref.scanPos || p.lastFill != ref.lastFill ||
					!slices.Equal(p.valid, ref.valid) || !slices.Equal(p.lines, ref.lines) || !slices.Equal(p.fillAt, ref.fillAt) {
					t.Fatalf("op %d (%s): slot layout diverges from the linear pool", op, what)
				}
			}
			if capacity == 0 && recycled == 0 {
				t.Fatal("the unbounded pool never took the recycle path")
			}
		})
	}
}

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfstacks/internal/mem"
)

func newMem() *mem.Memory { return mem.New(mem.Config{Latency: 100}) }

func l1(next Level) *Cache {
	return New(Config{Name: "L1", SizeBytes: 4 * 1024, Ways: 4, HitLatency: 4, MSHRs: 8}, next)
}

func TestHitLatency(t *testing.T) {
	c := l1(MemLevel(newMem()))
	c.Access(Request{Line: 1, At: 0})
	r := c.Access(Request{Line: 1, At: 1000})
	if r.DoneAt != 1004 {
		t.Fatalf("hit DoneAt = %d, want 1004", r.DoneAt)
	}
	if r.MissLevels != 0 {
		t.Fatalf("hit MissLevels = %d, want 0", r.MissLevels)
	}
}

func TestMissLatencyIncludesDownstream(t *testing.T) {
	c := l1(MemLevel(newMem()))
	r := c.Access(Request{Line: 42, At: 0})
	// lookup (4) + memory latency (100).
	if r.DoneAt != 104 {
		t.Fatalf("miss DoneAt = %d, want 104", r.DoneAt)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	c := l1(MemLevel(newMem()))
	first := c.Access(Request{Line: 42, At: 0})
	second := c.Access(Request{Line: 42, At: 1})
	if second.DoneAt != first.DoneAt {
		t.Fatalf("secondary miss DoneAt = %d, want merged %d", second.DoneAt, first.DoneAt)
	}
	if c.Stats.Misses != 2 {
		t.Fatalf("both accesses count as misses, got %d", c.Stats.Misses)
	}
}

func TestMSHRLimitQueues(t *testing.T) {
	// 2 MSHRs: the third concurrent miss must wait for the first fill.
	c := New(Config{Name: "t", SizeBytes: 4 * 1024, Ways: 4, HitLatency: 1, MSHRs: 2}, MemLevel(newMem()))
	r1 := c.Access(Request{Line: 1, At: 0})
	c.Access(Request{Line: 2, At: 0})
	r3 := c.Access(Request{Line: 3, At: 0})
	if r3.DoneAt <= r1.DoneAt {
		t.Fatalf("third miss finished at %d, want after first fill %d", r3.DoneAt, r1.DoneAt)
	}
	if c.Stats.MSHRStall == 0 {
		t.Fatal("queueing should register MSHR stall cycles")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 1 set x 2 ways: lines 0, 64, 128 conflict (sets=16 here, so use
	// stride = sets to alias). Build a tiny direct truth check instead.
	c := New(Config{Name: "t", SizeBytes: 2 * LineSize, Ways: 2, HitLatency: 1, MSHRs: 4}, MemLevel(newMem()))
	// sets = 1, so every line maps to set 0. Space accesses past the fill
	// latency so each is an array hit/miss, not an in-flight merge.
	c.Access(Request{Line: 1, At: 0})
	c.Access(Request{Line: 2, At: 200})
	c.Access(Request{Line: 1, At: 400}) // refresh 1
	c.Access(Request{Line: 3, At: 600}) // evicts 2 (LRU)
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("lines 1 and 3 should be resident")
	}
	if c.Contains(2) {
		t.Fatal("line 2 should have been the LRU victim")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m := newMem()
	c := New(Config{Name: "t", SizeBytes: 2 * LineSize, Ways: 2, HitLatency: 1, MSHRs: 4}, MemLevel(m))
	c.Access(Request{Line: 1, At: 0, Write: true})
	c.Access(Request{Line: 2, At: 200})
	c.Access(Request{Line: 3, At: 400}) // evicts dirty line 1
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if m.Stats().Writes != 1 {
		t.Fatalf("memory saw %d writes, want 1", m.Stats().Writes)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	m := newMem()
	c := New(Config{Name: "t", SizeBytes: 2 * LineSize, Ways: 2, HitLatency: 1, MSHRs: 4}, MemLevel(m))
	c.Access(Request{Line: 1, At: 0})
	c.Access(Request{Line: 2, At: 200})
	c.Access(Request{Line: 3, At: 400})
	if c.Stats.Writebacks != 0 {
		t.Fatal("clean eviction must not write back")
	}
}

func TestInstrStatsSeparated(t *testing.T) {
	c := l1(MemLevel(newMem()))
	c.Access(Request{Line: 1, At: 0, Instr: true})
	c.Access(Request{Line: 1, At: 200, Instr: true})
	c.Access(Request{Line: 2, At: 400})
	if c.Stats.InstrMisses != 1 || c.Stats.InstrHits != 1 {
		t.Fatalf("instr stats = %d/%d, want 1/1", c.Stats.InstrHits, c.Stats.InstrMisses)
	}
	if c.Stats.Misses != 2 {
		t.Fatalf("total misses = %d, want 2", c.Stats.Misses)
	}
}

func TestResetState(t *testing.T) {
	c := l1(MemLevel(newMem()))
	c.Access(Request{Line: 1, At: 0})
	c.ResetState()
	if c.Contains(1) {
		t.Fatal("ResetState should invalidate the array")
	}
	if c.Stats.Accesses() != 0 {
		t.Fatal("ResetState should clear statistics")
	}
}

func TestPortSerializesAccesses(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 8 * 1024, Ways: 4, HitLatency: 2, MSHRs: 8, PortCycles: 3}, MemLevel(newMem()))
	c.Access(Request{Line: 1, At: 0}) // fills by cycle ~102
	c.Access(Request{Line: 2, At: 0})
	r := c.Access(Request{Line: 1, At: 200}) // port slots at 0,3,200: no wait
	if r.DoneAt != 202 {
		t.Fatalf("port-aligned hit DoneAt = %d, want 202", r.DoneAt)
	}
	r = c.Access(Request{Line: 2, At: 201}) // next port slot at 203
	if r.DoneAt != 205 {
		t.Fatalf("port-delayed hit DoneAt = %d, want 205", r.DoneAt)
	}
}

func TestWritebackDoesNotPoisonPort(t *testing.T) {
	// A dirty eviction triggered by a miss (whose fill completes far in the
	// future) must not reserve the downstream port at that future time.
	m := newMem()
	l2 := New(Config{Name: "L2", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 5, MSHRs: 8, PortCycles: 1}, MemLevel(m))
	l1c := New(Config{Name: "L1", SizeBytes: 2 * LineSize, Ways: 2, HitLatency: 1, MSHRs: 4}, l2)
	l1c.Access(Request{Line: 1, At: 0, Write: true})
	l1c.Access(Request{Line: 2, At: 5})
	l1c.Access(Request{Line: 3, At: 10}) // evicts dirty line 1 -> L2 write
	// A subsequent independent L2 access shortly after must not be pushed
	// behind the (future) fill time of line 3.
	r := l2.Access(Request{Line: 99, At: 15})
	if r.DoneAt > 15+5+100+5 {
		t.Fatalf("L2 access at 15 completed at %d: port was poisoned by a future writeback", r.DoneAt)
	}
}

func TestHierarchyPerfectL1D(t *testing.T) {
	cfg := testHierConfig()
	cfg.PerfectL1D = true
	h := NewHierarchy(cfg)
	done, missed := h.Data(0xdeadbeef, 100, false)
	if missed {
		t.Fatal("perfect L1D must never miss")
	}
	if done != 100+cfg.L1D.HitLatency {
		t.Fatalf("perfect L1D latency = %d, want hit latency", done-100)
	}
	if h.L1D.Stats.Accesses() != 0 {
		t.Fatal("perfect L1D should bypass the cache model")
	}
}

func TestHierarchyPerfectL1I(t *testing.T) {
	cfg := testHierConfig()
	cfg.PerfectL1I = true
	h := NewHierarchy(cfg)
	done, missed := h.Ifetch(0x1000, 50)
	if missed || done != 50+cfg.L1I.HitLatency {
		t.Fatalf("perfect L1I = (%d,%v)", done, missed)
	}
}

func testHierConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  Config{Name: "L1I", SizeBytes: 8 * 1024, Ways: 4, HitLatency: 1, MSHRs: 4},
		L1D:  Config{Name: "L1D", SizeBytes: 8 * 1024, Ways: 4, HitLatency: 4, MSHRs: 8},
		L2:   Config{Name: "L2", SizeBytes: 64 * 1024, Ways: 8, HitLatency: 10, MSHRs: 8},
		L3:   Config{Name: "L3", SizeBytes: 512 * 1024, Ways: 8, HitLatency: 30, MSHRs: 16},
		ITLB: TLBConfig{Entries: 32, Ways: 4, MissLatency: 20},
		DTLB: TLBConfig{Entries: 32, Ways: 4, MissLatency: 20},
		Mem:  mem.Config{Latency: 100},
	}
}

func TestHierarchyUnifiedL2SharesInstrAndData(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	// Fetch a code line, then read the same line as data: the second access
	// should find it in the unified L2 (after missing L1D).
	h.Ifetch(0x100000, 0)
	done, _ := h.Data(0x100000, 1000, false)
	// L1D miss -> L2 hit: DTLB may add latency on first touch; bound the
	// result by an L2 hit + TLB walk rather than a memory access.
	if done-1000 > 4+10+20+5 {
		t.Fatalf("data access to fetched line took %d cycles; want an L2 hit", done-1000)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	h.Data(0x5000, 0, false)
	h.Ifetch(0x100, 0)
	h.Reset()
	if h.L1D.Stats.Accesses() != 0 || h.L1I.Stats.Accesses() != 0 {
		t.Fatal("Reset should clear statistics")
	}
	if h.Mem.Stats().Reads != 0 {
		t.Fatal("Reset should clear memory statistics")
	}
}

func TestDataHitLatency(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	if h.DataHitLatency() != 4 {
		t.Fatalf("DataHitLatency = %d, want 4", h.DataHitLatency())
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(128) != 2 {
		t.Fatal("LineOf is not a 64-byte mapping")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "tiny", SizeBytes: 32, Ways: 1, HitLatency: 1},
		{Name: "noway", SizeBytes: 1024, Ways: 0, HitLatency: 1},
		{Name: "nolat", SizeBytes: 1024, Ways: 2, HitLatency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should be invalid", c.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 1024, Ways: 2, HitLatency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSetsPowerOfTwo(t *testing.T) {
	f := func(size uint16, ways uint8) bool {
		c := Config{SizeBytes: int(size) + LineSize, Ways: int(ways%8) + 1, HitLatency: 1}
		s := c.Sets()
		return s >= 1 && s&(s-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: completion time never precedes the request plus hit latency, and
// repeated accesses to one line eventually hit.
func TestAccessMonotoneProperty(t *testing.T) {
	f := func(lines []uint8) bool {
		c := l1(MemLevel(newMem()))
		at := int64(0)
		for _, ln := range lines {
			r := c.Access(Request{Line: uint64(ln % 32), At: at})
			if r.DoneAt < at+4 {
				return false
			}
			at += 7
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStatsMissRate(t *testing.T) {
	s := Stats{Hits: 75, Misses: 25}
	if s.MissRate() != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("idle MissRate should be 0")
	}
}

func TestSharedL3Interference(t *testing.T) {
	// Two private hierarchies over one shared L3: core B's traffic evicts
	// core A's lines from the shared level.
	m := newMem()
	l3 := New(Config{Name: "L3", SizeBytes: 4 * 1024, Ways: 4, HitLatency: 20, MSHRs: 16}, MemLevel(m))
	cfg := testHierConfig()
	a := NewHierarchyShared(cfg, l3)
	b := NewHierarchyShared(cfg, l3)

	// Core A touches a line and evicts it from its own L1/L2 via conflicts,
	// leaving only the L3 copy.
	a.Data(0x100000, 0, false)
	if !l3.Contains(LineOf(0x100000)) {
		t.Fatal("shared L3 should hold core A's line")
	}
	// Core B streams enough distinct lines through the tiny L3 to evict it.
	at := int64(1000)
	for i := uint64(0); i < 512; i++ {
		b.Data(0x900000+i*64, at, false)
		at += 300
	}
	if l3.Contains(LineOf(0x100000)) {
		t.Fatal("core B's stream should have evicted core A's line from the shared L3")
	}
}

func TestHierarchySharedHasNoOwnedL3(t *testing.T) {
	m := newMem()
	l3 := New(Config{Name: "L3", SizeBytes: 64 * 1024, Ways: 4, HitLatency: 20, MSHRs: 16}, MemLevel(m))
	h := NewHierarchyShared(testHierConfig(), l3)
	if h.L3 != nil || h.Mem != nil {
		t.Fatal("shared hierarchy must not own an L3 or memory")
	}
	h.Reset() // must not panic with nil L3/Mem
}

func TestDataDepthReporting(t *testing.T) {
	h := NewHierarchy(testHierConfig())
	// Cold: misses everything -> depth 3 (L1->L2->L3->mem).
	_, depth := h.DataDepth(0x777000, 0, false)
	if depth != 3 {
		t.Fatalf("cold depth = %d, want 3", depth)
	}
	// Warm after fill: L1 hit -> depth 0.
	_, depth = h.DataDepth(0x777000, 5000, false)
	if depth != 0 {
		t.Fatalf("warm depth = %d, want 0", depth)
	}
}

func TestL3RetainsLinesAcrossL2Evictions(t *testing.T) {
	m := mem.New(mem.Config{Latency: 100})
	l3 := New(Config{Name: "L3", SizeBytes: 1 << 20, Ways: 16, HitLatency: 30, MSHRs: 32}, MemLevel(m))
	l2 := New(Config{Name: "L2", SizeBytes: 8 * 1024, Ways: 8, HitLatency: 10, MSHRs: 16}, l3)

	// First touch: miss everywhere.
	r := l2.Access(Request{Line: 42, At: 0})
	if r.MissLevels != 2 {
		t.Fatalf("first access MissLevels = %d, want 2", r.MissLevels)
	}
	// Evict line 42 from L2 by filling its set.
	for i := uint64(1); i <= 16; i++ {
		l2.Access(Request{Line: 42 + i*128, At: int64(1000 * i)})
	}
	if l2.Contains(42) {
		t.Fatal("line 42 should have been evicted from L2")
	}
	if !l3.Contains(42) {
		t.Fatal("line 42 should still be in L3")
	}
	// Re-access: should miss L2, hit L3.
	r = l2.Access(Request{Line: 42, At: 100000})
	if r.MissLevels != 1 {
		t.Fatalf("re-access MissLevels = %d, want 1 (L3 hit)", r.MissLevels)
	}
}

// TestMSHRInflightMatchesScan: inflight, which skips the scan once every
// fill is done, agrees with a full scan over random inserts, expiries,
// recycled entries of an unbounded pool and resets.
func TestMSHRInflightMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{0, 1, 4, 16} {
		p := newMSHRPool(capacity)
		now := int64(0)
		for op := 0; op < 20000; op++ {
			now += int64(rng.Intn(8))
			switch r := rng.Intn(100); {
			case r < 40:
				start, _ := p.allocTime(now)
				p.insert(uint64(rng.Intn(96)), start+1+int64(rng.Intn(300)))
			case r < 45:
				p.expire(now + int64(rng.Intn(50)))
			case r == 45:
				p.reset()
			}
			for i := 0; i < 4; i++ {
				line, at := uint64(rng.Intn(96)), now+int64(rng.Intn(400))-50
				want, wantOK := p.find(line)
				wantOK = wantOK && want > at
				got, ok := p.inflight(line, at)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("cap %d op %d: inflight(%d, %d) = %d, %v; scan gives %d, %v",
						capacity, op, line, at, got, ok, want, wantOK)
				}
			}
		}
	}
}

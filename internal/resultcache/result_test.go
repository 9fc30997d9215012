package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/export"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// encoded simulates uops of mcf on BDW with CPI stacks and returns the
// encoded result, the bytes every cache entry holds.
func encoded(tb testing.TB, uops uint64) []byte {
	tb.Helper()
	prof, ok := workload.SPECProfile("mcf")
	if !ok {
		tb.Fatal("mcf profile missing")
	}
	res := sim.Run(config.BDW(), trace.NewLimit(workload.NewGenerator(prof), uops), sim.Default())
	if res.Err != nil {
		tb.Fatal(res.Err)
	}
	p, err := export.EncodeResult(&res, prof.Name)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func decoded(t *testing.T, payload []byte) *sim.Result {
	t.Helper()
	res, _, err := export.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// memoOf returns k's memoized decode in the memory tier (nil if none).
func memoOf(c *Cache, k Key) *sim.Result {
	_, res, _ := c.mem.lookup(k)
	return res
}

// TestResultMemoizesDecode: Result equals DecodeResult of the stored
// bytes, decodes once and then returns the same pointer — for an entry
// put into memory and for one promoted from disk.
func TestResultMemoizesDecode(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := encoded(t, 3000)
	want := decoded(t, payload)
	k := key("cell")

	c := New(NewMemory(1<<20), disk)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	c2 := New(NewMemory(1<<20), disk)
	for name, c := range map[string]*Cache{"memory": c, "disk-promoted": c2} {
		first, ok := c.Result(k)
		if !ok {
			t.Fatalf("%s: miss", name)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("%s: Result differs from DecodeResult of the stored bytes", name)
		}
		if memoOf(c, k) != first {
			t.Fatalf("%s: decode not memoized", name)
		}
		again, ok := c.Result(k)
		if !ok || again != first {
			t.Fatalf("%s: second Result = %p, %v; want the memoized %p", name, again, ok, first)
		}
		if p, ok := c.Get(k); !ok || !bytes.Equal(p, payload) {
			t.Fatalf("%s: Get no longer serves the stored bytes", name)
		}
	}
	if s := c2.Stats.Snapshot(); s.DiskHits != 1 || s.MemHits != 2 {
		t.Fatalf("promoted cache stats = %+v, want 1 disk hit then 2 memory hits", s)
	}

	var nilCache *Cache
	if _, ok := nilCache.Result(k); ok {
		t.Fatal("nil cache hit")
	}
}

// TestPutDifferentBytesDropsMemo: a Put of other bytes under a key drops
// the old decode; the next Result decodes the new bytes.
func TestPutDifferentBytesDropsMemo(t *testing.T) {
	c := New(NewMemory(1<<20), nil)
	k := key("cell")
	a, b := encoded(t, 3000), encoded(t, 4000)
	if err := c.Put(k, a); err != nil {
		t.Fatal(err)
	}
	ra, _ := c.Result(k)
	if err := c.Put(k, b); err != nil {
		t.Fatal(err)
	}
	if memoOf(c, k) != nil {
		t.Fatal("memo survived a Put of different bytes")
	}
	rb, ok := c.Result(k)
	if !ok || rb == ra || !reflect.DeepEqual(rb, decoded(t, b)) {
		t.Fatal("Result after a different-bytes Put is not the new bytes' decode")
	}
}

// TestResultUndecodableNeverMemoized: a payload from another schema
// version is a miss on every call, from memory and from disk, and no
// decode is ever attached to it.
func TestResultUndecodableNeverMemoized(t *testing.T) {
	payload := encoded(t, 3000)
	stale := bytes.Replace(payload, []byte(`"version": "`+sim.SchemaVersion+`"`), []byte(`"version": "0"`), 1)
	if bytes.Equal(stale, payload) {
		t.Fatal("version field not found in the encoded result")
	}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("stale")
	if err := New(nil, disk).Put(k, stale); err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)
	for i := 0; i < 3; i++ {
		if res, ok := c.Result(k); ok || res != nil {
			t.Fatalf("call %d: wrong-version payload served", i)
		}
		if _, ok := c.mem.Get(k); ok && memoOf(c, k) != nil {
			t.Fatalf("call %d: wrong-version payload memoized", i)
		}
	}
	if err := c.Put(k, stale); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Result(k); ok {
			t.Fatalf("memory call %d: wrong-version payload served", i)
		}
		if memoOf(c, k) != nil {
			t.Fatalf("memory call %d: wrong-version payload memoized", i)
		}
	}
}

// TestIdenticalPutSkipsDurableWrite: once this process wrote or read an
// entry on disk, a Put of the same bytes leaves the file alone (same
// inode) and keeps the memo; Stores still counts it. After a failed disk
// write the same Put writes again.
func TestIdenticalPutSkipsDurableWrite(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := encoded(t, 3000)
	k := key("report")
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(disk.path(k))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	c := New(NewMemory(1<<20), disk)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	written := stat()
	memo, _ := c.Result(k)
	if err := c.Put(k, bytes.Clone(payload)); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(written, stat()) {
		t.Fatal("identical Put after a disk write rewrote the entry")
	}
	if memoOf(c, k) != memo {
		t.Fatal("identical Put dropped the memo")
	}
	if got := c.Stats.Stores.Load(); got != 2 {
		t.Fatalf("Stores = %d, want 2", got)
	}

	// An entry this process only read from disk is durable too.
	c2 := New(NewMemory(1<<20), disk)
	if _, ok := c2.Result(k); !ok {
		t.Fatal("disk entry lost")
	}
	if err := c2.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(written, stat()) {
		t.Fatal("identical Put after a disk read rewrote the entry")
	}

	// Different bytes are written.
	if err := c.Put(k, encoded(t, 4000)); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(written, stat()) {
		t.Fatal("Put of different bytes did not reach disk")
	}

	// A failed disk write leaves the entry in memory but not durable: the
	// repeated Put must write it. A regular file where the key's fan-out
	// directory belongs makes the write fail.
	k2 := key("blocked")
	fanout := filepath.Dir(disk.path(k2))
	if err := os.RemoveAll(fanout); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fanout, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k2, payload); err == nil {
		t.Fatal("Put succeeded with its fan-out directory blocked")
	}
	if _, ok := c.mem.Get(k2); !ok {
		t.Fatal("failed disk write dropped the memory entry")
	}
	if err := os.Remove(fanout); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k2, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := disk.Get(k2); !ok || !bytes.Equal(got, payload) {
		t.Fatal("repeated Put after a failed disk write did not write the entry")
	}

	// With no disk tier an identical Put is a no-op that keeps the memo.
	mc := New(NewMemory(1<<20), nil)
	if err := mc.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	memo, _ = mc.Result(k)
	if err := mc.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if memoOf(mc, k) != memo {
		t.Fatal("memory-only identical Put dropped the memo")
	}
}

// TestMemoChargedToBudget: a memoized decode counts decodedBytes against
// its shard's budget and can evict other entries; a decode that would not
// fit beside its payload is returned but not kept.
func TestMemoChargedToBudget(t *testing.T) {
	payload := encoded(t, 3000)
	p := int64(len(payload))
	var ks []Key
	for i := 0; len(ks) < 2; i++ {
		if k := key(fmt.Sprintf("b%d", i)); int(k[0])%memShards == 0 {
			ks = append(ks, k)
		}
	}
	// Two payloads and one decode fit the shard; two decodes do not.
	limit := 2*p + decodedBytes + decodedBytes/2
	c := New(NewMemory(memShards*limit), nil)
	s := &c.mem.shards[0]
	for _, k := range ks {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.used != 2*p {
		t.Fatalf("used = %d, want %d", s.used, 2*p)
	}
	if _, ok := c.Result(ks[0]); !ok {
		t.Fatal("miss")
	}
	if s.used != 2*p+decodedBytes {
		t.Fatalf("used = %d after one memo, want %d", s.used, 2*p+decodedBytes)
	}
	if _, ok := c.Result(ks[1]); !ok {
		t.Fatal("miss")
	}
	if _, ok := c.mem.Get(ks[0]); ok {
		t.Fatal("second memo did not evict the least recently used entry")
	}
	if s.used != p+decodedBytes {
		t.Fatalf("used = %d after eviction, want %d", s.used, p+decodedBytes)
	}

	// A shard that holds the payload but not its decode too.
	tight := New(NewMemory(memShards*(p+decodedBytes-1)), nil)
	if err := tight.Put(ks[0], payload); err != nil {
		t.Fatal(err)
	}
	res, ok := tight.Result(ks[0])
	if !ok || !reflect.DeepEqual(res, decoded(t, payload)) {
		t.Fatal("tight shard: Result wrong")
	}
	if memoOf(tight, ks[0]) != nil || tight.mem.shards[0].used != p {
		t.Fatal("tight shard: decode kept past the budget")
	}
}

// TestResultPutConcurrent races Result against Puts of two payloads on one
// key (run it under -race): every Result is the decode of one of them.
func TestResultPutConcurrent(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)
	k := key("contended")
	payloads := [][]byte{encoded(t, 3000), encoded(t, 4000)}
	want := []*sim.Result{decoded(t, payloads[0]), decoded(t, payloads[1])}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if err := c.Put(k, payloads[(g/2+i)%2]); err != nil {
						errs <- err
						return
					}
					continue
				}
				res, ok := c.Result(k)
				if ok && !reflect.DeepEqual(res, want[0]) && !reflect.DeepEqual(res, want[1]) {
					errs <- fmt.Errorf("Result is neither payload's decode")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkCacheResult measures a memoized memory-tier hit, the lookup a
// warm sensitivity plan makes for every cell.
func BenchmarkCacheResult(b *testing.B) {
	c := New(NewMemory(1<<20), nil)
	k := key("cell")
	if err := c.Put(k, encoded(b, 3000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Result(k); !ok {
			b.Fatal("miss")
		}
	}
}

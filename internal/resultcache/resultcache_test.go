package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfstacks/internal/faultinject"
)

func key(s string) Key { return KeyOf([]byte(s)) }

func TestKeyOfInjective(t *testing.T) {
	// Length prefixes make part boundaries part of the identity.
	a := KeyOf([]byte("ab"), []byte("c"))
	b := KeyOf([]byte("a"), []byte("bc"))
	c := KeyOf([]byte("abc"))
	if a == b || a == c || b == c {
		t.Fatal("part boundaries collided")
	}
	if KeyOf([]byte("x")) != KeyOf([]byte("x")) {
		t.Fatal("KeyOf not deterministic")
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	// One shard's budget is total/16; use keys that land on one shard by
	// construction: brute-force keys until three share a shard.
	m := NewMemory(16 * 64) // 64 bytes per shard
	var ks []Key
	for i := 0; len(ks) < 3; i++ {
		k := key(fmt.Sprintf("k%d", i))
		if int(k[0])%memShards == 0 {
			ks = append(ks, k)
		}
	}
	payload := bytes.Repeat([]byte("x"), 30) // two fit per shard, three don't
	m.Put(ks[0], payload)
	m.Put(ks[1], payload)
	if _, ok := m.Get(ks[0]); !ok {
		t.Fatal("entry 0 evicted too early")
	}
	// ks[0] is now most recent; inserting ks[2] must evict ks[1].
	m.Put(ks[2], payload)
	if _, ok := m.Get(ks[1]); ok {
		t.Fatal("LRU victim survived")
	}
	if _, ok := m.Get(ks[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := m.Get(ks[2]); !ok {
		t.Fatal("new entry missing")
	}

	// An entry larger than the whole shard budget is not cached at all.
	m.Put(ks[1], bytes.Repeat([]byte("y"), 100))
	if _, ok := m.Get(ks[1]); ok {
		t.Fatal("oversized entry cached")
	}
}

func TestDiskRoundTripAndMiss(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("entry")
	payload := []byte(`{"version":"v1"}`)
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, corrupt := d.Get(k)
	if !ok || corrupt || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v, %v", got, ok, corrupt)
	}
	if _, ok, _ := d.Get(key("absent")); ok {
		t.Fatal("hit on absent key")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// TestDiskCorruptionDetected flips one bit of a stored entry on disk and
// demands the store treats it as a miss (never serving the corrupt bytes)
// and evicts the file so the slot heals.
func TestDiskCorruptionDetected(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("victim")
	payload := bytes.Repeat([]byte("measurement"), 64)
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	path := d.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, flipAt := range []int{3, len(entryMagic) + 5, len(raw) - 1} {
		corruptRaw := bytes.Clone(raw)
		corruptRaw[flipAt] ^= 0x40
		if err := os.WriteFile(path, corruptRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, corrupt := d.Get(k)
		if ok || !corrupt || got != nil {
			t.Fatalf("flip at %d: Get = %q, ok=%v corrupt=%v; want corruption miss", flipAt, got, ok, corrupt)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("flip at %d: corrupt entry not evicted", flipAt)
		}
		// Re-store for the next round.
		if err := d.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadEntryFaultInjection drives the entry decoder with the shared
// fault-injection byte layer: bit flips anywhere in the stream, truncation,
// and device errors must all surface as ErrEntryCorrupt — a fault may turn
// a hit into a miss but never into served garbage.
func TestReadEntryFaultInjection(t *testing.T) {
	payload := bytes.Repeat([]byte("stack-bytes"), 32)
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("fi")
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(d.path(k))
	if err != nil {
		t.Fatal(err)
	}

	// Clean baseline, including through short reads (no corruption).
	for seed := uint64(1); seed <= 8; seed++ {
		br := faultinject.NewByteReader(bytes.NewReader(raw), faultinject.FaultShortRead, seed, int64(len(raw)))
		got, err := readEntry(br)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("seed %d: short reads broke a clean entry: %v", seed, err)
		}
	}

	for _, tc := range []struct {
		name  string
		fault faultinject.Faults
	}{
		{"bitflip", faultinject.FaultBitFlip},
		{"truncate", faultinject.FaultTruncate},
		{"deverr", faultinject.FaultErr},
	} {
		for seed := uint64(1); seed <= 16; seed++ {
			br := faultinject.NewByteReader(bytes.NewReader(raw), tc.fault, seed, int64(len(raw)))
			got, err := readEntry(br)
			if err == nil {
				// Only legal escape: the fault landed beyond the bytes we
				// read (e.g. truncation exactly at the end). The payload must
				// then be intact.
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s seed %d: corrupt payload served", tc.name, seed)
				}
				continue
			}
			if !errors.Is(err, ErrEntryCorrupt) {
				t.Fatalf("%s seed %d: got %v, want ErrEntryCorrupt", tc.name, seed, err)
			}
		}
	}
}

func TestTieredPromotionAndStats(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(NewMemory(1<<20), disk)
	k := key("cell")
	payload := []byte("encoded result")

	if _, ok := c.Get(k); ok {
		t.Fatal("hit before Put")
	}
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.Get(k); !ok || !bytes.Equal(p, payload) {
		t.Fatal("miss after Put")
	}

	// Fresh cache over the same directory: first Get comes from disk and
	// promotes, second comes from memory.
	c2 := New(NewMemory(1<<20), disk)
	if _, ok := c2.Get(k); !ok {
		t.Fatal("disk tier lost the entry")
	}
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promotion lost the entry")
	}
	s := c2.Stats.Snapshot()
	if s.DiskHits != 1 || s.MemHits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit + 1 mem hit", s)
	}

	// A nil cache caches nothing and never errors.
	var nilCache *Cache
	if _, ok := nilCache.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	if err := nilCache.Put(k, payload); err != nil {
		t.Fatal(err)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	g := NewGroup(context.Background())
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		calls.Add(1)
		<-release
		return []byte("once"), nil
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	leaders := make([]bool, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			p, err, leader := g.Do(context.Background(), key("k"), fn)
			if err != nil {
				t.Error(err)
			}
			results[i], leaders[i] = p, leader
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All callers are in Do (the leader's fn is blocked on release, so the
	// flight cannot retire before followers coalesce). A caller that has
	// signalled started may not have joined the flight yet, so wait until
	// every one of them waits on it.
	for g.Waiters(key("k")) != n {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nLeaders := 0
	for i := range results {
		if !bytes.Equal(results[i], []byte("once")) {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d leaders, want 1", nLeaders)
	}
}

// TestSingleflightRefcountedCancel: with two waiters, one disconnecting
// client must not cancel the producer; when the last one leaves, it must.
func TestSingleflightRefcountedCancel(t *testing.T) {
	g := NewGroup(context.Background())
	prodCanceled := make(chan struct{})
	prodStarted := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(prodStarted)
		<-ctx.Done()
		close(prodCanceled)
		return nil, ctx.Err()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, err, _ := g.Do(ctx1, key("k"), fn)
		errs <- err
	}()
	<-prodStarted
	go func() {
		_, err, _ := g.Do(ctx2, key("k"), fn)
		errs <- err
	}()
	// Let the second caller coalesce before the first leaves.
	for g.InFlight() != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller got %v", err)
	}
	select {
	case <-prodCanceled:
		t.Fatal("producer canceled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}

	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second caller got %v", err)
	}
	select {
	case <-prodCanceled:
	case <-time.After(time.Second):
		t.Fatal("producer not canceled after the last waiter left")
	}
}

// TestSingleflightAbandonedNotJoinable: once a flight's only waiter has
// left, a new caller for the same key must lead a fresh flight and get its
// payload, even while the canceled producer has not yet returned.
func TestSingleflightAbandonedNotJoinable(t *testing.T) {
	g := NewGroup(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	stale := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		<-release // keep running past the cancel
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, key("k"), stale)
		errs <- err
	}()
	<-started
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v, want context.Canceled", err)
	}

	type result struct {
		payload []byte
		err     error
		leader  bool
	}
	fresh := make(chan result, 1)
	go func() {
		p, err, leader := g.Do(context.Background(), key("k"), func(context.Context) ([]byte, error) {
			return []byte("fresh"), nil
		})
		fresh <- result{p, err, leader}
	}()
	select {
	case r := <-fresh:
		if r.err != nil || !r.leader || string(r.payload) != "fresh" {
			t.Fatalf("fresh Do = (%q, %v, leader=%t), want (\"fresh\", nil, leader=true)", r.payload, r.err, r.leader)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh Do joined the abandoned flight")
	}
}

// TestSingleflightBaseCancel proves the drain path: canceling the group's
// base context stops producers even with live waiters.
func TestSingleflightBaseCancel(t *testing.T) {
	base, drain := context.WithCancel(context.Background())
	g := NewGroup(base)
	started := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	errs := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(context.Background(), key("k"), fn)
		errs <- err
	}()
	<-started
	drain()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

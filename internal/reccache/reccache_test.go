package reccache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value wraps a payload so tests can assert identity sharing.
type value struct{ n int }

func TestDoCachesAndHits(t *testing.T) {
	c := New(Config{})
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, int64, error) {
		runs.Add(1)
		return &value{n: 7}, 100, nil
	}
	v1, st, err := c.Do(context.Background(), "k", fn)
	if err != nil || st != StatusMiss {
		t.Fatalf("first Do: status %q err %v, want miss nil", st, err)
	}
	v2, st, err := c.Do(context.Background(), "k", fn)
	if err != nil || st != StatusHit {
		t.Fatalf("second Do: status %q err %v, want hit nil", st, err)
	}
	if v1 != v2 {
		t.Fatal("hit returned a different value than the miss inserted")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Shared != 0 || m.Entries != 1 || m.Bytes != 100 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := m.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestEpochStyleKeyChangeMisses(t *testing.T) {
	// The cache has no invalidation API by design: callers embed an
	// epoch in the key. Simulate a catalog bump and check the old
	// entry simply stops being addressable.
	c := New(Config{})
	fn := func(n int) Fn {
		return func(ctx context.Context) (any, int64, error) { return &value{n: n}, 10, nil }
	}
	key := func(epoch uint64) string { return fmt.Sprintf("epoch=%d|req", epoch) }
	v1, _, err := c.Do(context.Background(), key(1), fn(1))
	if err != nil {
		t.Fatal(err)
	}
	v2, st, err := c.Do(context.Background(), key(2), fn(2))
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusMiss {
		t.Fatalf("post-bump Do status = %q, want miss", st)
	}
	if v1.(*value).n != 1 || v2.(*value).n != 2 {
		t.Fatal("epoch bump did not recompute")
	}
	if _, st, _ := c.Do(context.Background(), key(1), fn(1)); st != StatusHit {
		t.Fatalf("old-epoch entry should still hit until evicted, got %q", st)
	}
}

func TestSingleflightCollapsesConcurrentCalls(t *testing.T) {
	c := New(Config{})
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, int64, error) {
		runs.Add(1)
		close(started)
		<-release
		return &value{n: 42}, 10, nil
	}

	const waiters = 32
	results := make([]any, waiters)
	statuses := make([]Status, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup

	// Leader first, so the flight exists before the joiners arrive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], statuses[0], errs[0] = c.Do(context.Background(), "k", fn)
	}()
	<-started
	if got := c.Metrics().Inflight; got != 1 {
		t.Fatalf("inflight = %d during flight, want 1", got)
	}
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], statuses[i], errs[i] = c.Do(context.Background(), "k", fn)
		}(i)
	}
	// Give joiners a moment to attach, then let the computation finish.
	for c.Metrics().Shared < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent calls, want 1", got, waiters)
	}
	var miss, shared int
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("call %d got a different value", i)
		}
		switch statuses[i] {
		case StatusMiss:
			miss++
		case StatusShared:
			shared++
		default:
			t.Fatalf("call %d: unexpected status %q", i, statuses[i])
		}
	}
	if miss != 1 || shared != waiters-1 {
		t.Fatalf("miss=%d shared=%d, want 1 and %d", miss, shared, waiters-1)
	}
	m := c.Metrics()
	if m.Inflight != 0 {
		t.Fatalf("inflight = %d after completion, want 0", m.Inflight)
	}
}

func TestCancelledLeaderHandsOff(t *testing.T) {
	c := New(Config{})
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, int64, error) {
		runs.Add(1)
		close(started)
		select {
		case <-release:
			return &value{n: 1}, 10, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", fn)
		leaderDone <- err
	}()
	<-started

	joinerDone := make(chan struct{})
	var jv any
	var jst Status
	var jerr error
	go func() {
		jv, jst, jerr = c.Do(context.Background(), "k", fn)
		close(joinerDone)
	}()
	for c.Metrics().Shared < 1 {
		time.Sleep(time.Millisecond)
	}

	// The leader bails; the joiner must still get the result.
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want Canceled", err)
	}
	select {
	case <-joinerDone:
		t.Fatal("joiner finished before the computation did")
	default:
	}
	close(release)
	<-joinerDone
	if jerr != nil {
		t.Fatalf("joiner error: %v", jerr)
	}
	if jst != StatusShared {
		t.Fatalf("joiner status = %q, want shared", jst)
	}
	if jv.(*value).n != 1 {
		t.Fatal("joiner got wrong value")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	// And the completed result was cached for the next caller.
	if _, st, _ := c.Do(context.Background(), "k", fn); st != StatusHit {
		t.Fatalf("follow-up status = %q, want hit", st)
	}
}

func TestLastWaiterLeavingCancelsRun(t *testing.T) {
	c := New(Config{})
	started := make(chan struct{})
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (any, int64, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, 0, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", fn)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation context was not cancelled after the last waiter left")
	}
	// A fresh caller after abandonment starts a new flight and is not
	// poisoned by the dead one.
	v, st, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, int64, error) {
		return &value{n: 9}, 10, nil
	})
	if err != nil || st != StatusMiss || v.(*value).n != 9 {
		t.Fatalf("post-abandon Do = (%v, %q, %v), want fresh miss", v, st, err)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	calls := 0
	fn := func(ctx context.Context) (any, int64, error) {
		calls++
		if calls == 1 {
			return nil, 0, boom
		}
		return &value{n: 3}, 10, nil
	}
	if _, st, err := c.Do(context.Background(), "k", fn); !errors.Is(err, boom) || st != StatusMiss {
		t.Fatalf("first Do = (%q, %v), want miss boom", st, err)
	}
	if m := c.Metrics(); m.Entries != 0 {
		t.Fatalf("error was cached: %+v", m)
	}
	if v, st, err := c.Do(context.Background(), "k", fn); err != nil || st != StatusMiss || v.(*value).n != 3 {
		t.Fatalf("second Do = (%v, %q, %v), want fresh miss", v, st, err)
	}
}

func TestEntryCountEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	put := func(k string) {
		t.Helper()
		if _, _, err := c.Do(context.Background(), k, func(ctx context.Context) (any, int64, error) {
			return k, 1, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if _, st, _ := c.Do(context.Background(), "a", nil); st != StatusHit {
		t.Fatalf("a should hit, got %q", st)
	}
	put("c") // evicts b (LRU: a was just touched)
	m := c.Metrics()
	if m.Entries != 2 || m.Evictions != 1 {
		t.Fatalf("metrics = %+v, want 2 entries 1 eviction", m)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
}

func TestByteBudgetEviction(t *testing.T) {
	c := New(Config{MaxBytes: 250})
	put := func(k string, bytes int64) {
		t.Helper()
		if _, _, err := c.Do(context.Background(), k, func(ctx context.Context) (any, int64, error) {
			return k, bytes, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 100)
	put("b", 100)
	if m := c.Metrics(); m.Bytes != 200 || m.Evictions != 0 {
		t.Fatalf("metrics = %+v, want 200 bytes 0 evictions", m)
	}
	put("c", 100) // 300 > 250: evict a (oldest)
	m := c.Metrics()
	if m.Bytes != 200 || m.Entries != 2 || m.Evictions != 1 {
		t.Fatalf("metrics = %+v, want 200 bytes 2 entries 1 eviction", m)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted for the byte budget")
	}
	// A single oversized entry is retained (budget is approximate).
	put("huge", 1000)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("newest oversized entry must be retained")
	}
	if m := c.Metrics(); m.Entries != 1 {
		t.Fatalf("oversized insert should have evicted the rest: %+v", m)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(Config{TTL: time.Minute})
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	if _, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, int64, error) {
		return &value{n: 1}, 10, nil
	}); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(30 * time.Second)
	if _, st, _ := c.Do(context.Background(), "k", nil); st != StatusHit {
		t.Fatalf("within TTL: status %q, want hit", st)
	}
	clock = clock.Add(2 * time.Minute)
	var recomputed bool
	if _, st, err := c.Do(context.Background(), "k", func(ctx context.Context) (any, int64, error) {
		recomputed = true
		return &value{n: 2}, 10, nil
	}); err != nil || st != StatusMiss || !recomputed {
		t.Fatalf("past TTL: status %q err %v recomputed %v, want miss", st, err, recomputed)
	}
	if m := c.Metrics(); m.Expired != 1 {
		t.Fatalf("metrics = %+v, want 1 expired", m)
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(context.Background(), k, func(ctx context.Context) (any, int64, error) {
			return k, 10, nil
		})
	}
	c.Purge()
	if m := c.Metrics(); m.Entries != 0 || m.Bytes != 0 {
		t.Fatalf("after Purge: %+v", m)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines with
// overlapping keys; run under -race this is the package's data-race
// canary.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 400, TTL: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%12)
				v, _, err := c.Do(context.Background(), k, func(ctx context.Context) (any, int64, error) {
					return k, 50, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", k, err)
					return
				}
				if v.(string) != k {
					t.Errorf("Do(%s) returned %v", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m := c.Metrics()
	if m.Entries > 8 || m.Bytes > 400 {
		t.Fatalf("bounds violated: %+v", m)
	}
	if m.Inflight != 0 {
		t.Fatalf("inflight leak: %+v", m)
	}
}

// TestPartitionKeySpaces pins what a Partition shares with its cache
// and what it keeps apart: the same key addresses different values in
// the two spaces, each space counts only its own calls and entries,
// and the entry cap and byte budget bound both together, evicting
// across spaces in one LRU order.
func TestPartitionKeySpaces(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 250})
	p := c.Partition()
	put := func(do func(context.Context, string, Fn) (any, Status, error), k string, v int, bytes int64) (any, Status) {
		t.Helper()
		got, st, err := do(context.Background(), k, func(ctx context.Context) (any, int64, error) {
			return &value{n: v}, bytes, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	own, _ := put(c.Do, "k", 1, 100)
	part, st := put(p.Do, "k", 2, 100)
	if st != StatusMiss || part.(*value).n != 2 {
		t.Fatalf("partition Do on the cache's key = %q %+v, want its own miss", st, part)
	}
	if again, st := put(c.Do, "k", 3, 100); st != StatusHit || again != own {
		t.Fatalf("cache Do after the partition's insert = %q %+v, want its own hit", st, again)
	}
	if m := c.Metrics(); m.Hits != 1 || m.Misses != 1 || m.Entries != 1 || m.Bytes != 100 {
		t.Fatalf("cache metrics = %+v, want 1 hit, 1 miss, 1 entry of 100 bytes", m)
	}
	if m := p.Metrics(); m.Hits != 0 || m.Misses != 1 || m.Entries != 1 || m.Bytes != 100 || m.Inflight != 0 {
		t.Fatalf("partition metrics = %+v, want 1 miss, 1 entry of 100 bytes", m)
	}

	// 300 bytes > 250: the least recently used entry goes, and that is
	// the partition's (the cache's own was just hit).
	put(c.Do, "other", 4, 100)
	if m := p.Metrics(); m.Entries != 0 || m.Bytes != 0 || m.Evictions != 1 {
		t.Fatalf("partition metrics after a cache insert = %+v, want its entry evicted", m)
	}
	if m := c.Metrics(); m.Entries != 2 || m.Evictions != 0 {
		t.Fatalf("cache metrics = %+v, want 2 entries, none evicted", m)
	}

	c.Purge()
	put(p.Do, "k", 5, 10)
	c.Purge()
	if m, n := c.Metrics(), p.Metrics(); m.Entries != 0 || m.Bytes != 0 || n.Entries != 0 || n.Bytes != 0 {
		t.Fatalf("after Purge: cache %+v, partition %+v", m, n)
	}
}

// TestPartitionSingleflight: concurrent partition calls for one key
// share one run, and the flight is counted in the partition alone.
func TestPartitionSingleflight(t *testing.T) {
	c := New(Config{})
	p := c.Partition()
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, int64, error) {
		runs.Add(1)
		<-release
		return &value{n: 1}, 1, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := p.Do(context.Background(), "k", fn); err != nil {
				t.Error(err)
			}
		}()
	}
	for p.Metrics().Misses+p.Metrics().Shared < callers {
		time.Sleep(time.Millisecond)
	}
	if m, n := c.Metrics(), p.Metrics(); m.Inflight != 0 || n.Inflight != 1 {
		t.Fatalf("inflight: cache %d, partition %d; want 0 and 1", m.Inflight, n.Inflight)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if m := p.Metrics(); m.Misses != 1 || m.Shared != callers-1 || m.Inflight != 0 {
		t.Fatalf("partition metrics = %+v", m)
	}
	if m := c.Metrics(); m.Misses != 0 || m.Shared != 0 {
		t.Fatalf("cache metrics = %+v, want the partition's flight uncounted", m)
	}
}

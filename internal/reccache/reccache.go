// Package reccache is the broker's content-addressed result cache:
// the serving layer that turns repeated recommendation problems into
// O(1) lookups instead of k^n searches, and collapses concurrent
// identical requests into a single in-flight search (singleflight).
//
// The cache itself is deliberately dumb about domain types — it maps
// opaque string keys to opaque values. Correctness lives entirely in
// the key: callers (internal/broker) derive it as a stable hash over
// everything the result depends on, including the catalog and
// telemetry epochs, so any input mutation changes the key and stale
// entries simply stop being addressable. They are never served again;
// they age out through the LRU bound rather than through an explicit
// invalidation sweep.
//
// Capacity is bounded two ways — a maximum entry count and an
// approximate byte budget (callers supply a size estimate per value)
// — with an optional TTL for deployments that want time-based
// freshness on top of epoch addressing. A Partition carves a second
// key space out of the same bounds: its entries compete with the
// cache's own for the one LRU order, entry cap and byte budget, but
// its keys never alias theirs and it counts its own Metrics.
package reccache

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Status classifies how a Do call obtained its value.
type Status string

const (
	// StatusHit means the value was served from the cache; no search ran.
	StatusHit Status = "hit"

	// StatusMiss means this call was the flight leader: it triggered
	// the search whose result was (on success) inserted into the cache.
	StatusMiss Status = "miss"

	// StatusShared means the call joined an identical in-flight search
	// started by an earlier caller and shared its result.
	StatusShared Status = "shared"
)

// Config bounds a Cache.
type Config struct {
	// MaxEntries caps the number of cached results; <= 0 means
	// DefaultMaxEntries.
	MaxEntries int

	// MaxBytes caps the cache's approximate memory footprint, using
	// the per-value size estimates callers pass to Do; <= 0 means no
	// byte budget. The newest entry is always retained, so a single
	// oversized result can transiently exceed the budget rather than
	// render the cache useless.
	MaxBytes int64

	// TTL expires entries this long after insertion; <= 0 means no
	// time-based expiry (epoch-addressed keys already handle input
	// staleness).
	TTL time.Duration
}

// DefaultMaxEntries is the entry cap used when Config.MaxEntries is
// unset.
const DefaultMaxEntries = 1024

// Metrics is a point-in-time snapshot of the cache counters.
type Metrics struct {
	// Hits counts Do calls answered from a completed cached entry.
	Hits int64 `json:"hits"`

	// Misses counts Do calls that became flight leaders and ran the
	// computation.
	Misses int64 `json:"misses"`

	// Shared counts Do calls that joined another caller's in-flight
	// computation instead of starting their own.
	Shared int64 `json:"shared"`

	// Evictions counts entries dropped to respect MaxEntries/MaxBytes.
	Evictions int64 `json:"evictions"`

	// Expired counts entries dropped because their TTL lapsed.
	Expired int64 `json:"expired"`

	// Inflight is the number of computations currently running.
	Inflight int64 `json:"inflight"`

	// Entries and Bytes are the current cache occupancy (Bytes uses
	// the callers' size estimates).
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HitRate is the fraction of Do calls that avoided running the
// computation (hits plus shared over all calls); 0 when no calls have
// been made.
func (m Metrics) HitRate() float64 {
	total := m.Hits + m.Misses + m.Shared
	if total == 0 {
		return 0
	}
	return float64(m.Hits+m.Shared) / float64(total)
}

// space is one key space of a Cache — its own, or a Partition's:
// that space's counters and occupancy. The LRU order and both bounds
// belong to the cache and span every space.
type space struct {
	hits, misses, shared, evictions, expired int64
	inflight, entries, bytes                 int64
}

// slot addresses one key within one space.
type slot struct {
	sp  *space
	key string
}

// entry is one cached value.
type entry struct {
	slot  slot
	val   any
	bytes int64
	added time.Time
}

// flight is one in-flight computation with its waiters. The leader
// and every joiner hold a waiter count; the computation runs on a
// context detached from all of their cancellations, so one caller
// bailing out cannot poison the result for the rest. Only when the
// last waiter leaves is the run cancelled.
type flight struct {
	done      chan struct{} // closed after val/err are final
	val       any
	bytes     int64
	err       error
	waiters   int
	cancel    context.CancelFunc
	abandoned bool // all waiters left before completion
}

// Cache is a bounded LRU result cache with singleflight collapse. The
// zero value is not usable; construct with New. Values handed back by
// Do are shared across callers and must be treated as immutable.
type Cache struct {
	cfg Config
	now func() time.Time // stubbed in tests

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[slot]*list.Element
	inflight map[slot]*flight
	bytes    int64 // over every space, against MaxBytes

	own space
}

// Partition is a key space inside a Cache, for a second kind of value
// that should share the cache's bounds rather than get its own: its
// entries sit in the cache's LRU order and count against its entry
// cap and byte budget, but a key never aliases the same key of the
// cache or of another partition, and its Do calls, flights and entries
// are counted in its own Metrics, not the cache's. Do behaves exactly
// as Cache.Do.
type Partition struct {
	c  *Cache
	sp *space
}

// Partition returns a new, empty key space inside the cache.
func (c *Cache) Partition() *Partition {
	return &Partition{c: c, sp: &space{}}
}

// Do is Cache.Do within the partition's key space.
func (p *Partition) Do(ctx context.Context, key string, fn Fn) (any, Status, error) {
	return p.c.do(ctx, slot{p.sp, key}, fn)
}

// Metrics returns a snapshot of the partition's counters and
// occupancy.
func (p *Partition) Metrics() Metrics { return p.c.metrics(p.sp) }

// New builds a cache with the given bounds.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{
		cfg:      cfg,
		now:      time.Now,
		ll:       list.New(),
		items:    make(map[slot]*list.Element),
		inflight: make(map[slot]*flight),
	}
}

// Fn computes a value when the cache cannot answer. It returns the
// value, an estimate of its resident size in bytes (for the byte
// budget), and an error. The context it receives is detached from any
// single caller's cancellation; it is cancelled only when every
// caller waiting on this computation has gone away.
type Fn func(ctx context.Context) (val any, bytes int64, err error)

// Do returns the cached value for key, or computes it with fn. N
// concurrent Do calls for the same key run fn exactly once and share
// the result. Errors are returned to every waiter and never cached.
// The returned Status reports how the value was obtained; on error it
// still reflects the caller's role (miss for the leader, shared for
// joiners).
func (c *Cache) Do(ctx context.Context, key string, fn Fn) (any, Status, error) {
	return c.do(ctx, slot{&c.own, key}, fn)
}

func (c *Cache) do(ctx context.Context, key slot, fn Fn) (any, Status, error) {
	sp := key.sp
	c.mu.Lock()
	if v, ok := c.lookupLocked(key); ok {
		sp.hits++
		c.mu.Unlock()
		return v, StatusHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		sp.shared++
		c.mu.Unlock()
		return c.wait(ctx, key, f, StatusShared)
	}
	// Become the flight leader. The computation runs on a context that
	// inherits this caller's values (progress hooks and the like) but
	// not its cancellation.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.inflight[key] = f
	sp.inflight++
	sp.misses++
	c.mu.Unlock()
	go c.run(fctx, key, f, fn)
	return c.wait(ctx, key, f, StatusMiss)
}

// run executes fn and publishes the outcome to the flight's waiters.
func (c *Cache) run(fctx context.Context, key slot, f *flight, fn Fn) {
	val, bytes, err := fn(fctx)
	c.mu.Lock()
	f.val, f.bytes, f.err = val, bytes, err
	if !f.abandoned {
		delete(c.inflight, key)
		key.sp.inflight--
	}
	if err == nil {
		// Cache the result even if every waiter left: the search
		// finished anyway, so the next identical request may as well
		// hit. (An abandoned flight usually errors with Canceled
		// instead and caches nothing.)
		c.insertLocked(key, val, bytes)
	}
	c.mu.Unlock()
	close(f.done)
	f.cancel()
}

// wait blocks until the flight completes or the caller's own context
// is done. A caller that gives up stops waiting without disturbing
// the others; the last one out cancels the computation.
func (c *Cache) wait(ctx context.Context, key slot, f *flight, status Status) (any, Status, error) {
	select {
	case <-f.done:
		return f.val, status, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		if f.waiters == 0 && !f.abandoned {
			f.abandoned = true
			delete(c.inflight, key)
			key.sp.inflight--
			f.cancel()
		}
		c.mu.Unlock()
		return nil, status, ctx.Err()
	}
}

// lookupLocked finds a live entry, handling TTL expiry and LRU
// promotion.
func (c *Cache) lookupLocked(key slot) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if c.cfg.TTL > 0 && c.now().Sub(e.added) > c.cfg.TTL {
		c.removeLocked(el)
		key.sp.expired++
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// insertLocked adds or refreshes an entry, then evicts from the LRU
// tail until the bounds hold again.
func (c *Cache) insertLocked(key slot, val any, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += bytes - e.bytes
		key.sp.bytes += bytes - e.bytes
		e.val, e.bytes, e.added = val, bytes, c.now()
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{slot: key, val: val, bytes: bytes, added: c.now()})
		c.items[key] = el
		c.bytes += bytes
		key.sp.bytes += bytes
		key.sp.entries++
	}
	for c.ll.Len() > c.cfg.MaxEntries ||
		(c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes && c.ll.Len() > 1) {
		victim := c.ll.Back()
		c.removeLocked(victim)
		victim.Value.(*entry).slot.sp.evictions++
	}
}

// removeLocked drops one entry.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.slot)
	c.bytes -= e.bytes
	e.slot.sp.bytes -= e.bytes
	e.slot.sp.entries--
}

// Get returns the cached value for key without computing anything. It
// counts as a hit or miss like Do, but never joins or starts flights.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookupLocked(slot{&c.own, key}); ok {
		c.own.hits++
		return v, true
	}
	c.own.misses++
	return nil, false
}

// Purge drops every cached entry, partitions' included (in-flight
// computations are left to finish and re-insert). It exists for
// operational resets; routine invalidation happens through
// epoch-bearing keys instead.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
	}
}

// Metrics returns a snapshot of the cache's own counters and
// occupancy; partitions report theirs separately.
func (c *Cache) Metrics() Metrics { return c.metrics(&c.own) }

func (c *Cache) metrics(sp *space) Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Hits:      sp.hits,
		Misses:    sp.misses,
		Shared:    sp.shared,
		Evictions: sp.evictions,
		Expired:   sp.expired,
		Inflight:  sp.inflight,
		Entries:   sp.entries,
		Bytes:     sp.bytes,
	}
}

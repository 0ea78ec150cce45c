// Package cache provides the two-generation TTL'd map the gossip layer
// and the gateway's read model both depend on, as one shared generic.
//
// The scheme: entries are written into a current generation; every TTL
// the current generation becomes the previous one and the previous one
// is dropped, so an entry survives between TTL and 2×TTL and expiry is
// O(1) amortized — no per-entry timers, no background sweeper. This is
// the classic gossip dedup structure (a message digest only needs to be
// remembered for about one network diameter's worth of propagation),
// and its users are realnet's seen/relay-limit caches
// (crypto.Digest→struct{}, network.LimitKey→int) and the gateway read
// model's transaction-status indexes (crypto.Digest→uint64 committed,
// crypto.Digest→uint64 pending, the head at admission).
//
// Time is a caller-supplied time.Duration reading — virtual time under
// the simulator, wall-clock offsets in real deployments — passed into
// every operation, which keeps the cache free of clock policy and lets
// rotation happen lazily on access.
package cache

import (
	"sync"
	"time"
)

// TwoGen is a two-generation TTL'd cache. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type TwoGen[K comparable, V any] struct {
	mu      sync.Mutex
	ttl     time.Duration
	cur     map[K]V
	prev    map[K]V
	rotated time.Duration
}

// New creates a cache whose entries live between ttl and 2×ttl, which is
// positive.
func New[K comparable, V any](ttl time.Duration) *TwoGen[K, V] {
	return &TwoGen[K, V]{
		ttl: ttl,
		cur: make(map[K]V),
	}
}

// rotateLocked ages the generations if a TTL has elapsed.
func (c *TwoGen[K, V]) rotateLocked(now time.Duration) {
	if now-c.rotated < c.ttl {
		return
	}
	// If more than two TTLs passed idle, both generations are stale.
	if now-c.rotated >= 2*c.ttl {
		c.prev = nil
	} else {
		c.prev = c.cur
	}
	c.cur = make(map[K]V)
	c.rotated = now
}

// Get returns the freshest live value for k.
func (c *TwoGen[K, V]) Get(k K, now time.Duration) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked(now)
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	if v, ok := c.prev[k]; ok {
		return v, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is live in either generation.
func (c *TwoGen[K, V]) Contains(k K, now time.Duration) bool {
	_, ok := c.Get(k, now)
	return ok
}

// Put writes k into the current generation.
func (c *TwoGen[K, V]) Put(k K, v V, now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked(now)
	c.cur[k] = v
}

// Update runs a compound read-modify-write atomically under the cache
// lock: f sees the value from each live generation (with presence
// flags) and returns the value to store in the current generation plus
// whether to store it. Update returns f's store decision, which lets
// callers fold a policy check into the same critical section — e.g.
// realnet's relay limit increments a per-key count only while the
// two-generation total is under the cap, and relays iff it stored.
func (c *TwoGen[K, V]) Update(k K, now time.Duration, f func(cur V, curOK bool, prev V, prevOK bool) (V, bool)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rotateLocked(now)
	cur, curOK := c.cur[k]
	prev, prevOK := c.prev[k]
	v, store := f(cur, curOK, prev, prevOK)
	if store {
		c.cur[k] = v
	}
	return store
}

// Len returns the number of live entries across both generations
// (counting a key present in both twice — generations are disjoint for
// writers that always Put into current, so in practice this is the
// entry count).
func (c *TwoGen[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev)
}

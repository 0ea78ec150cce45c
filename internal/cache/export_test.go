package cache

import "algorand/internal/metrics"

// Instrument tees lookup outcomes into hit/miss counters registered
// under name_hits_total / name_misses_total in r.
func (c *TwoGen[K, V]) Instrument(r *metrics.Registry, name string) {
	// Register before taking c.mu: gauge functions may read this cache
	// under the registry lock, so the registry lock must never be
	// acquired while holding c.mu.
	hits := r.Counter(name+"_hits_total", "cache lookups served from a live generation")
	misses := r.Counter(name+"_misses_total", "cache lookups that found no live entry")
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = hits, misses
}

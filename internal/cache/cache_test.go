package cache

import (
	"sync"
	"testing"
	"time"

	"algorand/internal/metrics"
)

func TestPutGetTTL(t *testing.T) {
	c := New[string, int](10 * time.Second)
	c.Put("a", 1, 0)

	if v, ok := c.Get("a", 5*time.Second); !ok || v != 1 {
		t.Fatalf("Get within TTL = %v,%v", v, ok)
	}
	// One rotation: entry survives in the previous generation.
	if v, ok := c.Get("a", 12*time.Second); !ok || v != 1 {
		t.Fatalf("Get within 2×TTL = %v,%v", v, ok)
	}
	// A fresh write and another rotation expires the original.
	c.Put("b", 2, 13*time.Second)
	if _, ok := c.Get("a", 23*time.Second); ok {
		t.Fatal("entry survived past 2×TTL")
	}
	if v, ok := c.Get("b", 23*time.Second); !ok || v != 2 {
		t.Fatalf("b lost after one rotation = %v,%v", v, ok)
	}
}

func TestIdleGapDropsBothGenerations(t *testing.T) {
	c := New[string, int](time.Second)
	c.Put("a", 1, 0)
	// After a long idle gap, nothing should be live — the entry must not
	// leak into prev and get an extra TTL of life.
	if _, ok := c.Get("a", 10*time.Second); ok {
		t.Fatal("entry survived a >2×TTL idle gap")
	}
}

func TestFreshWriteOutlivesRotation(t *testing.T) {
	c := New[crKey, bool](time.Second)
	c.Put(crKey{1}, true, 900*time.Millisecond)
	// Rotation at 1s moves it to prev; still live until 2s-ish.
	if !c.Contains(crKey{1}, 1900*time.Millisecond) {
		t.Fatal("entry dropped after one rotation")
	}
}

type crKey struct{ n int }

func TestUpdateRelayLimitPattern(t *testing.T) {
	// The realnet relay-limit idiom: allow at most `limit` relays per
	// key per ~TTL window, counting across both generations.
	c := New[string, int](time.Minute)
	const limit = 3
	relay := func(now time.Duration) bool {
		return c.Update("k", now, func(cur int, curOK bool, prev int, prevOK bool) (int, bool) {
			if cur+prev >= limit {
				return cur, false
			}
			return cur + 1, true
		})
	}
	for i := 0; i < limit; i++ {
		if !relay(0) {
			t.Fatalf("relay %d refused under limit", i)
		}
	}
	if relay(0) {
		t.Fatal("relay allowed over limit")
	}
	// Counts carried across one rotation still enforce the limit.
	if relay(90 * time.Second) {
		t.Fatal("relay allowed over limit across generations")
	}
	// After both generations age out the budget resets.
	if !relay(5 * time.Minute) {
		t.Fatal("relay refused after budget expiry")
	}
}

func TestInstrumentCounters(t *testing.T) {
	r := metrics.NewRegistry()
	c := New[string, struct{}](time.Second)
	c.Instrument(r, "test_cache")

	c.Put("x", struct{}{}, 0)
	c.Get("x", 0) // hit
	c.Get("y", 0) // miss
	c.Get("x", 0) // hit

	snap := r.Snapshot()
	if got := snap["test_cache_hits_total"].Value; got != 2 {
		t.Fatalf("hits = %v, want 2", got)
	}
	if got := snap["test_cache_misses_total"].Value; got != 1 {
		t.Fatalf("misses = %v, want 1", got)
	}
}

func TestLen(t *testing.T) {
	c := New[int, int](time.Second)
	c.Put(1, 1, 0)
	c.Put(2, 2, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Put(3, 3, 1100*time.Millisecond) // rotates; 1,2 now in prev
	if c.Len() != 3 {
		t.Fatalf("len after rotation = %d, want 3", c.Len())
	}
}

// TestConcurrent races writers, readers, and updaters; meaningful under
// -race.
func TestConcurrent(t *testing.T) {
	r := metrics.NewRegistry()
	c := New[int, int](time.Millisecond)
	c.Instrument(r, "hammer_cache")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				now := time.Duration(i) * 10 * time.Microsecond
				c.Put(i%64, w, now)
				c.Get((i+1)%64, now)
				c.Update(i%64, now, func(cur int, curOK bool, prev int, prevOK bool) (int, bool) {
					return cur + 1, true
				})
				c.Len()
			}
		}(w)
	}
	wg.Wait()
}

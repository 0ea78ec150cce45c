package binomial

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// fresh is the reference every table answer is held against.
func fresh(hash []byte, w, W, tau uint64) uint64 {
	return New(w, tau, W).Quantile(FractionOfHash(hash))
}

func randHash(rng *rand.Rand) []byte {
	h := make([]byte, hashLen)
	rng.Read(h)
	return h
}

// edgeHashes are the fractions where an off-by-one in a boundary shows:
// 0, the smallest positive fraction, 1/2, and the largest below 1.
func edgeHashes() [][]byte {
	zero := make([]byte, hashLen)
	tiny := make([]byte, hashLen)
	tiny[hashLen-1] = 1
	half := make([]byte, hashLen)
	half[0] = 0x80
	return [][]byte{zero, tiny, half, bytes.Repeat([]byte{0xff}, hashLen)}
}

func TestSelectEqualsFreshWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(hash []byte, w, W, tau uint64) {
		t.Helper()
		// Twice: the first query may build or extend the table, the
		// second reads it.
		for pass := 0; pass < 2; pass++ {
			if got, want := Select(hash, w, W, tau), fresh(hash, w, W, tau); got != want {
				t.Fatalf("Select(%x…, w=%d, W=%d, tau=%d) = %d, fresh Walker says %d (pass %d)",
					hash[:4], w, W, tau, got, want, pass)
			}
		}
	}
	for i := 0; i < 400; i++ {
		// Either few expected selections of any stake (the protocol's
		// regime) or any τ up to 2W on a small stake, where j = w and
		// τ ≥ W happen: both keep the reference walk short.
		W := 1 + uint64(rng.Int63n(1_000_000))
		w := uint64(rng.Int63n(int64(W) + 1))
		tau := uint64(rng.Int63n(200))
		if i%2 == 1 {
			w, tau = w%300, uint64(rng.Int63n(int64(2*W)))
		}
		check(randHash(rng), w, W, tau)
	}
	cases := []struct{ w, W, tau uint64 }{
		{0, 1000, 20},            // no weight
		{1, 1000, 20},            // j ∈ {0, 1}
		{3, 10, 9},               // j = w reachable
		{5, 3, 10},               // τ ≥ W: everyone
		{5, 10, 10},              // τ = W
		{5, 10, 0},               // τ = 0: no one
		{5, 0, 3},                // W = 0
		{1000, 50_000, 2000},     // Fig. 4 τ_step, one of 50 equal users
		{1000, 50_000, 10_000},   // Fig. 4 τ_final
		{20, 1_000_000, 2000},    // small stake
		{400_000, 1_000_000, 26}, // large stake, τ_proposer
	}
	for _, c := range cases {
		for _, h := range edgeHashes() {
			check(h, c.w, c.W, c.tau)
		}
		for i := 0; i < 50; i++ {
			check(randHash(rng), c.w, c.W, c.tau)
		}
	}
	// Other hash lengths bypass the tables and still agree.
	check([]byte{0x80}, 5, 10, 3)
	check(nil, 5, 10, 3)
}

// TestBoundaryIsTheWalkersComparison pins the representation: for the
// CDF values of a real walk, the stored boundary orders every hash
// exactly as big.Float comparison orders its fraction.
func TestBoundaryIsTheWalkersComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := New(1000, 2000, 50_000)
	for j := 0; j < 120; j++ {
		b := boundaryOf(w.cdf)
		hashes := append(edgeHashes(), b[1:], randHash(rng))
		// The hash just below the boundary, where there is one.
		below := append([]byte(nil), b[1:]...)
		for i := hashLen - 1; i >= 0; i-- {
			below[i]--
			if below[i] != 0xff {
				break
			}
		}
		hashes = append(hashes, below)
		for _, h := range hashes {
			if got, want := b.above(h), FractionOfHash(h).Cmp(w.cdf) < 0; got != want {
				t.Fatalf("j=%d hash %x…: boundary says %v, big.Float says %v", j, h[:4], got, want)
			}
		}
		w.advance()
	}
}

func TestTableCacheEvictsAndRebuilds(t *testing.T) {
	// Room for about three small tables per generation.
	c := newTableCache(3 * (tableOverhead + 8*len(boundary{})))
	rng := rand.New(rand.NewSource(9))
	first := tableKey{w: 100, tau: 20, W: 1000}
	h := randHash(rng)
	want := fresh(h, first.w, first.W, first.tau)
	if got := c.quantile(first, h); got != want {
		t.Fatalf("first query = %d, want %d", got, want)
	}
	for i := uint64(0); i < 40; i++ {
		k := tableKey{w: 101 + i, tau: 20, W: 1000}
		hk := randHash(rng)
		if got, want := c.quantile(k, hk), fresh(hk, k.w, k.W, k.tau); got != want {
			t.Fatalf("key %d = %d, want %d", i, got, want)
		}
		if live := len(c.cur) + len(c.old); live > 8 {
			t.Fatalf("%d tables live after %d keys: the cache is not bounded", live, i+1)
		}
		if c.curBytes > c.genBytes {
			t.Fatalf("current generation holds %d bytes, budget %d", c.curBytes, c.genBytes)
		}
	}
	if _, ok := c.cur[first]; ok {
		t.Fatal("the first table is still in the current generation")
	}
	if _, ok := c.old[first]; ok {
		t.Fatal("the first table survived 40 other keys")
	}
	if got := c.quantile(first, h); got != want {
		t.Fatalf("after eviction = %d, want %d", got, want)
	}
}

func TestTableCachePromotesOnHit(t *testing.T) {
	c := newTableCache(3 * (tableOverhead + 8*len(boundary{})))
	rng := rand.New(rand.NewSource(10))
	hot := tableKey{w: 100, tau: 20, W: 1000}
	c.quantile(hot, randHash(rng))
	kept := c.cur[hot]
	for i := uint64(0); i < 40; i++ {
		c.quantile(tableKey{w: 101 + i, tau: 20, W: 1000}, randHash(rng))
		c.quantile(hot, randHash(rng))
	}
	if c.cur[hot] != kept && c.old[hot] != kept {
		t.Fatal("a table asked for between every rotation was rebuilt")
	}
}

func TestTableStopsRememberingAtMaxBounds(t *testing.T) {
	// Half the stake at τ_final: the mean, 5000, is past maxBounds.
	k := tableKey{w: 500_000, tau: 10_000, W: 1_000_000}
	c := newTableCache(genBytes)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		h := randHash(rng)
		if got, want := c.quantile(k, h), fresh(h, k.w, k.W, k.tau); got != want {
			t.Fatalf("query %d = %d, want %d", i, got, want)
		}
	}
	tab := c.cur[k]
	if tab == nil {
		tab = c.old[k]
	}
	if len(tab.bounds) != maxBounds || tab.walker.j != maxBounds-1 {
		t.Fatalf("table holds %d boundaries with its walker at %d, want %d and %d",
			len(tab.bounds), tab.walker.j, maxBounds, maxBounds-1)
	}
}

func TestSelectConcurrent(t *testing.T) {
	type query struct {
		hash      []byte
		w, W, tau uint64
		want      uint64
	}
	rng := rand.New(rand.NewSource(12))
	var queries []query
	for i := 0; i < 300; i++ {
		q := query{hash: randHash(rng), w: 900 + uint64(i%7), W: 50_000, tau: []uint64{26, 2000, 10_000}[i%3]}
		q.want = fresh(q.hash, q.w, q.W, q.tau)
		queries = append(queries, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i*7+g*13)%len(queries)]
				if got := Select(q.hash, q.w, q.W, q.tau); got != q.want {
					t.Errorf("goroutine %d: Select(w=%d, tau=%d) = %d, want %d", g, q.w, q.tau, got, q.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

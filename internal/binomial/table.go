package binomial

import (
	"bytes"
	"math/big"
	"sort"
	"sync"
)

// The interval boundaries CDF(0), CDF(1), … of Binomial(w, τ/W) depend
// only on (w, τ, W), yet sortition asks for them once per vote per
// verifier: at N = 50 every committee member's table was rebuilt — a
// 640-bit exponentiation and a walk of big.Float multiplications —
// about 200 times a round. tableCache keeps them instead.
//
// A boundary is kept in the form the comparison needs. A VRF output is
// the integer H < 2^512 and the fraction is H/2^512 exactly, so
//
//	fraction < CDF(j)  ⟺  H < CDF(j)·2^512  ⟺  H < ⌈CDF(j)·2^512⌉,
//
// and ⌈CDF(j)·2^512⌉ — 65 big-endian bytes, since CDF(j) may round to 1
// — is all that is stored. CDF(j) itself comes from a Walker, so a
// table is the fresh Walker's sequence of comparisons, remembered.

// hashLen is the length of a VRF output, the only hash length tables
// serve; Select answers any other length with a fresh Walker.
const hashLen = 64

// boundary is ⌈CDF(j)·2^(8·hashLen)⌉, big-endian.
type boundary [hashLen + 1]byte

// above reports hash/2^512 < CDF(j) for the boundary of j.
func (b *boundary) above(hash []byte) bool {
	return b[0] != 0 || bytes.Compare(hash, b[1:]) < 0
}

var bigOne = big.NewInt(1)

// boundaryOf converts a Walker's CDF value.
func boundaryOf(cdf *big.Float) (b boundary) {
	// Scaling by a power of two is exact, and so is the ceiling.
	scaled, acc := new(big.Float).SetMantExp(cdf, 8*hashLen).Int(nil)
	if acc == big.Below {
		scaled.Add(scaled, bigOne)
	}
	scaled.FillBytes(b[:])
	return b
}

type tableKey struct{ w, tau, W uint64 }

// table is one distribution's boundaries as far as any query has needed
// them; walker stands at j = len(bounds)-1, ready to go on.
type table struct {
	walker *Walker
	bounds []boundary
}

// Capacity. A generation rotates out once it holds more than genBytes,
// counting tableOverhead per table (its Walker's three big.Floats, the
// map slot) plus the capacity of its boundary slice. A table stops
// remembering at maxBounds boundaries — queries past that walk on
// from a copy of its Walker — so one query overshoots a generation by
// at most one table's slice, which append sizes below 1.25·maxBounds+192
// elements. Two generations are live:
//
//	worst case = 2 × (genBytes + 4032·65 B) = 2 × (768 KB + 256 KB) = 2.0 MB.
//
// For scale: Fig. 4's committees over 50 users of distinct stake are
// 100 tables of about 50 (τ_step = 2000) and 215 (τ_final = 10000)
// boundaries, 0.9 MB; users of equal stake share one table per τ.
const (
	genBytes      = 768 << 10
	maxBounds     = 3072
	tableOverhead = 1 << 10
)

// tableCache is a two-generation cache of tables: lookups hit either
// generation and move the table to the current one, and when the
// current one is full it becomes the old one, whose tables — those not
// asked for since the previous rotation — are dropped.
type tableCache struct {
	mu       sync.Mutex
	genBytes int
	cur, old map[tableKey]*table
	curBytes int
}

func newTableCache(genBytes int) *tableCache {
	return &tableCache{genBytes: genBytes, cur: make(map[tableKey]*table)}
}

// tables serves Select. What it holds is a pure function of the key, so
// sharing it process-wide is not observable to callers.
var tables = newTableCache(genBytes)

func (t *table) bytes() int { return tableOverhead + cap(t.bounds)*len(boundary{}) }

// lookup returns the table for k in the current generation, building it
// or moving it there as needed.
func (c *tableCache) lookup(k tableKey) *table {
	if t, ok := c.cur[k]; ok {
		return t
	}
	t, ok := c.old[k]
	if !ok {
		w := New(k.w, k.tau, k.W)
		t = &table{walker: w, bounds: []boundary{boundaryOf(w.cdf)}}
	}
	c.cur[k] = t
	c.curBytes += t.bytes()
	return t
}

// rotate ages the generations once the current one is over budget.
func (c *tableCache) rotate() {
	if c.curBytes > c.genBytes {
		c.old, c.cur, c.curBytes = c.cur, make(map[tableKey]*table), 0
	}
}

// quantile is Walker.Quantile for the non-degenerate distribution k and
// the fraction hash/2^512, answered from k's table.
func (c *tableCache) quantile(k tableKey, hash []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.lookup(k)
	before := t.bytes()
	j := t.quantile(hash)
	c.curBytes += t.bytes() - before
	c.rotate()
	return j
}

// quantile returns the smallest j whose boundary is above the hash, or
// n if there is none, extending the table as far as that takes.
func (t *table) quantile(hash []byte) uint64 {
	// Boundaries ascend, so within the table it is a search.
	if j := sort.Search(len(t.bounds), func(j int) bool { return t.bounds[j].above(hash) }); j < len(t.bounds) {
		return uint64(j)
	}
	w := t.walker
	for w.j < w.n && len(t.bounds) < maxBounds {
		w.advance()
		t.bounds = append(t.bounds, boundaryOf(w.cdf))
		if t.bounds[w.j].above(hash) {
			return w.j
		}
	}
	if w.j >= w.n {
		return w.n
	}
	// Past what the table remembers: finish on a scratch Walker.
	return w.clone().Quantile(FractionOfHash(hash))
}

package ledger

import (
	"encoding/binary"
	"slices"

	"algorand/internal/crypto"
)

// The account state commitment: an incremental Merkle tree over every
// account record (public key, money, nonce). Accounts hash into one of
// merkleBuckets leaves by key; a bucket's hash covers its members'
// record hashes in sorted order; a fixed binary tree over the bucket
// hashes yields the tree root; and the state root additionally commits
// the total money supply W (sortition divides by it, so a state
// commitment that let W drift would be useless for verifying snapshots).
//
// Updating an account re-hashes only its bucket (expected n/merkleBuckets
// members) and the log₂(merkleBuckets) interior nodes above it, so the
// per-transaction cost stays far below re-hashing the account table —
// the property that lets every block header carry the root.
//
// The buckets are also where the records themselves live (see Balances):
// the unit the tree re-hashes is the unit a write copies.

// merkleBuckets is the leaf width of the account tree. Power of two.
const merkleBuckets = 256

// accountLeafHash commits one account record.
func accountLeafHash(pk crypto.PublicKey, money, nonce uint64) crypto.Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], money)
	binary.LittleEndian.PutUint64(buf[8:], nonce)
	return crypto.HashBytes("algorand.account", pk[:], buf[:])
}

// merkleBucketOf assigns an account to its leaf bucket.
func merkleBucketOf(pk crypto.PublicKey) int {
	h := crypto.HashBytes("algorand.account.bucket", pk[:])
	return int(binary.LittleEndian.Uint32(h[:4]) % merkleBuckets)
}

// account is a record as a bucket holds it, with its leaf hash.
type account struct {
	AccountRecord
	leaf crypto.Digest
}

// bucket is one leaf of the tree: the accounts whose keys hash to it,
// ascending by key, and the hash that commits them. A bucket more than
// one tree can reach is never written.
type bucket struct {
	accounts []account
	hash     crypto.Digest // stale while the owning tree has the bucket marked dirty
}

// find locates pk in the bucket, or its insertion point.
func (bk *bucket) find(pk crypto.PublicKey) (int, bool) {
	return slices.BinarySearchFunc(bk.accounts, pk, func(a account, pk crypto.PublicKey) int {
		return a.Key.Compare(pk)
	})
}

// rehash commits the bucket: its members' record hashes in sorted order
// (an order that depends on nothing but the records).
func (bk *bucket) rehash() {
	var few [16]crypto.Digest
	hs := few[:0]
	for i := range bk.accounts {
		hs = append(hs, bk.accounts[i].leaf)
	}
	slices.SortFunc(hs, crypto.Digest.Compare)
	var fewBytes [len(few) * len(crypto.Digest{})]byte
	flat := fewBytes[:0]
	for i := range hs {
		flat = append(flat, hs[i][:]...)
	}
	bk.hash = crypto.HashBytes("algorand.account.leaf", flat)
}

// bucketSet is a set of bucket indices.
type bucketSet [merkleBuckets / 64]uint64

func (s *bucketSet) add(i int)     { s[i/64] |= 1 << (i % 64) }
func (s bucketSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// accountTree is the incremental tree over the buckets. nodes is the
// interior in a flat 1-indexed binary heap layout: nodes[1] is the tree
// root and the children of n are 2n and 2n+1, an index of merkleBuckets
// or more naming bucket index−merkleBuckets. A bucket no account ever
// hashed to commits to the zero digest, and so does an interior node
// above nothing but such buckets.
//
// Copying the struct copies the tree; share must be called first.
type accountTree struct {
	buckets [merkleBuckets]*bucket
	nodes   [merkleBuckets]crypto.Digest
	// owned are the buckets only this tree can reach, which it writes in
	// place; any other is copied before its first write. dirty ⊆ owned
	// are the buckets written since the last root.
	owned, dirty bucketSet
}

// get returns pk's record from bucket i, the zero record if it has none.
func (t *accountTree) get(i int, pk crypto.PublicKey) AccountRecord {
	if bk := t.buckets[i]; bk != nil {
		if j, ok := bk.find(pk); ok {
			return bk.accounts[j].AccountRecord
		}
	}
	return AccountRecord{}
}

// put writes rec into bucket i, which its key hashes to.
func (t *accountTree) put(i int, rec AccountRecord) {
	bk := t.buckets[i]
	if !t.owned.has(i) {
		own := new(bucket)
		if bk != nil {
			own.accounts = make([]account, len(bk.accounts), len(bk.accounts)+1)
			copy(own.accounts, bk.accounts)
		}
		bk, t.buckets[i] = own, own
		t.owned.add(i)
	}
	t.dirty.add(i)
	a := account{AccountRecord: rec, leaf: accountLeafHash(rec.Key, rec.Money, rec.Nonce)}
	if j, ok := bk.find(rec.Key); ok {
		bk.accounts[j] = a
	} else {
		bk.accounts = slices.Insert(bk.accounts, j, a)
	}
}

// share prepares the tree for being copied: hashes are brought up to
// date, so that no copy ever writes a bucket another can reach, and the
// tree gives up the buckets it could write in place. A tree that owns
// nothing is left untouched, which is what lets many goroutines clone
// one settled state.
func (t *accountTree) share() {
	t.root()
	if t.owned != (bucketSet{}) {
		t.owned = bucketSet{}
	}
}

// root recomputes the dirty paths and returns the tree root.
func (t *accountTree) root() crypto.Digest {
	if t.dirty == (bucketSet{}) {
		return t.nodes[1]
	}
	var stale [merkleBuckets]bool // interior nodes above a dirty bucket
	for i, bk := range t.buckets {
		if t.dirty.has(i) {
			bk.rehash()
			stale[(merkleBuckets+i)/2] = true
		}
	}
	t.dirty = bucketSet{}
	// Children have the larger indices: descending order reaches every
	// node after both of its children.
	for n := merkleBuckets - 1; n >= 1; n-- {
		if stale[n] {
			l, r := t.child(2*n), t.child(2*n+1)
			t.nodes[n] = crypto.HashBytes("algorand.account.node", l[:], r[:])
			stale[n/2] = true
		}
	}
	return t.nodes[1]
}

// child returns the hash at tree index k, an interior node or a bucket.
func (t *accountTree) child(k int) crypto.Digest {
	if k < merkleBuckets {
		return t.nodes[k]
	}
	if bk := t.buckets[k-merkleBuckets]; bk != nil {
		return bk.hash
	}
	return crypto.Digest{}
}

// stateRoot is the block-header commitment: the account tree root plus
// the total money supply.
func stateRoot(total uint64, treeRoot crypto.Digest) crypto.Digest {
	return crypto.HashUint64("algorand.state", total, treeRoot[:])
}

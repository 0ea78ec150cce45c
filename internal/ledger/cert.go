package ledger

import (
	"errors"
	"fmt"

	"algorand/internal/crypto"
	"algorand/internal/sortition"
	"algorand/internal/wire"
)

// Vote is a committee member's signed BA⋆ message (Algorithm 4):
// Signed_sk(round, step, sorthash, π, H(last_block), value), carried by
// the gossip network and aggregated into certificates.
type Vote struct {
	Sender    crypto.PublicKey
	Round     uint64
	Step      uint64
	SortHash  crypto.VRFOutput
	SortProof []byte
	PrevHash  crypto.Digest
	Value     crypto.Digest
	Sig       []byte
}

// voteFixedSize is the size of a vote's fixed fields: sender key,
// round, step, VRF output, two digests, plus the two u32 length
// prefixes for proof and signature.
const voteFixedSize = 32 + 8 + 8 + 64 + 4 + 32 + 32 + 4

// VoteWireSize is the canonical wire size of a standard vote (80-byte
// ECVRF sortition proof, 64-byte Ed25519 signature). About 300 bytes —
// the paper's "small message" class. Asserted equal to len(wire.Encode)
// by the universal round-trip test.
const VoteWireSize = voteFixedSize + 80 + 64

// voteSignedSize is the size of a standard vote's signing bytes; a
// buffer of this size on the caller's stack holds them, and a longer
// sortition proof spills to the heap.
const voteSignedSize = VoteWireSize - 4 - 64

// appendSigned appends the fields covered by the signature — every
// field but the signature itself, in wire order, so the signing bytes
// are a strict prefix of the canonical encoding.
func (v *Vote) appendSigned(b []byte) []byte {
	b = append(b, v.Sender[:]...)
	b = wire.AppendUint64(b, v.Round)
	b = wire.AppendUint64(b, v.Step)
	b = append(b, v.SortHash[:]...)
	b = wire.AppendBytes(b, v.SortProof)
	b = append(b, v.PrevHash[:]...)
	return append(b, v.Value[:]...)
}

// EncodeTo implements wire.Marshaler.
func (v *Vote) EncodeTo(e *wire.Encoder) {
	var buf [voteSignedSize]byte
	e.Fixed(v.appendSigned(buf[:0]))
	e.Bytes(v.Sig)
}

// DecodeFrom implements wire.Unmarshaler.
func (v *Vote) DecodeFrom(d *wire.Decoder) {
	d.Fixed(v.Sender[:])
	v.Round = d.Uint64()
	v.Step = d.Uint64()
	d.Fixed(v.SortHash[:])
	v.SortProof = d.Bytes()
	d.Fixed(v.PrevHash[:])
	d.Fixed(v.Value[:])
	v.Sig = d.Bytes()
}

// WireSize returns the vote's canonical encoded size.
func (v *Vote) WireSize() int {
	return voteFixedSize + len(v.SortProof) + len(v.Sig)
}

// SigningBytes returns the canonical encoding covered by the signature.
func (v *Vote) SigningBytes() []byte {
	return v.appendSigned(make([]byte, 0, voteSignedSize))
}

// VerifySig checks the vote's signature.
func (v *Vote) VerifySig(p crypto.Provider) bool {
	var buf [voteSignedSize]byte
	return crypto.VerifySig(p, v.Sender, v.appendSigned(buf[:0]), v.Sig)
}

// Sign fills in the signature.
func (v *Vote) Sign(id crypto.Identity) {
	v.Sig = id.Sign(v.SigningBytes())
}

// Certificate proves that BA⋆ committed Value in Round: an aggregate of
// more than threshold committee votes from one step (§8.3). Final
// certificates come from the final step and prove safety; tentative
// ones come from the last BinaryBA⋆ step and prove the consensus value.
type Certificate struct {
	Round uint64
	Step  uint64
	Value crypto.Digest
	Final bool
	Votes []Vote
}

// certOverheadSize is the certificate's encoded size beyond its votes:
// round, step, value, final flag, and the u32 vote count.
const certOverheadSize = 8 + 8 + 32 + 1 + 4

// CertWireSize returns the canonical size of a certificate carrying n
// standard votes (for analytic sizing, e.g. the §10.3 storage numbers).
func CertWireSize(n int) int { return certOverheadSize + n*VoteWireSize }

// WireSize returns the certificate's serialized size in bytes. With the
// paper's parameters (τ_step=2000, T=0.685, ~1370 votes needed) this
// comes to roughly 300 KBytes, matching §10.3.
func (c *Certificate) WireSize() int {
	total := certOverheadSize
	for i := range c.Votes {
		total += c.Votes[i].WireSize()
	}
	return total
}

// EncodeTo implements wire.Marshaler.
func (c *Certificate) EncodeTo(e *wire.Encoder) {
	e.Uint64(c.Round)
	e.Uint64(c.Step)
	e.Fixed(c.Value[:])
	e.Bool(c.Final)
	e.Int(len(c.Votes))
	for i := range c.Votes {
		c.Votes[i].EncodeTo(e)
	}
}

// DecodeFrom implements wire.Unmarshaler.
func (c *Certificate) DecodeFrom(d *wire.Decoder) {
	c.Round = d.Uint64()
	c.Step = d.Uint64()
	d.Fixed(c.Value[:])
	c.Final = d.Bool()
	n := d.Count(voteFixedSize)
	if n == 0 {
		c.Votes = nil
		return
	}
	c.Votes = make([]Vote, n)
	for i := range c.Votes {
		c.Votes[i].DecodeFrom(d)
	}
}

// Verify checks the certificate under the committee configuration of
// its round: every vote must be validly signed, carry a valid sortition
// proof for (seed, role committee/round/step), vote for c.Value chained
// to prevHash, and senders must be distinct; the verified sub-user vote
// weights must exceed threshold (⌊T·τ⌋, so "more than" per the paper).
func (c *Certificate) Verify(
	p crypto.Provider,
	seed crypto.Digest,
	weights map[crypto.PublicKey]uint64,
	totalWeight uint64,
	tau uint64,
	threshold uint64,
	prevHash crypto.Digest,
) error {
	if len(c.Votes) == 0 {
		return errors.New("ledger: empty certificate")
	}
	role := sortition.Role{Kind: sortition.RoleCommittee, Round: c.Round, Step: c.Step}
	seen := make(map[crypto.PublicKey]bool, len(c.Votes))
	var votes uint64
	for i := range c.Votes {
		v := &c.Votes[i]
		if v.Round != c.Round || v.Step != c.Step {
			return fmt.Errorf("ledger: vote %d for wrong round/step", i)
		}
		if v.Value != c.Value {
			return fmt.Errorf("ledger: vote %d for wrong value", i)
		}
		if v.PrevHash != prevHash {
			return fmt.Errorf("ledger: vote %d extends wrong chain", i)
		}
		if seen[v.Sender] {
			return fmt.Errorf("ledger: duplicate voter %v", v.Sender)
		}
		seen[v.Sender] = true
		if !v.VerifySig(p) {
			return fmt.Errorf("ledger: bad signature from %v", v.Sender)
		}
		out, j := sortition.Verify(p, v.Sender, v.SortProof, seed[:], role,
			tau, weights[v.Sender], totalWeight)
		if j == 0 {
			return fmt.Errorf("ledger: voter %v not selected", v.Sender)
		}
		if out != v.SortHash {
			return fmt.Errorf("ledger: voter %v sortition hash mismatch", v.Sender)
		}
		votes += j
	}
	if votes <= threshold {
		return fmt.Errorf("ledger: certificate has %d votes, need > %d", votes, threshold)
	}
	return nil
}

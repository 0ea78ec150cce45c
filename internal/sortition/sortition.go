// Package sortition implements cryptographic sortition (§5 of the
// Algorand paper, Algorithms 1 and 2) on top of the VRF: a user is
// selected for a role in proportion to their currency weight, privately
// and non-interactively, and can prove the selection to anyone.
//
// The package also computes block-proposal priorities (§6): each
// selected sub-user's priority is H(vrfOutput || subUserIndex), and the
// user's block priority is the maximum over their selected sub-users.
package sortition

import (
	"encoding/binary"

	"algorand/internal/binomial"
	"algorand/internal/crypto"
)

// Role identifies what a user may be selected for: proposing a block in
// a round, or serving on the committee of a specific BA⋆ step.
type Role struct {
	Kind  string // "proposer", "committee", or "fork-proposer"
	Round uint64
	Step  uint64 // 0 for proposer roles
}

// Well-known role kinds.
const (
	RoleProposer     = "proposer"
	RoleCommittee    = "committee"
	RoleForkProposer = "fork-proposer"
)

// Bytes returns the canonical encoding of the role, appended to the
// seed as the VRF input ("seed || role" in Algorithm 1).
func (r Role) Bytes() []byte {
	return r.appendTo(make([]byte, 0, len(r.Kind)+17))
}

func (r Role) appendTo(b []byte) []byte {
	b = append(b, r.Kind...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, r.Round)
	return binary.LittleEndian.AppendUint64(b, r.Step)
}

// alphaSize holds the VRF input of a 32-byte seed and any well-known
// role, so that a verifier builds it on its stack.
const alphaSize = 32 + len(RoleForkProposer) + 17

// appendAlpha appends the VRF input seed||role.
func appendAlpha(b, seed []byte, role Role) []byte {
	return role.appendTo(append(b, seed...))
}

// Result is the outcome of running sortition locally (Algorithm 1).
type Result struct {
	// Output is the VRF pseudorandom output ("hash" in the paper).
	Output crypto.VRFOutput
	// Proof is the VRF proof π.
	Proof []byte
	// J is how many of the user's sub-users were selected; zero means
	// not selected.
	J uint64
}

// Selected reports whether the user was chosen at all.
func (r Result) Selected() bool { return r.J > 0 }

// Execute runs Algorithm 1: it evaluates the user's VRF on seed||role
// and computes the number of selected sub-users for a user with weight
// w out of total weight W and expected selections tau.
func Execute(id crypto.Identity, seed []byte, role Role, tau, w, W uint64) Result {
	out, proof := id.VRFProve(appendAlpha(make([]byte, 0, alphaSize), seed, role))
	j := binomial.Select(out[:], w, W, tau)
	return Result{Output: out, Proof: proof, J: j}
}

// Verify runs Algorithm 2: it checks the VRF proof for pk on seed||role
// and returns the number of selected sub-users (zero if the proof is
// invalid or the user was not selected).
func Verify(p crypto.Provider, pk crypto.PublicKey, proof, seed []byte, role Role, tau, w, W uint64) (crypto.VRFOutput, uint64) {
	var buf [alphaSize]byte
	out, ok := crypto.VRFVerify(p, pk, appendAlpha(buf[:0], seed, role), proof)
	if !ok {
		return crypto.VRFOutput{}, 0
	}
	return out, binomial.Select(out[:], w, W, tau)
}

// Priority is a block-proposal priority, comparable byte-wise. Higher
// is better (so the "highest-priority proposer" wins).
type Priority crypto.Digest

// Less reports whether p orders before q (i.e. q has higher priority).
func (p Priority) Less(q Priority) bool {
	for i := 0; i < len(p); i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}

// BestPriority returns the highest priority among the j selected
// sub-users and the winning sub-user index (1-based), per §6: the
// priority of sub-user i is H(vrfOutput || i).
func BestPriority(out crypto.VRFOutput, j uint64) (Priority, uint64) {
	var best Priority
	bestIdx := uint64(0)
	for i := uint64(1); i <= j; i++ {
		d := crypto.HashUint64("algorand.priority", i, out[:])
		p := Priority(d)
		if bestIdx == 0 || best.Less(p) {
			best = p
			bestIdx = i
		}
	}
	return best, bestIdx
}

// SubUserHash returns H(sortitionHash || subUserIndex), the per-sub-user
// hash used both for priorities and for the common coin (Algorithm 9).
func SubUserHash(out crypto.VRFOutput, j uint64) crypto.Digest {
	return crypto.HashUint64("algorand.priority", j, out[:])
}

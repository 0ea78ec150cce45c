package node

import (
	"algorand/internal/crypto"
	"algorand/internal/params"
)

// Deployment is what every process of an address-book deployment derives
// from the shared genesis seed word: a node to run its identity and the
// committees, a gateway to start from the same genesis block and verify
// certificates under the committee the nodes run. Both derive it here, so
// the two cannot drift apart and have every gateway reject every
// certificate.
type Deployment struct {
	// Params sizes the committees for the voters, and the blocks. The λ
	// timeouts are the caller's: they do not enter verification.
	Params params.Params
	// Identities are the voters', in address-book order.
	Identities []crypto.Identity
	// Genesis funds each voter with the same weight.
	Genesis map[crypto.PublicKey]uint64
	Seed0   crypto.Digest
}

// NewDeployment derives the deployment of voters equal-stake users from
// the genesis seed word gseed, standing in for the paper's bootstrapping
// ceremony (§8.3).
func NewDeployment(provider crypto.Provider, gseed, weight uint64, voters int) Deployment {
	prm := params.Default()
	prm.TauProposer = uint64(voters)/2 + 1
	prm.TauStep = uint64(voters) * 3
	prm.TauFinal = uint64(voters) * 6
	prm.MaxSteps = 12
	prm.BlockSize = 8 << 10
	d := Deployment{
		Params:     prm,
		Identities: make([]crypto.Identity, voters),
		Genesis:    make(map[crypto.PublicKey]uint64, voters),
		Seed0:      crypto.HashUint64("algorand-node.genesis", gseed),
	}
	for i := range d.Identities {
		d.Identities[i] = provider.NewIdentity(crypto.SeedFromUint64(gseed<<20 | uint64(i)))
		d.Genesis[d.Identities[i].PublicKey()] = weight
	}
	return d
}

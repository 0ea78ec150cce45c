// Package params holds Algorand's protocol parameters. The defaults are
// the implementation parameters from Figure 4 of the paper.
package params

import "time"

// Params collects every tunable of the protocol. The zero value is not
// usable; start from Default.
type Params struct {
	// TauProposer: expected number of block proposers (§B.1).
	TauProposer uint64
	// TauStep: expected committee size for ordinary BA⋆ steps (§B.2).
	TauStep uint64
	// TStep: vote threshold for ordinary steps, as a fraction of TauStep.
	TStep float64
	// TauFinal: expected committee size for the final step (§C.1).
	TauFinal uint64
	// TFinal: vote threshold fraction for the final step.
	TFinal float64
	// MaxSteps: maximum BinaryBA⋆ steps before halting for recovery.
	MaxSteps int
	// LambdaPriority: time to gossip sortition proofs.
	LambdaPriority time.Duration
	// LambdaBlock: timeout for receiving a block.
	LambdaBlock time.Duration
	// LambdaStep: timeout for a BA⋆ step.
	LambdaStep time.Duration
	// LambdaStepVar: estimate of BA⋆ completion-time variance.
	LambdaStepVar time.Duration
	// BlockSize is the size of proposed blocks in bytes.
	BlockSize int

	// Ablation switches (for the DESIGN.md ablations that
	// cmd/experiments -run ablations runs; all false in normal
	// operation).

	// AblateNoVoteNext3 disables Algorithm 8's vote-in-next-three-steps
	// after reaching consensus, which normally drags stragglers over
	// the vote threshold.
	AblateNoVoteNext3 bool
	// AblateNoCommonCoin replaces Algorithm 9's common coin with a
	// fixed choice of block_hash, reintroducing the vote-splitting
	// attack BA⋆'s third step kind exists to prevent.
	AblateNoCommonCoin bool
	// AblateNoPriorityGossip suppresses the §6 small priority
	// announcements: proposed blocks must carry their priorities alone.
	AblateNoPriorityGossip bool
	// AblateKeepFirstOnEquivocation keeps the first block version from
	// an equivocating proposer instead of discarding both (§10.4).
	AblateKeepFirstOnEquivocation bool
}

// Default returns the paper's implementation parameters (Figure 4).
func Default() Params {
	return Params{
		TauProposer:    26,
		TauStep:        2000,
		TStep:          0.685,
		TauFinal:       10000,
		TFinal:         0.74,
		MaxSteps:       150,
		LambdaPriority: 5 * time.Second,
		LambdaBlock:    time.Minute,
		LambdaStep:     20 * time.Second,
		LambdaStepVar:  5 * time.Second,
		BlockSize:      1 << 20, // 1 MByte
	}
}

// StepThreshold returns the number of votes needed in an ordinary step:
// strictly more than TStep·TauStep votes (the paper's "> T·τ").
func (p Params) StepThreshold() uint64 {
	return uint64(p.TStep * float64(p.TauStep))
}

// FinalThreshold returns the vote weight needed in the final step.
func (p Params) FinalThreshold() uint64 {
	return uint64(p.TFinal * float64(p.TauFinal))
}

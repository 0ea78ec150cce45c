package sim

import (
	"time"

	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/sortition"
)

// MakeEquivocatingProposers turns the first k nodes into the §10.4
// attackers: when selected as (highest-priority) proposer, each sends
// one version of its block to half of its peers and a different version
// to the other half; and whenever selected for a BA⋆ committee, it
// votes for both the proposed block and the empty block.
func (c *Cluster) MakeEquivocatingProposers(k int) {
	for i := 0; i < k && i < len(c.Nodes); i++ {
		n := c.Nodes[i]
		n.Misbehave = func(n *node.Node, prop *blockprop.Proposal) {
			// Craft a second, conflicting block (different timestamp) and
			// sign a matching announce with the same sortition credentials
			// — only the proposer itself can do this, which is why honest
			// proposers cannot be framed (the hash is under the signature).
			alt := *prop.Block.Block
			alt.Timestamp++
			altAnnounce := prop.Priority
			altAnnounce.BlockHash = alt.Hash()
			altAnnounce.Sig = c.ids[n.ID].Sign(altAnnounce.SigningBytes())
			altMsg := blockprop.BlockMsg{Block: &alt, Announce: altAnnounce}

			// Offer one version of the block to half the peers and the
			// other version to the rest (§10.4), and serve both, so each
			// victim pulls one version while the conflicting priority
			// messages expose the equivocation.
			versions := [2]*node.BlockAnnounce{n.HoldProposal(&prop.Block), n.HoldProposal(&altMsg)}
			c.Net.Gossip(n.ID, &node.PriorityGossip{M: prop.Priority})
			c.Net.Gossip(n.ID, &node.PriorityGossip{M: altAnnounce})
			for idx, peer := range c.Net.Neighbors(n.ID) {
				c.Net.Unicast(n.ID, peer, versions[idx%2])
			}
		}
		n.VoteSaboteur = func(n *node.Node, v *ledger.Vote) []*ledger.Vote {
			// Vote for the original value and also for the empty block
			// (or, when already voting empty, any proposal we know).
			alt := *v
			empty := n.Ledger().NextEmptyBlock().Hash()
			if v.Value == empty {
				return []*ledger.Vote{v} // nothing else to equivocate to
			}
			alt.Value = empty
			alt.Sign(c.ids[n.ID])
			return []*ledger.Vote{v, &alt}
		}
	}
}

// GrindStats counts a seed-grinding attacker's decisions across a run,
// so harnesses can assert the attack actually fired.
type GrindStats struct {
	// Published counts proposals the attacker released (re-timed by the
	// configured hold-back).
	Published int
	// Withheld counts proposals the attacker suppressed to steer the
	// chain onto the fallback seed.
	Withheld int
}

// MakeGrindingProposers turns the given nodes into the seed-grinding
// attackers of Wang's "Another Look at ALGORAND" critique: a selected
// Byzantine proposer holds a binary choice over the §5.2 seed chain —
// publish its block (the next seed is then its VRF output, fixed by the
// chain) or withhold it (the network falls back to H(prevSeed‖round)) —
// and picks whichever candidate seed gives it more sortition luck next
// round. When it does publish, it re-times the release by holdBack,
// landing the proposal near the edge of peers' λ_priority windows so
// distant nodes see a different highest priority than nearby ones.
// Everything else (votes, catch-up) stays honest, which makes this the
// sharpest *covert* bias attack: nothing it emits is protocol-invalid.
//
// The returned stats record every publish/withhold decision. Grinding
// only pays when the ledger refreshes sortition seeds every round
// (Config.LedgerCfg.SeedRefreshInterval = 1); with longer refresh
// intervals the choice rarely matters inside a short run, but the
// machinery — withheld proposals, re-timed gossip — still exercises the
// §6 empty-block fallback.
func (c *Cluster) MakeGrindingProposers(ids []int, holdBack time.Duration) *GrindStats {
	st := &GrindStats{}
	for _, i := range ids {
		if i < 0 || i >= len(c.Nodes) {
			continue
		}
		i := i
		c.Nodes[i].Misbehave = func(n *node.Node, prop *blockprop.Proposal) {
			round := prop.Block.Block.Round
			prevSeed := n.Ledger().PrevSeed()
			published := prop.Block.Block.Seed
			fallback := ledger.FallbackSeed(prevSeed, round)
			if c.grindScore(i, fallback, round) > c.grindScore(i, published, round) {
				st.Withheld++
				return // silence: the network commits empty on the fallback seed
			}
			st.Published++
			release := func() {
				if n.Halted() {
					return
				}
				c.Net.Gossip(n.ID, &node.PriorityGossip{M: prop.Priority})
				c.Net.Gossip(n.ID, n.HoldProposal(&prop.Block))
			}
			if holdBack > 0 {
				c.Sim.After(holdBack, release)
			} else {
				release()
			}
		}
	}
	return st
}

// grindScore rates a candidate next-round sortition seed from attacker
// i's point of view: how many proposer sub-users (weighted heavily — a
// proposer slot is worth far more than a committee seat) plus committee
// seats the seed would hand it in round+1. Deterministic, so replays
// grind identically.
func (c *Cluster) grindScore(i int, seed crypto.Digest, round uint64) uint64 {
	id := c.ids[i]
	w := c.Genesis[id.PublicKey()]
	var total uint64
	for _, v := range c.Genesis {
		total += v
	}
	prop := sortition.Execute(id, seed[:],
		sortition.Role{Kind: sortition.RoleProposer, Round: round + 1},
		c.Cfg.Params.TauProposer, w, total)
	comm := sortition.Execute(id, seed[:],
		sortition.Role{Kind: sortition.RoleCommittee, Round: round + 1, Step: 1},
		c.Cfg.Params.TauStep, w, total)
	return prop.J*16 + comm.J
}

// MakePieceWithholders turns the given nodes into holders that advertise
// every block piece they hold, as the protocol says, and never serve
// one: the per-piece form of the silent sender in Conti et al.'s
// "Undecidable Messages" (PAPERS.md). Everything else they do is honest.
// A requester finds out only by waiting; the fetcher's per-piece timeout
// bounds what that costs.
func (c *Cluster) MakePieceWithholders(ids []int) {
	for _, i := range ids {
		n := c.Nodes[i]
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if _, ok := m.(*node.PieceRequest); ok {
				return network.Verdict{}
			}
			return n.HandleMessage(from, m)
		}))
	}
}

// MakePieceForgers turns the given nodes into holders that answer every
// piece request with a piece of their own making (ForgedPiece).
// Everything else they do is honest. The manifest check must reject each
// one, and the requester must get the real piece elsewhere.
func (c *Cluster) MakePieceForgers(ids []int) {
	for _, i := range ids {
		i, n := i, c.Nodes[i]
		manifests := make(map[crypto.Digest]*blockprop.Manifest)
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			switch msg := m.(type) {
			case *node.BlockAnnounce:
				manifests[msg.Manifest.Announce.BlockHash] = &msg.Manifest
			case *node.PieceRequest:
				if man, ok := manifests[msg.Hash]; ok {
					c.Net.Unicast(i, from, ForgedPiece(man, msg.Index))
				}
				return network.Verdict{}
			}
			return n.HandleMessage(from, m)
		}))
	}
}

// MakeManifestStrippers turns the given nodes into neighbours that, the
// moment a proposer's flooded priority message reaches them (which is
// always before the body does), announce its body to every neighbour as
// a body of one piece: an announce without digests or a second
// signature, the form a 4 KB body legitimately takes and the one form of
// manifest anyone can make from public data. They answer no request made
// on the strength of it. Everything else they do is honest. A fetcher
// that pinned the first manifest it verified for a block hash would
// refuse every honest holder's signed manifest afterwards and sit out
// λ_block.
func (c *Cluster) MakeManifestStrippers(ids []int) {
	for _, i := range ids {
		i, n := i, c.Nodes[i]
		claimed := make(map[crypto.Digest]bool)
		c.Net.SetHandler(i, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if pri, ok := m.(*node.PriorityGossip); ok && !claimed[pri.M.BlockHash] {
				claimed[pri.M.BlockHash] = true
				claim := &node.BlockAnnounce{Manifest: blockprop.Manifest{Announce: pri.M}}
				for _, peer := range c.Net.Neighbors(i) {
					c.Net.Unicast(i, peer, claim)
				}
			}
			return n.HandleMessage(from, m)
		}))
	}
}

// ForgedPiece answers a request for piece index of man's body with a
// piece the proposer never signed: the right body, place and count (and,
// for the first piece, the genuine announce over an empty header), so
// that nothing short of the manifest's digest tells it from the real one.
func ForgedPiece(man *blockprop.Manifest, index int) *node.BlockPiece {
	var head *ledger.Block
	var announce *blockprop.PriorityMsg
	if index == 0 {
		head, announce = &ledger.Block{Round: man.Announce.Round}, &man.Announce
	}
	forged := blockprop.NewPiece(man.Announce.BlockHash, index, man.Pieces(), head, announce, nil, 1+index)
	return &node.BlockPiece{P: forged}
}

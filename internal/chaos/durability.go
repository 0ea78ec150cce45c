package chaos

import (
	"bytes"
	"fmt"

	"algorand/internal/ledger"
	"algorand/internal/wire"
)

// CheckDurability is the §8.3 storage invariant for Durable scenarios:
// after the run it closes every live archive handle, re-opens each
// node's data directory cold — the exact recovery scan a process
// restart performs, torn-tail truncation and checksums included — and
// demands the disk-recovered chain equal the network-caught-up chain
// byte for byte. Every round a node committed must be on its disk
// (commits journal before the node proceeds, so nothing the network
// saw may be missing; a node that fast-synced from a peer's checkpoint
// committed nothing below the anchor), every archived block must encode
// identically to the reference chain's block, and every archived
// certificate must certify its own block.
//
// Byzantine nodes are skipped entirely. Under AllowTentativeForks-style
// scenarios a node's own chain is the comparison target (its archive
// must mirror whatever it converged to); otherwise the longest honest
// chain is, which makes the disk-equals-network claim direct.
func CheckDurability(r *Result) []Violation {
	if r.DataDir == "" {
		return nil
	}
	c := r.Cluster
	var vs []Violation
	if err := c.CloseArchives(); err != nil {
		vs = append(vs, Violation{Kind: "durability", Node: -1,
			Detail: fmt.Sprintf("closing archives: %v", err)})
	}

	// The network-caught-up reference: the longest honest chain, the
	// same selection the fork check uses.
	var ref *ledger.Ledger
	for _, n := range c.Nodes {
		if r.Byzantine[n.ID] {
			continue
		}
		if ref == nil || n.Ledger().ChainLength() > ref.ChainLength() {
			ref = n.Ledger()
		}
	}
	allowForks := r.Scenario.TStepOverride > 0

	for _, n := range c.Nodes {
		i := n.ID
		if r.Byzantine[i] {
			continue
		}
		if c.Archive(i) == nil {
			continue // diskless node: nothing on disk to hold to account
		}
		ds, err := c.OpenArchiveOffline(i)
		if err != nil {
			vs = append(vs, Violation{Kind: "durability", Node: i,
				Detail: fmt.Sprintf("cold re-open failed: %v", err)})
			continue
		}
		img := ds.Recovered()
		target := n.Ledger()
		// On-disk checkpoints survive the same cold recovery scan; the
		// newest one must verify internally (certificate for its block,
		// account table hashing to the header's state root — diskstore
		// recovery already drops records that don't), lie on the
		// scenario's checkpoint grid, and checkpoint a block that is
		// byte-identical to the chain a network-caught-up peer holds.
		if chk, okC := ds.Checkpoint(); okC {
			if _, err := chk.VerifyState(); err != nil {
				vs = append(vs, Violation{Kind: "durability", Node: i, Round: chk.Round(),
					Detail: fmt.Sprintf("recovered checkpoint fails verification: %v", err)})
			} else {
				if interval := r.Scenario.Checkpoint; interval == 0 || chk.Round()%interval != 0 {
					vs = append(vs, Violation{Kind: "durability", Node: i, Round: chk.Round(),
						Detail: fmt.Sprintf("checkpoint off the configured grid (interval %d)", interval)})
				}
				if want, okW := n.Ledger().BlockAt(chk.Round()); okW && chk.Block.Hash() != want.Hash() {
					vs = append(vs, Violation{Kind: "durability", Node: i, Round: chk.Round(),
						Detail: "recovered checkpoint is not for the committed chain's block"})
				}
			}
		}
		if !allowForks && ref != nil {
			// Prefix consistency (checked separately) makes the node's
			// chain a prefix of ref, so comparing the archive against ref
			// states the invariant in its strongest form: disk equals the
			// chain a network-caught-up peer holds.
			target = ref
		}
		chain, base := n.Ledger().ChainLength(), chainBase(n.Ledger())
		for rd := uint64(1); rd <= chain; rd++ {
			if img.ShardCount > 1 && rd%img.ShardCount != img.ShardIndex {
				continue // §8.3 sharding: not this archive's round
			}
			want, ok := target.BlockAt(rd)
			if !ok {
				continue // a chain-gap violation is already reported
			}
			got, okD := img.Block(rd)
			if !okD && rd < base {
				// Fast-synced from a peer onto an empty disk: never committed
				// here. (A disk that holds rounds below the anchor is checked.)
				continue
			}
			if !okD {
				vs = append(vs, Violation{Kind: "durability", Node: i, Round: rd,
					Detail: "committed round missing from the on-disk archive"})
				continue
			}
			if !bytes.Equal(wire.Encode(got), wire.Encode(want)) {
				vs = append(vs, Violation{Kind: "durability", Node: i, Round: rd,
					Detail: "archived block is not byte-identical to the network chain"})
				continue
			}
			if cert, okC := img.Cert(rd); okC && cert.Value != got.Hash() {
				vs = append(vs, Violation{Kind: "durability", Node: i, Round: rd,
					Detail: fmt.Sprintf("archived certificate is for value %x, not the archived block",
						cert.Value[:4])})
			}
		}
		if err := ds.Close(); err != nil {
			vs = append(vs, Violation{Kind: "durability", Node: i,
				Detail: fmt.Sprintf("closing re-opened archive: %v", err)})
		}
	}
	return vs
}

package node

import "algorand/internal/ledger"

// ApplyForgedReplyForTest exposes applyChainReply for adversarial
// tests: it applies a (possibly forged) chain reply and returns the
// validation outcome.
func (n *Node) ApplyForgedReplyForTest(blocks []*ledger.Block, certs []*ledger.Certificate) (int, error) {
	return n.applyChainReply(&ChainReply{Blocks: blocks, Certs: certs, Recipient: n.ID})
}

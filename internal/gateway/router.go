package gateway

import (
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/node"
)

// Routing: senders are partitioned into Clusters deterministic
// clusters by the low four bytes of their public key — the exact
// arithmetic txflow uses to pick a mempool shard, so a sender's
// transactions always take the same path no matter which gateway
// admits them (flow-go routes collections to clusters by tx-hash the
// same way). Cluster i is served by the consensus nodes
// Consensus[j] with j ≡ i (mod Clusters); each flush unicasts the
// cluster's batch to FanOut of its members, rotating round-robin, so
// a crashed member costs redundancy, not delivery.
//
// The receiving consensus node re-admits the batch into its own
// txflow pipeline and re-gossips fresh transactions network-wide via
// its flush process, which is what gets a routed transaction into
// every proposer's mempool before the next proposal fires.

// ClusterOf maps a sender to its routing cluster.
func ClusterOf(pk crypto.PublicKey, clusters int) int {
	if clusters <= 1 {
		return 0
	}
	idx := uint64(pk[0]) | uint64(pk[1])<<8 | uint64(pk[2])<<16 | uint64(pk[3])<<24
	return int(idx % uint64(clusters))
}

// clusterMembers returns the consensus nodes serving cluster ci.
func (g *Gateway) clusterMembers(ci int) []int {
	var members []int
	for j, id := range g.cfg.Consensus {
		if j%g.cfg.Clusters == ci {
			members = append(members, id)
		}
	}
	if len(members) == 0 {
		members = g.cfg.Consensus
	}
	return members
}

// flushOnce drains freshly admitted transactions and routes them.
func (g *Gateway) flushOnce() {
	for _, batch := range g.flow.DrainOutbox(node.MaxTxBatchBytes) {
		g.route(batch)
	}
}

// route splits one drained batch by cluster and unicasts each
// cluster's slice, re-packed under the TxBatch cap, to FanOut members.
func (g *Gateway) route(txs []*ledger.Transaction) {
	if len(txs) == 0 {
		return
	}
	// A slice, not a map: clusters are served in index order, so the
	// same batch always leaves in the same order (the simulator's event
	// order, and with it a run's every number, follows from it).
	byCluster := make([][]*ledger.Transaction, g.cfg.Clusters)
	for _, tx := range txs {
		ci := ClusterOf(tx.From, g.cfg.Clusters)
		byCluster[ci] = append(byCluster[ci], tx)
	}
	for ci, group := range byCluster {
		if len(group) > 0 {
			g.sendToCluster(ci, group)
		}
	}
}

// sendToCluster packs group into ≤MaxTxBatchBytes batches and
// unicasts each to FanOut members of the cluster, rotating the
// round-robin cursor.
func (g *Gateway) sendToCluster(ci int, group []*ledger.Transaction) {
	members := g.clusterMembers(ci)
	fan := g.cfg.FanOut
	if fan > len(members) {
		fan = len(members)
	}
	var pack []*ledger.Transaction
	packBytes := 0
	emit := func() {
		if len(pack) == 0 {
			return
		}
		for k := 0; k < fan; k++ {
			target := members[(g.rr[ci]+k)%len(members)]
			g.net.Unicast(g.ID, target, &node.TxBatch{Txns: pack})
			g.c.batchesRouted.Inc()
		}
		g.rr[ci] = (g.rr[ci] + 1) % len(members)
		g.c.txsRouted.Add(uint64(len(pack)))
		g.c.bytesRouted.Add(uint64(packBytes) * uint64(fan))
		pack, packBytes = nil, 0
	}
	for _, tx := range group {
		sz := tx.WireSize()
		if packBytes+sz > node.MaxTxBatchBytes {
			emit()
		}
		pack = append(pack, tx)
		packBytes += sz
	}
	emit()
}

// resendPending re-routes transactions that are still pending in the
// gateway mempool — admitted, routed, but not yet observed in a
// committed block. It drives delivery through consensus-node crashes
// and healed partitions: Assemble orders each sender's ready
// transactions against a snapshot of the read-model balances without
// removing anything from the pool, and the resend is bounded by
// ResendBudget per tick.
func (g *Gateway) resendPending() {
	if g.flow.Len() == 0 {
		return
	}
	balances, _ := g.rm.SnapshotBalances()
	txs := g.flow.Assemble(balances, g.cfg.ResendBudget)
	if len(txs) == 0 {
		return
	}
	g.c.resent.Add(uint64(len(txs)))
	// Assemble's copies, in an array nobody writes again.
	resend := make([]*ledger.Transaction, len(txs))
	for i := range txs {
		resend[i] = &txs[i]
	}
	g.route(resend)
}

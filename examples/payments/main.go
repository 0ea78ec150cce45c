// Payments: the cryptocurrency workload from the paper's Figure 1 —
// users submit signed payments into the gossip network, proposers pack
// them into blocks, BA⋆ commits them, and a brand-new user later joins
// by validating the whole chain from genesis using the §8.3
// certificates (no trust in who served the blocks).
//
// Beyond the two named payments, this example is also the txflow load
// driver: a sustained stream of fee-paying transactions from every
// user exercises the ingestion pipeline end to end — admission,
// signature verification, the sharded fee-ordered mempool, batched
// TxBatch gossip, and priority assembly —
// and reports the committed throughput the way §10/Figure 8 does
// (payload bytes per hour). The access tier at scale — a million-plus
// client sessions through four gateways against a direct-submission
// baseline — is `go run ./cmd/experiments -run gateway`.
package main

import (
	"fmt"

	"algorand"
)

func main() {
	const users = 40
	const rounds = 6
	const txPerSecond = 40.0

	cfg := algorand.NewSimConfig(users, rounds)
	cfg.ShardCount = 1    // every node archives everything (for catch-up)
	cfg.WeightEach = 1000 // fund sustained fee-paying traffic
	cfg.Gateways = 2      // clients enter through the access tier
	cluster := algorand.NewCluster(cfg)

	// Alice (user 1) pays Bob (user 2) 7 units; Bob pays Carol 3. A
	// nonzero fee buys priority in the mempool; it is burned on commit.
	// Like all client traffic, the payments enter through a gateway —
	// consensus nodes never see a client.
	alice, bob, carol := cluster.Identity(1), cluster.Identity(2), cluster.Identity(3)
	pay := func(from algorand.Identity, to algorand.PublicKey, amount, fee, nonce uint64, via int) {
		tx := &algorand.Transaction{From: from.PublicKey(), To: to, Amount: amount, Fee: fee, Nonce: nonce}
		tx.Sign(from)
		gw := cluster.Gateway(via)
		cluster.Sim.After(0, func() {
			gw.CountSession()
			if err := gw.Submit(tx); err != nil {
				fmt.Println("submit rejected:", err)
			}
		})
	}
	pay(alice, bob.PublicKey(), 7, 2, 0, 0)
	pay(bob, carol.PublicKey(), 3, 1, 0, 1)

	// The load: every node's user keeps paying a random peer for the
	// whole run (seeded, so the example is reproducible), through the
	// access tier, honoring typed rejects and retry_after_ms hints.
	cluster.GatewayWorkload(txPerSecond, 1)
	// Plus a read-only client population querying gateway read models.
	cluster.QueryWorkload(2000, 2)

	cluster.Run()
	if err := cluster.AgreementCheck(); err != nil {
		fmt.Println("AGREEMENT VIOLATION:", err)
		return
	}

	bal := cluster.Nodes[0].Ledger().Balances()
	fmt.Printf("after %d rounds:\n", rounds)
	fmt.Printf("  alice: %d units\n", bal.MoneyOf(alice.PublicKey()))
	fmt.Printf("  bob:   %d units\n", bal.MoneyOf(bob.PublicKey()))
	fmt.Printf("  carol: %d units\n", bal.MoneyOf(carol.PublicKey()))

	// Throughput accounting, Figure 8 style: committed transactions and
	// payload over the virtual runtime.
	elapsed := cluster.Sim.Now()
	committed := cluster.CommittedTxCount(rounds)
	payload := cluster.CommittedPayloadBytes(rounds)
	fmt.Printf("committed %d txs, %.1f KB payload in %v virtual (%.1f MB/h)\n",
		committed, float64(payload)/1024, elapsed,
		float64(payload)/(1<<20)/elapsed.Hours())
	fmt.Printf("pipeline (node 0): %v\n", cluster.Nodes[0].TxFlow().Stats())

	// The access tier's books: client sessions served, edge admissions,
	// read-model progress; plus the load driver's retry discipline.
	for i := 0; i < cluster.NumGateways(); i++ {
		st := cluster.Gateway(i).Stats()
		fmt.Printf("gateway %d: sessions=%d queries=%d admitted=%d rejected=%d routed=%d head=%d pending=%d\n",
			i, st.Sessions, st.Queries, st.Admitted, st.Rejected, st.TxsRouted, st.HeadRound, st.Pending)
	}
	ws := cluster.WorkloadStats()
	fmt.Printf("load driver: submitted=%d admitted=%d retries=%d backoffs=%d stale-resyncs=%d\n",
		ws.Submitted, ws.Admitted, ws.Retries, ws.Backoffs, ws.StaleSync)

	// A new user joins: fetch blocks + certificates from node 0's
	// archive and validate everything from genesis (§8.3).
	src := cluster.Nodes[0]
	var blocks []*algorand.Block
	var certs []*algorand.Certificate
	for r := uint64(1); r <= src.Ledger().ChainLength(); r++ {
		b, _ := src.Store().Block(r)
		c, _ := src.Store().Cert(r)
		blocks = append(blocks, b)
		certs = append(certs, c)
	}
	fresh, err := algorand.CatchUp(cluster.Provider, cfg.LedgerCfg, cluster.Genesis,
		cluster.Seed0, blocks, certs, algorand.CommitteeParamsFor(cfg.Params))
	if err != nil {
		fmt.Println("catch-up failed:", err)
		return
	}
	fmt.Printf("new user bootstrapped to round %d, head %v (matches: %v)\n",
		fresh.ChainLength(), fresh.HeadHash(),
		fresh.HeadHash() == src.Ledger().HeadHash())
}

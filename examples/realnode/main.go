// Realnode: a real networked Algorand deployment in one program. Five
// nodes — each with its own wall-clock scheduler, full Ed25519+ECVRF
// cryptography, and a TCP gossip transport on loopback — reach
// Byzantine agreement, and then a sixth user joins late and bootstraps
// its ledger over the network by validating blocks against their
// certificates (§8.3), trusting no one.
//
// For a multi-process (or multi-machine) version of the same thing, see
// cmd/algorand-node.
package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/realnet"
	"algorand/internal/vtime"
)

func main() {
	const nodes = 5
	const rounds = 3

	// Wall-clock protocol parameters: ~600ms rounds.
	prm := params.Default()
	prm.TauProposer = 4
	prm.TauStep = 25
	prm.TauFinal = 50
	prm.LambdaPriority = 150 * time.Millisecond
	prm.LambdaStepVar = 100 * time.Millisecond
	prm.LambdaBlock = time.Second
	prm.LambdaStep = 500 * time.Millisecond
	prm.MaxSteps = 12
	prm.BlockSize = 4 << 10

	// Address book: bind ephemeral loopback ports. One extra slot for
	// the late joiner.
	total := nodes + 1
	listeners := make([]net.Listener, total)
	addrs := make([]string, total)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// Genesis: deterministic identities, equal balances.
	provider := crypto.NewReal()
	genesis := make(map[crypto.PublicKey]uint64)
	ids := make([]crypto.Identity, total)
	for i := range ids {
		ids[i] = provider.NewIdentity(crypto.SeedFromUint64(uint64(0xA16 + i)))
		genesis[ids[i].PublicKey()] = 10
	}
	// The late joiner is a small account: its stake is offline until it
	// syncs, and sortition weights count offline money against the
	// honest-online fraction h.
	genesis[ids[nodes].PublicKey()] = 1
	seed0 := crypto.HashBytes("realnode-example-genesis")
	cfg := node.Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}

	fmt.Printf("starting %d real TCP nodes for %d rounds...\n", nodes, rounds)
	var wg sync.WaitGroup
	sims := make([]*vtime.Sim, total)
	transports := make([]*realnet.Transport, total)
	members := make([]*node.Node, total)
	start := time.Now()
	for i := 0; i < nodes; i++ {
		i := i
		sims[i] = vtime.New().Realtime()
		transports[i] = realnet.NewWithConfig(sims[i], i, addrs, listeners[i], realnet.DefaultConfig())
		members[i] = node.New(i, sims[i], transports[i], provider, ids[i], cfg, genesis, seed0)
		members[i].StopAfterRound = rounds
		transports[i].Start()
		members[i].Start()
		sims[i].Spawn("watcher", func(p *vtime.Proc) {
			for members[i].Ledger().ChainLength() < rounds {
				p.Sleep(100 * time.Millisecond)
			}
			p.Sleep(2 * time.Second) // keep serving stragglers and the joiner
			p.Sim().Stop()
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			sims[i].Run(2 * time.Minute)
		}()
	}

	// The late joiner: waits until the network is ahead, then comes up
	// through Rejoin, as a restarted cmd/algorand-node does — peer chain,
	// then the live rounds up to StopAfterRound.
	j := nodes
	sims[j] = vtime.New().Realtime()
	transports[j] = realnet.NewWithConfig(sims[j], j, addrs, listeners[j], realnet.DefaultConfig())
	members[j] = node.New(j, sims[j], transports[j], provider, ids[j], cfg, genesis, seed0)
	members[j].StopAfterRound = rounds
	transports[j].Start()
	sims[j].Spawn("join-later", func(p *vtime.Proc) {
		p.Sleep(1500 * time.Millisecond) // let the network get ahead
		members[j].Rejoin(time.Minute)
		for deadline := p.Now() + time.Minute; p.Now() < deadline; p.Sleep(100 * time.Millisecond) {
			if members[j].Ledger().ChainLength() >= rounds {
				break
			}
		}
		p.Sim().Stop()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		sims[j].Run(2 * time.Minute)
	}()

	wg.Wait()
	for _, tr := range transports {
		tr.Close()
	}

	fmt.Printf("network finished in %v\n", time.Since(start).Round(time.Millisecond))
	for i := 0; i < nodes; i++ {
		head := members[i].Ledger().Head()
		fmt.Printf("  node %d: round %d head %v\n", i, head.Round, head.Hash())
	}
	for _, st := range members[0].Stats {
		fmt.Printf("  round %d: start=%v prop=%v binary=%v final_step=%v steps=%d final=%v\n",
			st.Round, st.Start.Round(time.Millisecond),
			(st.ProposalDone - st.Start).Round(time.Millisecond),
			(st.BinaryDone - st.ProposalDone).Round(time.Millisecond),
			(st.Finalized - st.BinaryDone).Round(time.Millisecond),
			st.BinarySteps, st.Final)
	}
	joined := members[j].Ledger().ChainLength()
	if joined < rounds {
		fmt.Printf("late joiner failed: reached round %d of %d\n", joined, rounds)
		return
	}
	fmt.Printf("late joiner synced %d rounds over TCP, head %v (matches: %v)\n",
		joined, members[j].Ledger().HeadHash(),
		members[j].Ledger().HeadHash() == members[0].Ledger().HeadHash())
}

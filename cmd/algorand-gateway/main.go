// algorand-gateway runs one real access-tier node over TCP: the
// user-facing front door between clients and an algorand-node
// deployment. Gateways occupy the LAST -gateways entries of the shared
// address book; consensus nodes run with the same book and the same
// -gateways count so everyone agrees on who votes and who fronts:
//
//	BOOK=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	algorand-node    -id 0 -peers $BOOK -gateways 1 -rounds 5 &
//	algorand-node    -id 1 -peers $BOOK -gateways 1 -rounds 5 &
//	algorand-node    -id 2 -peers $BOOK -gateways 1 -rounds 5 &
//	algorand-gateway -id 3 -peers $BOOK -gateways 1 -listen 127.0.0.1:8000 -rounds 5
//
// Clients submit transactions and run queries against -listen (the
// node -submit-addr TCP/JSON protocol plus {"op":...} queries); the
// gateway validates at the edge, gossips admitted transactions to the
// network as a node does, and answers reads from a read model that asks
// the consensus nodes in turn, once a second, for the chain past its head.
// Consensus nodes carry zero client connections. A gateway owns no stake
// and signs nothing, so it needs no identity of its own — only the shared
// genesis derivation (node.NewDeployment).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/gateway"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/node"
	"algorand/internal/realnet"
	"algorand/internal/vtime"
)

func main() {
	var (
		id       = flag.Int("id", 0, "this gateway's index in the address book (must be one of the last -gateways entries)")
		peers    = flag.String("peers", "", "comma-separated host:port address book (consensus nodes first, gateways last)")
		gateways = flag.Int("gateways", 1, "how many trailing address-book entries are gateways")
		gseed    = flag.Uint64("genesis-seed", 1, "shared genesis seed word (must match the nodes)")
		weight   = flag.Uint64("weight", 10, "currency units per user (must match the nodes)")
		listen   = flag.String("listen", "", "listen address for the client TCP/JSON endpoint (required)")
		rounds   = flag.Uint64("rounds", 0, "exit once the read model reaches this round (0 = run until killed)")
		maxConns = flag.Int("max-conns", 1024, "concurrent client connection cap")
		metricsA = flag.String("metrics-addr", "", "listen address for the Prometheus-style text metrics endpoint (empty = off)")
		verbose  = flag.Bool("v", false, "log transport errors")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	voters := len(addrs) - *gateways
	if voters < 2 || *id < voters || *id >= len(addrs) {
		fmt.Fprintln(os.Stderr, "need -peers with >=2 consensus addresses and a gateway -id in the last -gateways slots")
		os.Exit(2)
	}
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "need -listen for the client endpoint")
		os.Exit(2)
	}

	// The same derivation as algorand-node (node.NewDeployment): only the
	// first `voters` book entries are funded identities; gateways hold
	// none. The read model verifies certificates under the committee the
	// nodes run (the λ timing knobs do not enter verification).
	provider := crypto.NewReal()
	dep := node.NewDeployment(provider, *gseed, *weight, voters)

	reg := metrics.NewRegistry()
	sim := vtime.New().Realtime()
	ln, err := net.Listen("tcp", addrs[*id])
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen %s: %v\n", addrs[*id], err)
		os.Exit(1)
	}
	rcfg := realnet.DefaultConfig()
	rcfg.Metrics = reg
	transport := realnet.NewWithConfig(sim, *id, addrs, ln, rcfg)
	defer transport.Close()
	if *verbose {
		transport.OnError(func(err error) {
			fmt.Fprintf(os.Stderr, "transport: %v\n", err)
		})
	}

	cfg := gateway.Config{
		Committee: node.CommitteeParamsFor(dep.Params),
		LedgerCfg: ledger.DefaultConfig(),
		MaxConns:  *maxConns,
		Metrics:   reg,
	}
	// The TCP server submits from its own goroutines, so the pipeline
	// clock must be readable off the scheduler: use the wall clock.
	epoch := time.Now()
	cfg.Flow.Now = func() time.Duration { return time.Since(epoch) }

	gw := gateway.New(*id, sim, transport, provider, cfg, dep.Params, dep.Genesis, dep.Seed0)
	transport.Start()
	gw.Start()

	srv, err := gateway.ListenAndServe(*listen, gw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("gateway %d fronting %d consensus nodes, serving clients on %s\n",
		*id, voters, srv.Addr())

	if *metricsA != "" {
		mln, err := net.Listen("tcp", *metricsA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen %s: %v\n", *metricsA, err)
			os.Exit(1)
		}
		defer mln.Close()
		go http.Serve(mln, reg.Handler())
		fmt.Printf("gateway %d serving metrics on http://%s/\n", *id, mln.Addr())
	}

	if *rounds > 0 {
		sim.Spawn("watcher", func(p *vtime.Proc) {
			for {
				if st := gw.Stats(); st.HeadRound >= *rounds {
					// Linger so late queries still see the head.
					p.Sleep(time.Second)
					sim.Stop()
					return
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
	}
	start := time.Now()
	sim.Run(24 * time.Hour)

	st := gw.Stats()
	fmt.Printf("gateway %d finished at round %d in %v\n", *id, st.HeadRound, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  sessions=%d queries=%d submitted=%d admitted=%d rejected=%d\n",
		st.Sessions, st.Queries, st.Submitted, st.Admitted, st.Rejected)
	fmt.Printf("  routed: %d txs in %d batches (%d bytes), resent=%d\n",
		st.TxsRouted, st.BatchesRouted, st.BytesRouted, st.Resent)
	fmt.Printf("  read model: %d blocks applied, %d chain replies applied and %d applied nothing, %d cert rejects\n",
		st.BlocksApplied, st.ChainFills, st.IdleFills, st.CertRejects)
	fmt.Printf("  edge pool: %d pending (%d bytes); conn rejects=%d frame rejects=%d\n",
		st.Pending, st.PendingBytes, st.ConnRejects, st.FrameRejects)
}

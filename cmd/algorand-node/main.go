// algorand-node runs one real Algorand user over TCP: the same node
// implementation the simulator drives, on a wall-clock scheduler, with
// full Ed25519 + ECVRF cryptography. Start one process per user, give
// them all the same address book and genesis seed, and watch them reach
// Byzantine agreement:
//
//	algorand-node -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -rounds 3 &
//	algorand-node -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -rounds 3 &
//	algorand-node -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -rounds 3
//
// Identities and genesis balances derive deterministically from the
// shared -genesis-seed, standing in for the paper's bootstrapping
// ceremony (§8.3); each process owns the identity at its -id.
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
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/metrics"
	"algorand/internal/node"
	"algorand/internal/realnet"
	"algorand/internal/trace"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

func main() {
	var (
		id       = flag.Int("id", 0, "this node's index in the address book")
		peers    = flag.String("peers", "", "comma-separated host:port address book (all nodes, in order)")
		rounds   = flag.Uint64("rounds", 3, "rounds to run before exiting")
		gseed    = flag.Uint64("genesis-seed", 1, "shared genesis seed word")
		weight   = flag.Uint64("weight", 10, "currency units per user")
		lambdaMS = flag.Int("lambda-ms", 500, "λ_step in milliseconds (other λs scale with it)")
		verbose  = flag.Bool("v", false, "log transport errors")
		stats    = flag.Bool("stats", false, "print per-peer transport statistics on exit")
		statsSec = flag.Int("stats-interval", 0, "print a unified stats snapshot (rounds, BA⋆, pipeline, transport, disk) every N seconds (0 = off)")
		metricsA = flag.String("metrics-addr", "", "listen address for the Prometheus-style text metrics endpoint (empty = off)")
		submit   = flag.String("submit-addr", "", "listen address for the TCP/JSON transaction submission endpoint (empty = off)")
		workers  = flag.Int("tx-workers", 4, "signature-verification workers for gossip batches (0 = verify inline)")
		dataDir  = flag.String("data-dir", "", "directory for the durable WAL archive; restarts recover the chain from it (empty = in-memory only)")
		chkEvery = flag.Uint64("checkpoint-interval", 0, "journal a certified state checkpoint every N rounds; a restart re-bases onto the newest verified one on disk, a late joiner with an empty -data-dir onto a peer's, and replays only the delta (0 = off, needs -data-dir)")
		gateways = flag.Int("gateways", 0, "how many trailing address-book entries are access-tier gateways (run algorand-gateway there)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	// Gateways occupy the tail of the book: they are in the transport's
	// address space but hold no stake and never vote. Parameters and
	// genesis scale with the voters only.
	voters := len(addrs) - *gateways
	if voters < 2 || *id < 0 || *id >= voters {
		fmt.Fprintln(os.Stderr, "need -peers with >=2 consensus addresses and a consensus -id (gateway slots run algorand-gateway)")
		os.Exit(2)
	}

	// Identities, genesis, committee and block sizes derive from the
	// shared seed word; the step timeout is this deployment's choice.
	provider := crypto.NewReal()
	dep := node.NewDeployment(provider, *gseed, *weight, voters)
	step := time.Duration(*lambdaMS) * time.Millisecond
	prm := dep.Params
	prm.LambdaStep = step
	prm.LambdaPriority = step / 2
	prm.LambdaStepVar = step / 4
	prm.LambdaBlock = 2 * step
	self := dep.Identities[*id]

	// One registry for the whole process: the transport, the durable
	// archive, and the node (BA⋆ counters, round outcomes, trace phase
	// histograms, the tx pipeline) all record here, so the metrics
	// endpoint and the periodic snapshot see every subsystem at once.
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

	cfg := node.Config{Params: prm, LedgerCfg: ledger.DefaultConfig()}
	cfg.TxFlowWorkers = *workers
	// The RPC server submits from its own goroutines, so the pipeline
	// clock must be readable off the scheduler: use the wall clock.
	epoch := time.Now()
	cfg.TxFlow.Now = func() time.Duration { return time.Since(epoch) }
	cfg.Metrics = reg
	// Round spans on the wall clock.
	cfg.Tracer = trace.New(func() time.Duration { return time.Since(epoch) }, 0)

	// Durable archive: every commit journals through the WAL before the
	// node proceeds, and a restart recovers the chain from it (see Rejoin
	// below).
	var archive *diskstore.Store
	if *dataDir != "" {
		archive, err = diskstore.Open(*dataDir, diskstore.Options{Metrics: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening data dir: %v\n", err)
			os.Exit(1)
		}
		defer archive.Close()
		cfg.Archive = archive
		cfg.CheckpointInterval = *chkEvery
	}

	nd := node.New(*id, sim, transport, provider, self, cfg, dep.Genesis, dep.Seed0)
	nd.StopAfterRound = *rounds

	pk := self.PublicKey()
	fmt.Printf("node %d listening on %s (pk %s), running %d rounds...\n",
		*id, transport.Addr(), pk, *rounds)

	transport.Start()
	if archive != nil {
		// A node with a data directory may be a restart or a late joiner:
		// own checkpoint, own archive, peer snapshot if the disk held
		// nothing, delta catch-up, then the rounds.
		restored, err := nd.Rejoin(time.Minute)
		if err != nil {
			fmt.Fprintf(os.Stderr, "archive restore: %v\n", err)
			os.Exit(1)
		}
		if reg.Snapshot()["algorand_node_snapshot_rejects_total"].Value > 0 {
			fmt.Fprintf(os.Stderr, "node %d: on-disk checkpoint rejected, replayed the full archive\n", *id)
		}
		st := archive.Stats()
		fmt.Printf("node %d recovered to round %d from %s (%d rounds replayed, %d records, %d bytes truncated, %d dropped)\n",
			*id, nd.Ledger().ChainLength(), *dataDir, restored, st.RecoveredRecords, st.TruncatedBytes, st.DroppedRecords)
	} else {
		nd.Start()
	}
	defer nd.TxFlow().Close()
	if *submit != "" {
		srv, err := txflow.ListenAndServe(*submit, nd.TxFlow())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("node %d accepting transactions on %s\n", *id, srv.Addr())
	}
	if *metricsA != "" {
		mln, err := net.Listen("tcp", *metricsA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen %s: %v\n", *metricsA, err)
			os.Exit(1)
		}
		defer mln.Close()
		go http.Serve(mln, reg.Handler())
		fmt.Printf("node %d serving metrics on http://%s/\n", *id, mln.Addr())
	}
	if *statsSec > 0 {
		every := time.Duration(*statsSec) * time.Second
		sim.Spawn("stats", func(p *vtime.Proc) {
			for {
				p.Sleep(every)
				printUnifiedStats(reg, transport, nd, archive != nil)
			}
		})
	}
	// Stop once done, lingering briefly to serve lagging peers.
	sim.Spawn("watcher", func(p *vtime.Proc) {
		for nd.Ledger().ChainLength() < *rounds {
			p.Sleep(100 * time.Millisecond)
		}
		p.Sleep(2 * prm.LambdaStep)
		sim.Stop()
	})
	start := time.Now()
	sim.Run(10 * time.Minute)

	fmt.Printf("node %d finished %d rounds in %v\n", *id, nd.Ledger().ChainLength(), time.Since(start).Round(time.Millisecond))
	for _, st := range nd.Stats {
		status := "tentative"
		if st.Final {
			status = "FINAL"
		}
		kind := "block"
		if st.Empty {
			kind = "empty"
		}
		fmt.Printf("  round %d: %s %v (%s, %d binary steps, %v)\n",
			st.Round, kind, st.Value, status, st.BinarySteps, (st.End - st.Start).Round(time.Millisecond))
	}
	head := nd.Ledger().Head()
	fmt.Printf("head: round %d hash %s\n", head.Round, head.Hash().Hex()[:16])
	snap := reg.Snapshot()
	if chk, ok := nd.Checkpoint(); ok && snap["algorand_node_snapshot_syncs_total"].Value > 0 {
		fmt.Printf("fast-synced from a peer's checkpoint (newest held: round %d)\n", chk.Round())
	}
	for _, ph := range []trace.Phase{trace.PhasePropose, trace.PhaseBAStep, trace.PhaseCommit, trace.PhasePersist} {
		if v := snap[metrics.Name("algorand_trace_phase_seconds", "phase", string(ph))]; v.Count > 0 {
			fmt.Printf("phase %-8s n=%-4d p50=%.1fms p90=%.1fms p99=%.1fms\n", ph, v.Count,
				1e3*v.Q["p50"], 1e3*v.Q["p90"], 1e3*v.Q["p99"])
		}
	}
	ts := transport.Stats()
	connected, quarantined := 0, 0
	var drops, redials uint64
	for _, p := range ts.Peers {
		if p.Connected {
			connected++
		}
		if p.Quarantined {
			quarantined++
		}
		drops, redials = drops+p.QueueDrops, redials+p.Redials
	}
	fmt.Printf("transport: %d/%d peers connected, %d quarantined, %d queue drops, %d redials\n",
		connected, len(ts.Peers), quarantined, drops, redials)
	fmt.Printf("%s\n", nd.TxFlow().Stats())
	if *stats {
		fmt.Printf("%s\n", ts)
	}
}

// printUnifiedStats renders one periodic observability snapshot to
// stderr. The headline lines come from a single registry Snapshot() —
// rounds, BA⋆ steps, trace percentiles, pipeline, transport and disk
// all read at the same instant — followed by the typed per-peer
// transport detail (queues, scores, quarantine state) the registry
// does not carry.
func printUnifiedStats(reg *metrics.Registry, transport *realnet.Transport, nd *node.Node, haveDisk bool) {
	snap := reg.Snapshot()
	c := func(name string) uint64 { return uint64(snap[name].Value) }
	fmt.Fprintf(os.Stderr, "-- rounds: total=%d final=%d empty=%d | ba: steps=%d timeouts=%d votes_cast=%d votes_counted=%d\n",
		c("algorand_node_rounds_total"), c("algorand_node_rounds_final_total"), c("algorand_node_rounds_empty_total"),
		c("algorand_ba_steps_total"), c("algorand_ba_step_timeouts_total"),
		c("algorand_ba_votes_cast_total"), c("algorand_ba_votes_counted_total"))
	if v, ok := snap[metrics.Name("algorand_trace_phase_seconds", "phase", string(trace.PhaseRound))]; ok && v.Count > 0 {
		fmt.Fprintf(os.Stderr, "-- round latency: n=%d p50=%.2fs p90=%.2fs p99=%.2fs\n",
			v.Count, v.Q["p50"], v.Q["p90"], v.Q["p99"])
	}
	fmt.Fprintf(os.Stderr, "-- txflow: admitted=%d verified=%d pending=%d dups=%d\n",
		c("algorand_txflow_admitted_total"), c("algorand_txflow_verified_total"),
		c("algorand_txflow_pending"),
		c(metrics.Name("algorand_txflow_rejected_total", "reason", "duplicate")))
	if haveDisk {
		fmt.Fprintf(os.Stderr, "-- disk: appends=%d rotations=%d write_errors=%d sync_errors=%d persist_errors=%d\n",
			c("algorand_disk_appends_total"), c("algorand_disk_rotations_total"),
			c("algorand_disk_write_errors_total"), c("algorand_disk_sync_errors_total"),
			c("algorand_node_persist_errors_total"))
	}
	fmt.Fprintf(os.Stderr, "%s\n", transport.Stats())
	fmt.Fprintf(os.Stderr, "%s\n", nd.TxFlow().Stats())
}

// Package gateway is the access tier: user-facing front-door nodes
// that sit between clients and the consensus cluster, the archetype
// the paper's deployment sketch needs to serve its claimed 500k users
// (§10) without every client connection landing on a BA⋆ hot path.
//
// A gateway
//
//   - accepts Submit/SubmitBatch plus query RPCs (tx status, balance,
//     block-by-round) over the same TCP/JSON protocol as the node's
//     -submit-addr endpoint (see Server);
//   - validates signatures and nonces at the edge by reusing the
//     txflow pipeline verbatim — structural checks, the TTL'd
//     verified-signature cache, duplicate and stale-nonce filters,
//     per-sender rate windows, bounded pools with typed rejects and
//     retry_after_ms hints;
//   - hands admitted transactions to the network the way a node does,
//     as TxBatch gossip, and floods again what is still pending three
//     applied rounds later (see resendPending);
//   - answers queries from a lag-tolerant read model that asks its
//     neighbours in turn for the chain past its head, as a node that
//     is behind does (§8.3), applying only blocks whose BA⋆
//     certificates verify against the committee — never by calling
//     into a consensus node's lock (see readmodel.go).
//
// Consensus nodes carry zero client connections: clients talk to
// gateways, gateways talk consensus-gossip. A gateway holds no stake,
// proposes nothing, and votes on nothing — it can crash, restart, or
// be partitioned without touching safety, and every structure it
// keeps (mempool, rate windows, read-model indexes, connection set)
// is explicitly bounded.
package gateway

import (
	"strconv"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/network"
	"algorand/internal/node"
	"algorand/internal/params"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// Config assembles a gateway. The zero value of every sizing field
// gets a sensible default.
type Config struct {
	// Committee configures BA⋆ certificate verification in the read
	// model (DESIGN.md, "Accepting a block you did not agree on"). It
	// must match the consensus cluster's protocol parameters (see
	// node.CommitteeParamsFor). The zero value verifies nothing and
	// therefore applies nothing — a misconfigured gateway fails safe.
	Committee ledger.CommitteeParams
	// LedgerCfg mirrors the consensus nodes' ledger configuration
	// (seed refresh interval, look-back distance, timestamp skew); the
	// read model's chain replica needs it to derive the same sortition
	// seeds and look-back weights the committee used.
	LedgerCfg ledger.Config
	// Flow sizes the edge admission pipeline (see txflow.Config).
	// Unless Flow.Now is set, the pipeline clock is the simulator's.
	Flow txflow.Config
	// FlowWorkers, when positive, starts that many background
	// signature-verification workers (real deployments). Zero keeps
	// admission synchronous, which the deterministic simulator needs.
	FlowWorkers int

	// MaxConns caps concurrently served client connections; excess
	// connections get a typed reject with a retry hint and are closed.
	// Default 1024. The endpoint's other bounds are txflow.Limits'
	// defaults.
	MaxConns int

	// Done, when non-nil, reports that the consensus cluster has wound
	// down; the gateway's background processes exit so a simulation
	// drains instead of running to horizon.
	Done func() bool
	// Metrics receives the gateway's counters and gauges
	// (algorand_gateway_*) plus the embedded txflow pipeline's, unless
	// Flow.Metrics overrides the latter. Nil gets a private registry.
	Metrics *metrics.Registry
}

const (
	// flushInterval is how often freshly admitted transactions leave as
	// TxBatch gossip: a node's txFlushPeriod at the paper's λ_priority.
	flushInterval = 250 * time.Millisecond
	// askInterval is how often the gateway asks a neighbour for the chain
	// past its read model's head.
	askInterval = time.Second
	// resendAfter is how many applied rounds a payment may stay pending
	// before the gateway floods it again. Three rounds are past a
	// fault-free confirmation, so only a payment a crash or partition
	// lost is sent twice.
	resendAfter = 3
	// resendBudget bounds the bytes one resend floods.
	resendBudget = 256 << 10
)

// A chain reply the gateway took applied a block, or applied none; the
// labelled names are rendered once.
var (
	fillsAppliedName = metrics.Name("algorand_gateway_chain_fills_total", "applied", "true")
	fillsIdleName    = metrics.Name("algorand_gateway_chain_fills_total", "applied", "false")
)

const fillsHelp = "chain replies taken, by whether they applied a block"

// Gateway is one access-tier node.
type Gateway struct {
	ID  int
	cfg Config

	sim  *vtime.Sim
	net  node.Transport
	flow *txflow.Flow
	rm   *ReadModel

	// nextPeer counts the chain requests sent, so each goes to the next
	// neighbour in turn.
	nextPeer  int
	askBlocks int // blocks a chain request asks for, as a node's (node.ChainAsk)
	// asked files the chain requests out, so no neighbour can buy a
	// certificate verification with a ChainReply nobody asked for.
	asked node.Requests

	halted bool

	reg *metrics.Registry
	c   gwCounters
}

type gwCounters struct {
	submitted, admitted, rejected *metrics.Counter
	queries                       *metrics.Counter
	batchesRouted, txsRouted      *metrics.Counter
	bytesRouted, resent           *metrics.Counter
	blocksApplied, certRejects    *metrics.Counter
	fillsApplied, fillsIdle       *metrics.Counter
	connRejects, frameRejects     *metrics.Counter
	sessions                      *metrics.Counter
}

// New builds a gateway with network identity id. The genesis account
// map and seed0 must match the consensus cluster's, so the read model
// starts from the same genesis block hash and balances the ledger
// derives. The caller wires the transport handler by calling Start.
func New(id int, sim *vtime.Sim, net node.Transport, provider crypto.Provider, cfg Config, p params.Params, genesis map[crypto.PublicKey]uint64, seed0 crypto.Digest) *Gateway {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Flow.Metrics == nil {
		cfg.Flow.Metrics = reg
	}
	if cfg.Flow.Now == nil {
		cfg.Flow.Now = sim.Now
	}
	g := &Gateway{
		ID:   id,
		cfg:  cfg,
		sim:  sim,
		net:  net,
		flow: txflow.New(provider, cfg.Flow),
		rm:   NewReadModel(provider, cfg.LedgerCfg, cfg.Committee, genesis, seed0, sim.Now),
		reg:  reg,
	}
	g.askBlocks = node.ChainAsk(p)
	g.c = gwCounters{
		submitted:     reg.Counter("algorand_gateway_submitted_total", "transactions offered to the gateway"),
		admitted:      reg.Counter("algorand_gateway_admitted_total", "transactions admitted at the edge"),
		rejected:      reg.Counter("algorand_gateway_rejected_total", "transactions rejected at the edge"),
		queries:       reg.Counter("algorand_gateway_queries_total", "read-model queries answered"),
		batchesRouted: reg.Counter("algorand_gateway_batches_routed_total", "TxBatch messages gossiped"),
		txsRouted:     reg.Counter("algorand_gateway_txs_routed_total", "transactions gossiped, resends included"),
		bytesRouted:   reg.Counter("algorand_gateway_bytes_routed_total", "encoded TxBatch bytes gossiped"),
		resent:        reg.Counter("algorand_gateway_resent_total", "pending transactions gossiped again after resendAfter applied rounds"),
		blocksApplied: reg.Counter("algorand_gateway_blocks_applied_total", "committed blocks applied to the read model"),
		fillsApplied:  reg.Counter(fillsAppliedName, fillsHelp),
		fillsIdle:     reg.Counter(fillsIdleName, fillsHelp),
		certRejects:   reg.Counter("algorand_gateway_cert_rejects_total", "fetched chain runs rejected for failing certificate verification"),
		connRejects:   reg.Counter("algorand_gateway_conn_rejects_total", "connections rejected at the connection cap"),
		frameRejects:  reg.Counter("algorand_gateway_frame_rejects_total", "frames rejected as oversized or malformed"),
		sessions:      reg.Counter("algorand_gateway_sessions_total", "client sessions served (connections and virtual sessions)"),
	}
	reg.GaugeFunc("algorand_gateway_head_round", "read-model head round",
		func() float64 { r, _ := g.rm.Head(); return float64(r) })
	reg.GaugeFunc("algorand_gateway_pending", "transactions pending in the gateway mempool",
		func() float64 { return float64(g.flow.Len()) })
	return g
}

// Flow exposes the edge admission pipeline (the real-deployment server
// starts its workers; tests inspect its stats).
func (g *Gateway) Flow() *txflow.Flow { return g.flow }

// ReadModel exposes the query surface.
func (g *Gateway) ReadModel() *ReadModel { return g.rm }

// Registry exposes the gateway's metrics registry.
func (g *Gateway) Registry() *metrics.Registry { return g.reg }

// Start registers the transport handler and spawns the flush process.
func (g *Gateway) Start() {
	g.flow.Start(g.cfg.FlowWorkers)
	g.net.SetHandler(g.ID, network.HandlerFunc(g.handleMessage))
	g.sim.Spawn("gateway-"+strconv.Itoa(g.ID), g.run)
}

// Close stops the edge pipeline's worker pool (if FlowWorkers started
// one). The gateway remains usable synchronously.
func (g *Gateway) Close() { g.flow.Close() }

// Halt simulates a gateway crash: it stops handling messages and its
// background process winds down. Clients of a halted gateway fail
// over to another; consensus is untouched.
func (g *Gateway) Halt() { g.halted = true }

// Submit offers one signed transaction at the edge. It returns nil on
// admission or a typed txflow error (ErrDuplicate, ErrStaleNonce,
// ErrBadSig, ErrRateLimited, ...) — use txflow.RetryAfterHint for the
// backoff hint on load-shedding rejects.
func (g *Gateway) Submit(tx *ledger.Transaction) error {
	g.c.submitted.Inc()
	if err := g.flow.Submit(tx); err != nil {
		g.c.rejected.Inc()
		return err
	}
	g.c.admitted.Inc()
	g.rm.NotePending(tx.ID())
	return nil
}

// SubmitBatch offers a batch; the i-th error corresponds to txs[i].
func (g *Gateway) SubmitBatch(txs []*ledger.Transaction) []error {
	g.c.submitted.Add(uint64(len(txs)))
	errs := g.flow.SubmitBatch(txs)
	for i, err := range errs {
		if err != nil {
			g.c.rejected.Inc()
			continue
		}
		g.c.admitted.Inc()
		g.rm.NotePending(txs[i].ID())
	}
	return errs
}

// CountSession bumps the served-session counter for sessions that do
// not arrive over a real socket (the load driver's virtual sessions).
func (g *Gateway) CountSession() { g.c.sessions.Inc() }

// QuerySession serves one simulated read-only client session: connect,
// ask for the chain head and an account's balance, disconnect. It does
// the same read-model work the TCP query path does and counts toward
// the session and query totals, so simulated client populations and
// socket clients share one set of books.
func (g *Gateway) QuerySession(pk crypto.PublicKey) (money, nonce, asOfRound uint64) {
	g.c.sessions.Inc()
	g.c.queries.Add(2)
	g.rm.Head()
	return g.rm.Balance(pk)
}

// handleMessage takes the chain replies the gateway asked for. Gateways
// never relay: they are leaves of the gossip graph.
func (g *Gateway) handleMessage(from int, m network.Message) network.Verdict {
	if msg, ok := m.(*node.ChainReply); ok && !g.halted && g.asked.Take(from, node.TagChainReply) {
		g.applyRun(msg.Blocks, msg.Certs)
	}
	return network.Verdict{}
}

// askChain asks the next neighbour in turn for the chain past the read
// model's head. A neighbour with nothing past it sends nothing; blocks
// arrive with their certificates, and only those can move the head.
func (g *Gateway) askChain() {
	peers := g.net.Neighbors(g.ID)
	if len(peers) == 0 {
		return
	}
	peer := peers[g.nextPeer%len(peers)]
	g.nextPeer++
	head, _ := g.rm.Head()
	g.asked.File(peer, node.TagChainReply)
	g.net.Unicast(g.ID, peer, &node.ChainRequest{FromRound: head + 1, MaxBlocks: g.askBlocks})
}

// applyRun advances the read model through a fetched chain run and,
// for each block that actually committed (certificate verified),
// clears its transactions from the gateway mempool so they are
// neither re-sent nor re-admitted. A run that moved the head then
// paces the resend.
func (g *Gateway) applyRun(blocks []*ledger.Block, certs []*ledger.Certificate) {
	applied, balances, err := g.rm.ApplyRun(blocks, certs)
	if err != nil {
		g.c.certRejects.Inc()
	}
	if len(applied) > 0 {
		g.c.fillsApplied.Inc()
	} else {
		g.c.fillsIdle.Inc()
	}
	for _, b := range applied {
		g.c.blocksApplied.Inc()
		// Nonce floors + pending eviction, same call the node makes on
		// commit. balances is the read model's post-run state.
		g.flow.Committed(b, balances)
	}
	if len(applied) > 0 {
		g.resendPending(balances, applied[len(applied)-1].Round)
	}
}

// resendPending floods again the payments still pending in the gateway
// mempool that were admitted at least resendAfter applied rounds before
// head: a flood a crash or a partition swallowed. The chain paces it, not
// a clock: a payment younger than that may still be on its way into a
// block. Assemble orders each sender's ready payments against the read
// model's balances without removing anything from the pool, within
// resendBudget, and a payment sent again counts as admitted at head, so
// one that stays pending goes out every resendAfter rounds.
func (g *Gateway) resendPending(balances *ledger.Balances, head uint64) {
	if g.flow.Len() == 0 {
		return
	}
	txs := g.flow.Assemble(balances, resendBudget)
	var resend []*ledger.Transaction
	for i := range txs {
		id := txs[i].ID()
		// An id the status index has aged out has been pending for minutes.
		if at, ok := g.rm.pendingSince(id); ok && at+resendAfter > head {
			continue
		}
		g.rm.NotePending(id)
		// Assemble's copies, in an array nobody writes again.
		resend = append(resend, &txs[i])
	}
	g.c.resent.Add(uint64(len(resend)))
	g.gossip(txflow.Batches(resend, node.MaxTxBatchBytes))
}

// flushOnce gossips freshly admitted transactions.
func (g *Gateway) flushOnce() {
	g.gossip(g.flow.DrainOutbox(node.MaxTxBatchBytes))
}

// gossip hands each batch to the network as one TxBatch, as a node's
// flush does: the next proposer is secret until it reveals itself, so
// every payment goes to everyone.
func (g *Gateway) gossip(batches [][]*ledger.Transaction) {
	for _, batch := range batches {
		m := &node.TxBatch{Txns: batch}
		g.net.Gossip(g.ID, m)
		g.c.batchesRouted.Inc()
		g.c.txsRouted.Add(uint64(len(batch)))
		g.c.bytesRouted.Add(uint64(m.WireSize()))
	}
}

// run is the gateway's background process: flush admitted transactions
// every flushInterval, ask for the chain every askInterval, and wind down
// when the cluster is done.
func (g *Gateway) run(p *vtime.Proc) {
	for wake := 1; ; wake++ {
		p.Sleep(flushInterval)
		if g.sim.Stopped() || (g.cfg.Done != nil && g.cfg.Done()) {
			return
		}
		if g.halted {
			continue
		}
		g.flushOnce()
		if wake%int(askInterval/flushInterval) == 0 {
			g.askChain()
		}
	}
}

// Stats is a point-in-time snapshot of the gateway's registry-backed
// counters plus the embedded pipeline's.
type Stats struct {
	Submitted, Admitted, Rejected         int64
	Queries, Sessions                     int64
	BatchesRouted, TxsRouted, BytesRouted int64
	Resent                                int64
	BlocksApplied, CertRejects            int64
	// ChainFills counts the chain replies taken that applied a block,
	// IdleFills those that applied none.
	ChainFills, IdleFills     int64
	ConnRejects, FrameRejects int64
	HeadRound                 uint64
	Pending                   int
	PendingBytes              int
	Flow                      txflow.Stats
}

// Stats snapshots the gateway.
func (g *Gateway) Stats() Stats {
	head, _ := g.rm.Head()
	return Stats{
		Submitted:     int64(g.c.submitted.Load()),
		Admitted:      int64(g.c.admitted.Load()),
		Rejected:      int64(g.c.rejected.Load()),
		Queries:       int64(g.c.queries.Load()),
		Sessions:      int64(g.c.sessions.Load()),
		BatchesRouted: int64(g.c.batchesRouted.Load()),
		TxsRouted:     int64(g.c.txsRouted.Load()),
		BytesRouted:   int64(g.c.bytesRouted.Load()),
		Resent:        int64(g.c.resent.Load()),
		BlocksApplied: int64(g.c.blocksApplied.Load()),
		ChainFills:    int64(g.c.fillsApplied.Load()),
		IdleFills:     int64(g.c.fillsIdle.Load()),
		CertRejects:   int64(g.c.certRejects.Load()),
		ConnRejects:   int64(g.c.connRejects.Load()),
		FrameRejects:  int64(g.c.frameRejects.Load()),
		HeadRound:     head,
		Pending:       g.flow.Len(),
		PendingBytes:  g.flow.PendingBytes(),
		Flow:          g.flow.Stats(),
	}
}

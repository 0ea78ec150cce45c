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
//   - deterministically routes each admitted transaction by
//     sender-hash to a cluster of consensus nodes and coalesces
//     submissions into TxBatch gossip (see router.go);
//   - answers queries from a lag-tolerant read model fed by
//     CommitAnnounce gossip, applying only blocks whose BA⋆
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
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// Config assembles a gateway. The zero value of every sizing field
// gets a sensible default.
type Config struct {
	// Consensus lists the network ids of the consensus nodes this
	// gateway routes transactions to and fetches blocks from. Required.
	Consensus []int
	// Clusters partitions senders into deterministic routing clusters
	// (cluster = low 4 bytes of the sender key mod Clusters, the same
	// arithmetic txflow uses for mempool sharding, so every gateway
	// routes a given sender identically). Default min(4, len(Consensus)).
	Clusters int
	// FanOut is how many consensus members of a cluster each flushed
	// batch is sent to (redundancy against a crashed or partitioned
	// member). Default 2.
	FanOut int
	// FlushInterval is how often freshly admitted transactions are
	// coalesced into TxBatch unicasts toward their clusters.
	// Default 250ms.
	FlushInterval time.Duration
	// ResendInterval is how often transactions still pending in the
	// gateway mempool (admitted but not yet observed committed) are
	// re-sent toward their clusters — the recovery path after a routed
	// batch died with a crashed consensus node or a partition.
	// Default 10s.
	ResendInterval time.Duration
	// ResendBudget bounds the bytes re-sent per ResendInterval tick.
	// Default 256 KiB.
	ResendBudget int
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
	// RecentBlocks bounds the ring of full blocks retained for
	// block-by-round queries. Default 64.
	RecentBlocks int
	// StatusTTL bounds how long committed and pending transaction ids
	// are queryable in the status index (a TTL'd two-generation cache,
	// not an unbounded map). Entries live between TTL and 2×TTL.
	// Default 5 minutes.
	StatusTTL time.Duration
	// Flow sizes the edge admission pipeline (see txflow.Config).
	// Unless Flow.Now is set, the pipeline clock is the simulator's.
	Flow txflow.Config
	// FlowWorkers, when positive, starts that many background
	// signature-verification workers (real deployments). Zero keeps
	// admission synchronous, which the deterministic simulator needs.
	FlowWorkers int

	// MaxConns caps concurrently served client connections; excess
	// connections get a typed reject with a retry hint and are closed.
	// Default 1024.
	MaxConns int
	// ConnRetryAfter is the retry_after_ms hint attached to
	// connection-cap rejects. Default 1s.
	ConnRetryAfter time.Duration
	// MaxFrameBytes bounds one newline-delimited request frame; larger
	// frames get a typed error and the connection is closed.
	// Default 1 MiB.
	MaxFrameBytes int
	// IdleTimeout reaps half-open connections: a connection that sends
	// nothing for this long is closed. Default 2 minutes.
	IdleTimeout time.Duration

	// Done, when non-nil, reports that the consensus cluster has wound
	// down; the gateway's background processes exit so a simulation
	// drains instead of running to horizon.
	Done func() bool
	// Metrics receives the gateway's counters and gauges
	// (algorand_gateway_*) plus the embedded txflow pipeline's, unless
	// Flow.Metrics overrides the latter. Nil gets a private registry.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if len(c.Consensus) > 0 && c.Clusters > len(c.Consensus) {
		c.Clusters = len(c.Consensus)
	}
	if c.FanOut <= 0 {
		c.FanOut = 2
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 250 * time.Millisecond
	}
	if c.ResendInterval <= 0 {
		c.ResendInterval = 10 * time.Second
	}
	if c.ResendBudget <= 0 {
		c.ResendBudget = 256 << 10
	}
	if c.RecentBlocks <= 0 {
		c.RecentBlocks = 64
	}
	if c.StatusTTL <= 0 {
		c.StatusTTL = 5 * time.Minute
	}
	return c
}

// Gateway is one access-tier node.
type Gateway struct {
	ID  int
	cfg Config

	sim  *vtime.Sim
	net  node.Transport
	flow *txflow.Flow
	rm   *ReadModel

	// Round-robin cursors, one per cluster, so successive flushes
	// rotate across a cluster's members.
	rr []int
	// resendAt is the virtual time of the next pending-tx resend.
	resendAt time.Duration

	// fetchedAt tracks outstanding chain fetches (keyed by starting
	// round) so one gap does not turn every announce into a request.
	fetchedAt map[crypto.Digest]time.Duration
	// reqNonce numbers chain requests. Like the node's it starts at the
	// scheduler's epoch: a gateway restarted within the peers' duplicate
	// window would otherwise repeat its predecessor's request ids and
	// have its first chain fill dropped.
	reqNonce uint64

	halted bool

	reg *metrics.Registry
	c   gwCounters
}

type gwCounters struct {
	submitted, admitted, rejected          *metrics.Counter
	queries                                *metrics.Counter
	batchesRouted, txsRouted               *metrics.Counter
	bytesRouted, resent                    *metrics.Counter
	announces, blocksApplied               *metrics.Counter
	chainFills, certRejects, staleAnnounce *metrics.Counter
	connRejects, frameRejects              *metrics.Counter
	sessions                               *metrics.Counter
}

// New builds a gateway with network identity id. The genesis account
// map and seed0 must match the consensus cluster's, so the read model
// starts from the same genesis block hash and balances the ledger
// derives. The caller wires the transport handler by calling Start.
func New(id int, sim *vtime.Sim, net node.Transport, provider crypto.Provider, cfg Config, genesis map[crypto.PublicKey]uint64, seed0 crypto.Digest) *Gateway {
	cfg = cfg.withDefaults()
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
		rm: NewReadModel(provider, cfg.LedgerCfg, cfg.Committee, genesis, seed0,
			cfg.RecentBlocks, cfg.StatusTTL, sim.Now),
		rr:        make([]int, cfg.Clusters),
		fetchedAt: make(map[crypto.Digest]time.Duration),
		reqNonce:  sim.Epoch(),
		reg:       reg,
	}
	g.c = gwCounters{
		submitted:     reg.Counter("algorand_gateway_submitted_total", "transactions offered to the gateway"),
		admitted:      reg.Counter("algorand_gateway_admitted_total", "transactions admitted at the edge"),
		rejected:      reg.Counter("algorand_gateway_rejected_total", "transactions rejected at the edge"),
		queries:       reg.Counter("algorand_gateway_queries_total", "read-model queries answered"),
		batchesRouted: reg.Counter("algorand_gateway_batches_routed_total", "TxBatch unicasts sent toward clusters"),
		txsRouted:     reg.Counter("algorand_gateway_txs_routed_total", "transactions routed toward clusters"),
		bytesRouted:   reg.Counter("algorand_gateway_bytes_routed_total", "encoded transaction bytes routed"),
		resent:        reg.Counter("algorand_gateway_resent_total", "pending transactions re-sent after ResendInterval"),
		announces:     reg.Counter("algorand_gateway_commit_announces_total", "CommitAnnounce messages observed"),
		blocksApplied: reg.Counter("algorand_gateway_blocks_applied_total", "committed blocks applied to the read model"),
		chainFills:    reg.Counter("algorand_gateway_chain_fills_total", "gap-filling chain requests issued"),
		certRejects:   reg.Counter("algorand_gateway_cert_rejects_total", "fetched chain runs rejected for failing certificate verification"),
		staleAnnounce: reg.Counter("algorand_gateway_stale_announces_total", "announces at or below the read-model head"),
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

// Resume undoes Halt (a restarted gateway keeps its read model; a
// truly cold restart would rebuild it from a fresh New).
func (g *Gateway) Resume() { g.halted = false }

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

// handleMessage consumes consensus gossip relevant to the access
// tier. Gateways never relay: they are leaves of the gossip graph.
func (g *Gateway) handleMessage(from int, m network.Message) network.Verdict {
	if g.halted {
		return network.Verdict{}
	}
	switch msg := m.(type) {
	case *node.CommitAnnounce:
		g.c.announces.Inc()
		g.observeAnnounce(msg)
	case *node.ChainReply:
		if msg.Recipient == g.ID {
			g.applyRun(msg.Blocks, msg.Certs)
		}
	}
	return network.Verdict{}
}

// observeAnnounce feeds one commit announcement to the read model and
// issues whatever fetch it asks for. Block bodies always arrive as
// ChainReply runs — the certificates ride along, and only they can
// move the head.
func (g *Gateway) observeAnnounce(msg *node.CommitAnnounce) {
	act := g.rm.Observe(msg.Round)
	if act.Kind != FetchChain {
		g.c.staleAnnounce.Inc()
		return
	}
	now := g.sim.Now()
	// One outstanding fetch per starting round per second: every
	// consensus neighbor announces every round, and each announce
	// would otherwise re-request the same run.
	key := crypto.HashUint64("gateway.chainfill", act.FromRound)
	if at, ok := g.fetchedAt[key]; ok && now-at < time.Second {
		return
	}
	g.fetchedAt[key] = now
	g.gcFetches(now)
	g.c.chainFills.Inc()
	g.reqNonce++
	g.net.Unicast(g.ID, msg.Announcer, &node.ChainRequest{
		FromRound: act.FromRound, MaxBlocks: 64, Requester: g.ID, Nonce: g.reqNonce,
	})
}

// gcFetches bounds the outstanding-fetch map (entries older than a
// minute are dead either way).
func (g *Gateway) gcFetches(now time.Duration) {
	if len(g.fetchedAt) < 256 {
		return
	}
	for h, at := range g.fetchedAt {
		if now-at > time.Minute {
			delete(g.fetchedAt, h)
		}
	}
}

// applyRun advances the read model through a fetched chain run and,
// for each block that actually committed (certificate verified),
// clears its transactions from the gateway mempool so they are
// neither re-sent nor re-admitted.
func (g *Gateway) applyRun(blocks []*ledger.Block, certs []*ledger.Certificate) {
	applied, balances, err := g.rm.ApplyRun(blocks, certs)
	if err != nil {
		g.c.certRejects.Inc()
	}
	for _, b := range applied {
		g.c.blocksApplied.Inc()
		// Nonce floors + pending eviction, same call the node makes on
		// commit. balances is the read model's post-run state.
		g.flow.Committed(b, balances)
	}
}

// run is the gateway's background process: flush admitted
// transactions toward their clusters, periodically re-send still
// pending ones, and wind down when the cluster is done.
func (g *Gateway) run(p *vtime.Proc) {
	g.resendAt = p.Now() + g.cfg.ResendInterval
	for {
		p.Sleep(g.cfg.FlushInterval)
		if g.sim.Stopped() {
			return
		}
		if g.cfg.Done != nil && g.cfg.Done() {
			return
		}
		if g.halted {
			continue
		}
		g.flushOnce()
		if p.Now() >= g.resendAt {
			g.resendAt = p.Now() + g.cfg.ResendInterval
			g.resendPending()
		}
	}
}

// Stats is a point-in-time snapshot of the gateway's registry-backed
// counters plus the embedded pipeline's.
type Stats struct {
	Submitted, Admitted, Rejected           int64
	Queries, Sessions                       int64
	BatchesRouted, TxsRouted, BytesRouted   int64
	Resent                                  int64
	Announces, BlocksApplied                int64
	ChainFills, CertRejects, StaleAnnounces int64
	ConnRejects, FrameRejects               int64
	HeadRound                               uint64
	Pending                                 int
	PendingBytes                            int
	Flow                                    txflow.Stats
}

// Stats snapshots the gateway.
func (g *Gateway) Stats() Stats {
	head, _ := g.rm.Head()
	return Stats{
		Submitted:      int64(g.c.submitted.Load()),
		Admitted:       int64(g.c.admitted.Load()),
		Rejected:       int64(g.c.rejected.Load()),
		Queries:        int64(g.c.queries.Load()),
		Sessions:       int64(g.c.sessions.Load()),
		BatchesRouted:  int64(g.c.batchesRouted.Load()),
		TxsRouted:      int64(g.c.txsRouted.Load()),
		BytesRouted:    int64(g.c.bytesRouted.Load()),
		Resent:         int64(g.c.resent.Load()),
		Announces:      int64(g.c.announces.Load()),
		BlocksApplied:  int64(g.c.blocksApplied.Load()),
		ChainFills:     int64(g.c.chainFills.Load()),
		CertRejects:    int64(g.c.certRejects.Load()),
		StaleAnnounces: int64(g.c.staleAnnounce.Load()),
		ConnRejects:    int64(g.c.connRejects.Load()),
		FrameRejects:   int64(g.c.frameRejects.Load()),
		HeadRound:      head,
		Pending:        g.flow.Len(),
		PendingBytes:   g.flow.PendingBytes(),
		Flow:           g.flow.Stats(),
	}
}

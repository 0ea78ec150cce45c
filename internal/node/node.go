// Package node assembles the full Algorand user (§4, Figure 1): it
// collects pending transactions, runs block proposal (§6) and BA⋆ (§7)
// each round, maintains the ledger with certificates (§8.1, §8.3),
// validates and relays gossip traffic (§8.4), and falls back to the
// fork-recovery protocol (§8.2) when consensus stalls.
package node

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/ledger/diskstore"
	"algorand/internal/metrics"
	"algorand/internal/network"
	"algorand/internal/params"
	"algorand/internal/sortition"
	"algorand/internal/trace"
	"algorand/internal/txflow"
	"algorand/internal/vtime"
)

// Transport abstracts the gossip network under the node: the
// deterministic simulator (internal/network.Network) or a real TCP
// transport (internal/realnet.Transport). Both enforce the gossip rules
// of §8.4 (validate-before-relay via the handler's verdicts, duplicate
// suppression, relay limits).
type Transport interface {
	Gossip(origin int, m network.Message)
	Unicast(from, to int, m network.Message)
	SetHandler(id int, h network.Handler)
	// Neighbors returns the node's current peer set: whom it offers block
	// pieces to, and whom it asks for a block, a chain or a checkpoint it
	// does not hold.
	Neighbors(id int) []int
}

// TransportHealth is a coarse liveness snapshot of the transport under
// a node. The paper's liveness argument assumes the network heals
// (§3's strong synchrony holds "most of the time"); this is the signal
// an operator watches to know whether that assumption currently holds
// for this node: how many peers are reachable, how many are serving a
// misbehavior quarantine, and how much gossip the transport has shed
// (queue drops) or repaired (redials).
type TransportHealth struct {
	Peers       int // address-book peers (self excluded)
	Connected   int // peers with a live outbound connection
	Quarantined int // peers currently quarantined for misbehavior
	QueueDrops  uint64
	Redials     uint64
}

// TransportHealthReporter is optionally implemented by transports that
// can report health (internal/realnet does; the in-process simulator
// has no failing links to report on).
type TransportHealthReporter interface {
	Health() TransportHealth
}

// TransportHealth reports the underlying transport's health snapshot,
// or ok=false when the transport does not expose one.
func (n *Node) TransportHealth() (TransportHealth, bool) {
	if hr, ok := n.net.(TransportHealthReporter); ok {
		return hr.Health(), true
	}
	return TransportHealth{}, false
}

// Config assembles a node's dependencies.
type Config struct {
	Params    params.Params
	LedgerCfg ledger.Config
	// ChargeCrypto controls whether the modeled crypto CPU costs
	// (provider.Costs()) are charged on message validation. With the
	// Real provider, verification already consumes real CPU; the model
	// costs are for Fast runs.
	ChargeCrypto bool
	// RecoveryInterval is how often nodes check for forks and kick off
	// the §8.2 recovery protocol (the paper suggests e.g. hourly).
	RecoveryInterval time.Duration
	// MaxRecoveryAttempts bounds consecutive failed recovery BA⋆ tries.
	MaxRecoveryAttempts int
	// ShardCount configures §8.3 storage sharding (0 = store all).
	ShardCount uint64
	// Archive, when non-nil, is the durable on-disk form of the node's
	// §8.3 store: every commit, catch-up adoption, and §8.2 fork repair
	// is journaled (fsync'd) through it before the node proceeds, and a
	// restart recovers the chain from it instead of from genesis. The
	// node owns writes to the archive for its lifetime; the caller still
	// owns Close.
	Archive *diskstore.Store
	// TxFlow sizes the transaction ingestion pipeline (see
	// internal/txflow). The zero value gets defaults; unless TxFlow.Now
	// is set, the pipeline clock is the node's (virtual) scheduler
	// clock.
	TxFlow txflow.Config
	// TxFlowWorkers, when positive, launches that many background
	// signature-verification workers and offloads gossip-batch
	// ingestion to them (real deployments). Zero keeps the pipeline
	// fully synchronous in the scheduler goroutine, which the
	// deterministic simulator requires.
	TxFlowWorkers int
	// PipelineFinalStep overlaps the §7.4 final confirmation step with
	// the next round: the node commits tentatively after BinaryBA⋆ and
	// upgrades the block to final in the background when the final-step
	// votes arrive. This is the §10.2 throughput optimization the paper
	// describes ("the final step ... could be pipelined with the next
	// round (although our prototype does not do so)").
	PipelineFinalStep bool
	// CheckpointInterval, when positive, writes a state checkpoint —
	// block header, certificate, full account table — every that many
	// rounds: into the durable archive when one is configured, and
	// always into memory for serving SnapshotRequest peers. Restarting
	// or joining nodes fast-sync from the newest checkpoint plus a
	// catch-up delta instead of replaying the chain from genesis.
	CheckpointInterval uint64
	// AnnounceCommits makes the node gossip a CommitAnnounce to its
	// direct neighbors after every durable commit. Gateways (the access
	// tier) tail these announcements to advance their read models;
	// consensus nodes ignore them and they are never relayed, so the
	// per-round cost is one 44-byte frame per neighbor link.
	AnnounceCommits bool
	// Metrics is the registry every subsystem under this node records
	// into: BA⋆ step counters, round counters, the trace phase
	// histograms, and (unless TxFlow.Metrics overrides it) the
	// transaction pipeline. Nil gets a private registry.
	Metrics *metrics.Registry
	// Tracer records per-round phase spans (sortition → propose → BA⋆
	// steps → certify → commit → persist) on the node's clock. Nil gets
	// a tracer on the scheduler clock with the default ring size.
	Tracer *trace.Tracer
}

// RoundStat records one round's timeline on this node, feeding the
// §10 evaluation figures.
type RoundStat struct {
	Round           uint64
	Start           time.Duration
	PriorityLearned time.Duration // winning priority first seen (§10.5)
	ProposalDone    time.Duration // highest-priority block in hand (Figure 7 bottom)
	BinaryDone      time.Duration // BA⋆ without the final step (Figure 7 middle)
	End             time.Duration // final step complete (Figure 7 top)
	BinarySteps     int
	Final           bool
	Empty           bool
	Equivocation    bool
	Value           crypto.Digest
}

// Node is one simulated Algorand user.
type Node struct {
	ID       int
	cfg      Config
	provider crypto.Provider
	identity crypto.Identity
	ledger   *ledger.Ledger
	flow     *txflow.Flow
	store    *ledger.Store
	archive  *diskstore.Store
	net      Transport
	sim      *vtime.Sim
	proc     *vtime.Proc
	reg      *metrics.Registry
	tracer   *trace.Tracer
	ba       *agreement.Metrics
	// Round outcome counters (registry-backed views of Stats).
	roundsTotal, roundsEmpty, roundsFinal *metrics.Counter
	// persistErrors counts archive writes that failed even after the
	// store's rotate-and-retry — commits that are NOT durable.
	persistErrors *metrics.Counter
	// blockFetches counts blocks this node had to ask its peers for by
	// hash (fetchBlock), blockFetchFailures those nobody delivered in time.
	blockFetches, blockFetchFailures *metrics.Counter
	// Sortition credentials (a signature and a VRF proof each) this node
	// set out to verify, by the message that carried them.
	voteChecks, priorityChecks, announceChecks *metrics.Counter

	// Current consensus context, nil between rounds. The handler uses it
	// to validate incoming messages.
	ctx *agreement.Context
	// finalCtxs holds contexts of rounds whose pipelined final step is
	// still in flight; the handler accepts their final-step votes.
	finalCtxs map[uint64]*agreement.Context

	// Vote inboxes per (round, step); proposal inboxes per round.
	voteInboxes map[[2]uint64]*vtime.Mailbox
	propInboxes map[uint64]*vtime.Mailbox

	// Messages for the next round, buffered unverified until we get there;
	// pendingSize is their wire size, which bufferNext bounds.
	pendingMsgs    map[uint64][]network.Message
	pendingSize    map[uint64]int
	pendingDropped *metrics.Counter

	// fetch is the block dissemination state (§6): the bodies announced
	// this round, the pieces of them held (and served to whoever asks),
	// requested and missing, and the best proposal priority seen, which
	// is also the §6 relay filter's. fetchTimer says a timeout check is
	// scheduled for the requests in flight.
	fetch      *blockprop.Fetcher
	fetchTimer bool
	// reqNonce numbers this node's unicast requests. It starts at the
	// scheduler's epoch, not at zero: a replacement for a crashed node
	// would otherwise repeat its predecessor's (round, requester, nonce)
	// triples, and peers' duplicate suppression would drop the requests.
	reqNonce uint64
	// chainReplies receives §8.3 catch-up replies (see catchup.go).
	chainReplies *vtime.Mailbox
	// snapReplies receives fast-sync snapshot replies (see snapshot.go).
	snapReplies *vtime.Mailbox
	// blockWanted is the hash fetchBlock is waiting for, zero when it is
	// not waiting; blockFills hands it the BlockFill that matches.
	blockWanted crypto.Digest
	blockFills  *vtime.Mailbox

	// checkpoint is the newest state snapshot this node holds — written
	// at the checkpoint interval, adopted during fast sync, or restored
	// from the archive — and what it serves to SnapshotRequest peers.
	checkpoint *ledger.Checkpoint
	// genesis is retained common knowledge (§8.3): the verification
	// context for peer-served snapshots, and the base a checkpoint ledger
	// is grafted onto.
	genesis *ledger.Genesis

	// halted marks a simulated crash: the node stops handling and
	// emitting messages and its process winds down (see Halt).
	halted bool

	// finished is set when the main process returns (see launch);
	// auxiliary processes (tx flushing) use it to wind down too. Atomic
	// because SubmitTx reads it from RPC goroutines while the scheduler
	// winds the node down.
	finished atomic.Bool

	// alienVotes counts votes rejected for extending a different chain —
	// the fork signal that triggers recovery participation (§8.2).
	alienVotes int
	// recovered counts completed recovery executions.
	Recovered int
	// ForkAdoptions counts catch-up fork adoptions: times this node
	// abandoned a tentative suffix for a strictly longer certified chain
	// served by peers (see tryAdoptFork).
	ForkAdoptions int
	// SnapshotSyncs counts fast syncs: times this node re-based its
	// ledger onto a verified peer-served checkpoint.
	SnapshotSyncs int
	// SnapshotRejects counts peer-served snapshots that failed
	// verification (tampered table, forged certificate, or insufficient
	// context) and were refused.
	SnapshotRejects int

	// Behavior hooks for adversarial nodes (see sim package). When
	// Misbehave is non-nil it is invoked instead of the honest proposal
	// logic once the node is selected as proposer.
	Misbehave func(n *Node, prop *blockprop.Proposal)
	// VoteSaboteur, when non-nil, maps each outgoing committee vote to
	// the set of votes actually sent (e.g. double-voting for two values,
	// §10.4). Extra votes must be re-signed by the saboteur.
	VoteSaboteur func(n *Node, v *ledger.Vote) []*ledger.Vote

	Stats []RoundStat
	// StopAfterRound ends the main loop once the ledger reaches it.
	StopAfterRound uint64
}

// New creates a node bound to slot id on the network. Call Start to
// launch its process.
func New(
	id int,
	sim *vtime.Sim,
	net Transport,
	provider crypto.Provider,
	identity crypto.Identity,
	cfg Config,
	genesisAccounts map[crypto.PublicKey]uint64,
	seed0 crypto.Digest,
) *Node {
	return NewFromGenesis(id, sim, net, provider, identity, cfg, ledger.NewGenesis(genesisAccounts, seed0))
}

// NewFromGenesis is New for a caller that starts many nodes of one
// deployment in one process and lets them share the genesis state.
func NewFromGenesis(
	id int,
	sim *vtime.Sim,
	net Transport,
	provider crypto.Provider,
	identity crypto.Identity,
	cfg Config,
	genesis *ledger.Genesis,
) *Node {
	if cfg.RecoveryInterval == 0 {
		cfg.RecoveryInterval = time.Hour
	}
	if cfg.MaxRecoveryAttempts == 0 {
		cfg.MaxRecoveryAttempts = 8
	}
	if cfg.TxFlow.Now == nil {
		// The pipeline clock follows the scheduler. Virtual-time runs
		// only call into the Flow from scheduler context; realtime
		// deployments that submit from other goroutines (the RPC
		// server) override Now with a wall clock in cmd/algorand-node.
		cfg.TxFlow.Now = sim.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.TxFlow.Metrics == nil {
		cfg.TxFlow.Metrics = cfg.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New(sim.Now, 0)
	}
	cfg.Tracer.RegisterMetrics(cfg.Metrics)
	shardCount := cfg.ShardCount
	if shardCount == 0 {
		shardCount = 1
	}
	n := &Node{
		ID:          id,
		cfg:         cfg,
		provider:    provider,
		identity:    identity,
		ledger:      ledger.NewFromGenesis(provider, cfg.LedgerCfg, genesis),
		genesis:     genesis,
		flow:        txflow.New(provider, cfg.TxFlow),
		store:       ledger.NewStore(uint64(id), shardCount),
		net:         net,
		sim:         sim,
		voteInboxes: make(map[[2]uint64]*vtime.Mailbox),
		propInboxes: make(map[uint64]*vtime.Mailbox),
		pendingMsgs: make(map[uint64][]network.Message),
		pendingSize: make(map[uint64]int),
		fetch:       blockprop.NewFetcher(id, blockprop.NewFetchMetrics(cfg.Metrics)),
		finalCtxs:   make(map[uint64]*agreement.Context),
		reqNonce:    sim.Epoch(),
		blockFills:  sim.NewMailbox(),
		archive:     cfg.Archive,
		reg:         cfg.Metrics,
		tracer:      cfg.Tracer,
		ba:          agreement.NewMetrics(cfg.Metrics),
	}
	n.roundsTotal = cfg.Metrics.Counter("algorand_node_rounds_total", "rounds this node completed")
	n.roundsEmpty = cfg.Metrics.Counter("algorand_node_rounds_empty_total", "completed rounds that committed the empty block")
	n.roundsFinal = cfg.Metrics.Counter("algorand_node_rounds_final_total", "completed rounds that reached final consensus")
	n.persistErrors = cfg.Metrics.Counter("algorand_node_persist_errors_total", "archive writes that failed after retry")
	n.blockFetches = cfg.Metrics.Counter("algorand_node_block_fetches_total", "agreed or adopted blocks this node did not hold and asked its peers for by hash")
	n.blockFetchFailures = cfg.Metrics.Counter("algorand_node_block_fetch_failures_total", "by-hash block fetches no peer answered before the deadline")
	n.pendingDropped = cfg.Metrics.Counter("algorand_node_pending_dropped_total", "next-round messages dropped because the unverified buffer was full")
	const checksHelp = "sortition credentials (signature + VRF proof) this node set out to verify, by carrying message"
	n.voteChecks = cfg.Metrics.Counter(voteChecksName, checksHelp)
	n.priorityChecks = cfg.Metrics.Counter(priorityChecksName, checksHelp)
	n.announceChecks = cfg.Metrics.Counter(announceChecksName, checksHelp)
	net.SetHandler(id, network.HandlerFunc(n.handleMessage))
	return n
}

// The labelled series names are rendered once, not once per node: a
// simulated cluster builds thousands of nodes inside its set-up time.
var (
	voteChecksName     = metrics.Name("algorand_node_sortition_checks_total", "of", "vote")
	priorityChecksName = metrics.Name("algorand_node_sortition_checks_total", "of", "priority")
	announceChecksName = metrics.Name("algorand_node_sortition_checks_total", "of", "announce")
)

// Metrics exposes the node's registry: every subsystem under the node
// (BA⋆, txflow, tracing, round outcomes) records here.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Tracer exposes the node's per-round phase tracer.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Ledger exposes the node's ledger (read-only use).
func (n *Node) Ledger() *ledger.Ledger { return n.ledger }

// HandleMessage implements network.Handler (New registers it with the
// transport). Exported so adversarial harnesses can wrap a node's
// handler — intercept chosen messages, delegate the rest.
func (n *Node) HandleMessage(from int, m network.Message) network.Verdict {
	return n.handleMessage(from, m)
}

// Store exposes the node's §8.3 archive.
func (n *Node) Store() *ledger.Store { return n.store }

// Archive exposes the node's durable on-disk store, if configured.
func (n *Node) Archive() *diskstore.Store { return n.archive }

// PersistErrors reports how many archive writes failed permanently
// (after the diskstore's own rotate-and-retry) — each one a commit the
// node holds in memory but could not make durable.
func (n *Node) PersistErrors() int64 { return int64(n.persistErrors.Load()) }

// persistPut archives a committed (block, certificate) pair, journaling
// it to the durable store — fsync'd before this returns — when one is
// configured. The paper's §8.3 storage obligation: persist before the
// round's outcome is treated as settled.
func (n *Node) persistPut(b *ledger.Block, c *ledger.Certificate) {
	n.store.Put(b, c)
	if n.archive != nil {
		if err := n.archive.Append(b, c); err != nil {
			n.persistErrors.Inc()
		}
	}
	n.maybeCheckpoint(b, c)
}

// persistReconcile forces the archives — memory and disk — to the
// canonical block for a round after §8.2 fork repair.
func (n *Node) persistReconcile(b *ledger.Block, c *ledger.Certificate) {
	n.store.Reconcile(b, c)
	if n.archive != nil {
		if err := n.archive.Reconcile(b, c); err != nil {
			n.persistErrors.Inc()
		}
	}
}

// TxFlow exposes the node's transaction ingestion pipeline. Unlike
// the unsynchronized pool it replaced, the Flow is safe for concurrent
// use from any goroutine — RPC servers and load generators may call
// Submit/SubmitBatch/Stats directly while the scheduler runs rounds.
func (n *Node) TxFlow() *txflow.Flow { return n.flow }

// PublicKey returns the node's identity key.
func (n *Node) PublicKey() crypto.PublicKey { return n.identity.PublicKey() }

// SubmitTx runs a transaction through the ingestion pipeline
// (Figure 1 step 1). On admission it is staged for the next batched
// gossip flush; a rejection comes back immediately with the typed
// reason. Safe to call from any goroutine.
func (n *Node) SubmitTx(tx *ledger.Transaction) error {
	if n.Done() {
		return errors.New("node: stopped")
	}
	return n.flow.Submit(tx)
}

// Halt simulates a crash: the node stops handling incoming messages,
// emitting votes, proposing, and serving its archive. Its process winds
// down silently at the next round boundary (an in-flight round can no
// longer complete without the node's own votes). Ledger and Store keep
// their state, as a crashed machine's disk would — a replacement node
// for the same slot can Rejoin from them.
func (n *Node) Halt() { n.halted = true }

// Halted reports whether the node has been crashed via Halt.
func (n *Node) Halted() bool { return n.halted }

// Done reports whether the node's main process has wound down — either
// crashed via Halt or completed its configured rounds. A done node no
// longer flushes transaction batches or accepts submissions.
func (n *Node) Done() bool { return n.halted || n.finished.Load() }

func (n *Node) voteInbox(round, step uint64) *vtime.Mailbox {
	k := [2]uint64{round, step}
	mb, ok := n.voteInboxes[k]
	if !ok {
		mb = n.sim.NewMailbox()
		n.voteInboxes[k] = mb
	}
	return mb
}

func (n *Node) propInbox(round uint64) *vtime.Mailbox {
	mb, ok := n.propInboxes[round]
	if !ok {
		mb = n.sim.NewMailbox()
		n.propInboxes[round] = mb
	}
	return mb
}

// costs returns the modeled CPU cost model if charging is enabled.
func (n *Node) costs() crypto.CostModel {
	if !n.cfg.ChargeCrypto {
		return crypto.CostModel{}
	}
	return n.provider.Costs()
}

// handleMessage validates and routes one delivered gossip message. It
// runs in scheduler context (§8.4: validate before relaying).
func (n *Node) handleMessage(from int, m network.Message) network.Verdict {
	if n.halted {
		return network.Verdict{}
	}
	cost := n.costs()
	switch msg := m.(type) {
	case *TxBatch:
		return n.handleTxBatch(msg, cost)

	case *VoteMsg:
		return n.handleVote(msg, cost)

	case *PriorityGossip:
		return n.handlePriority(msg, cost)

	case *BlockAnnounce:
		return n.handleAnnounce(from, msg, cost)

	case *BlockHave:
		return n.handleHave(from, msg)

	case *PieceRequest:
		if from != msg.Requester {
			return network.Verdict{Relay: false} // a piece goes to whoever asked, nobody else
		}
		if p, lifted := n.fetch.Serve(from, msg.Hash, msg.Index); p != nil {
			n.net.Unicast(n.ID, from, &BlockPiece{P: p, Recipient: from, Nonce: msg.Nonce})
			if lifted {
				// The last piece of the stripe this neighbour was offered of a
				// body we proposed: it may now pull the rest.
				m, _ := n.fetch.Manifest(msg.Hash)
				n.net.Unicast(n.ID, from, &BlockHave{Round: m.Announce.Round, Hash: msg.Hash, Announcer: n.ID})
			}
		}
		return network.Verdict{Relay: false}

	case *BlockPiece:
		return n.handlePiece(from, msg, cost)

	case *BlockRequest:
		// §7.1 "obtain it from other users": any block we know, whole and
		// without credentials — the requester validates it against the
		// hash it asked for. Like a piece, it goes to whoever asked.
		if from != msg.Requester {
			return network.Verdict{Relay: false}
		}
		if b, ok := n.ledger.BlockOfHash(msg.Hash); ok {
			n.net.Unicast(n.ID, msg.Requester, &BlockFill{Block: b, Recipient: msg.Requester})
		}
		return network.Verdict{Relay: false}

	case *ChainRequest:
		return n.handleChainRequest(from, msg)

	case *ChainReply:
		if msg.Recipient == n.ID {
			n.catchupInbox().Send(msg)
		}
		return network.Verdict{Relay: false}

	case *BlockFill:
		// The answer to fetchBlock's request, and only that: a fill nobody
		// is waiting for is dropped before it is hashed, one with another
		// hash after, so no peer can make this node keep a block.
		if msg.Recipient != n.ID || n.blockWanted == (crypto.Digest{}) || msg.Block.Hash() != n.blockWanted {
			return network.Verdict{Relay: false}
		}
		n.blockWanted = crypto.Digest{}
		n.blockFills.Send(msg.Block)
		return network.Verdict{Relay: false}

	case *CommitAnnounce:
		// Gateway read-model feed; consensus nodes have their own ledger
		// and ignore it. Never relayed — each committer announces its own.
		return network.Verdict{Relay: false}

	case *SnapshotRequest:
		return n.handleSnapshotRequest(from, msg)

	case *SnapshotReply:
		if msg.Recipient == n.ID {
			n.snapshotInbox().Send(msg)
		}
		return network.Verdict{Relay: false}
	}
	return network.Verdict{}
}

// announceCommit tells direct neighbors this node just committed the
// block with hash h at a round (see Config.AnnounceCommits).
func (n *Node) announceCommit(round uint64, h crypto.Digest) {
	if !n.cfg.AnnounceCommits || n.halted {
		return
	}
	n.net.Gossip(n.ID, &CommitAnnounce{Round: round, Hash: h, Announcer: n.ID})
}

func (n *Node) handleVote(msg *VoteMsg, cost crypto.CostModel) network.Verdict {
	cpu := cost.VerifySig + cost.VRFVerify
	v := &msg.Vote
	// Final-step votes of a round whose pipelined confirmation is still
	// in flight are validated against that round's context.
	if v.Step == agreement.StepFinal {
		if fctx, ok := n.finalCtxs[v.Round]; ok {
			n.voteChecks.Inc()
			nv := agreement.ProcessVote(n.provider, n.cfg.Params, fctx, v)
			if nv == 0 {
				return network.Verdict{Relay: false, CPU: cpu}
			}
			n.voteInbox(v.Round, v.Step).Send(&agreement.ValidatedVote{Vote: v, NumVotes: nv})
			return network.Verdict{Relay: true, CPU: cpu}
		}
	}
	ctx := n.ctx
	if ctx == nil {
		return network.Verdict{Relay: false}
	}
	switch {
	case v.Round == ctx.Round:
		if v.PrevHash != ctx.LastBlockHash {
			// A vote extending some other chain: fork evidence (§8.2).
			n.alienVotes++
			return network.Verdict{Relay: false, CPU: cost.VerifySig}
		}
		n.voteChecks.Inc()
		nv := agreement.ProcessVote(n.provider, n.cfg.Params, ctx, v)
		if nv == 0 {
			return network.Verdict{Relay: false, CPU: cpu}
		}
		n.voteInbox(v.Round, v.Step).Send(&agreement.ValidatedVote{Vote: v, NumVotes: nv})
		return network.Verdict{Relay: true, CPU: cpu}
	case v.Round == ctx.Round+1:
		// We are a step behind; buffer and validate when we get there.
		return n.bufferNext(v.Round, msg)
	case v.Round < ctx.Round:
		// A straggler's vote. If it extends a block other than ours at
		// that position, someone is stuck on a fork: recovery evidence
		// (§8.2 "users passively monitor all BA⋆ votes ... and keep
		// track of all forks").
		if prev, ok := n.ledger.HashAt(v.Round - 1); ok && prev != v.PrevHash {
			n.alienVotes++
		}
		return network.Verdict{Relay: false}
	default:
		return network.Verdict{Relay: false}
	}
}

func (n *Node) handlePriority(msg *PriorityGossip, cost crypto.CostModel) network.Verdict {
	cpu := cost.VerifySig + cost.VRFVerify
	m := &msg.M
	ctx := n.ctx
	if m.Round >= ledger.RecoveryRoundBase && (ctx == nil || ctx.Round != m.Round) {
		// §8.2 recovery contexts are self-describing: rebuild this one so
		// the attempt's proposals verify, buffer, and relay even on nodes
		// that are not (yet) inside that attempt.
		ctx = n.recoveryCtxForRound(m.Round)
	}
	if ctx == nil {
		return network.Verdict{Relay: false}
	}
	switch {
	case m.Round == ctx.Round:
		roleKind := n.proposerRoleKind(m.Round)
		n.priorityChecks.Inc()
		j := blockprop.VerifyPriority(n.provider, m, roleKind, ctx.Seed,
			n.cfg.Params.TauProposer, ctx.Weights[m.Proposer], ctx.TotalWeight)
		if j == 0 {
			return network.Verdict{Relay: false, CPU: cpu}
		}
		n.propInbox(m.Round).Send(blockprop.NewArrivalPriority(m))
		// §6: discard (do not relay) messages below the best priority
		// seen so far. Equal priority still relays: an equivocator's two
		// variants share one priority and both must travel (§10.4).
		if best, ok := n.fetch.Best(m.Round); ok && m.Priority.Less(best) {
			return network.Verdict{Relay: false, CPU: cpu}
		}
		n.fetch.NoteBest(m.Round, m.Priority)
		return network.Verdict{Relay: true, CPU: cpu}
	case m.Round == ctx.Round+1:
		return n.bufferNext(m.Round, msg)
	default:
		return network.Verdict{Relay: false}
	}
}

// maxPendingBytes bounds what a node holds for the round after its own,
// none of which it can check before it knows that round's seed: more than
// a round of votes at the paper's committee sizes (2 000 a step over seven
// steps, 10 000 final, ~250 B each: 6 MB), so that only a flood meets it.
const maxPendingBytes = 8 << 20

// bufferNext holds m for the next round, or drops and counts it when that
// round's buffer is full: a hostile neighbour cannot grow a node at will.
func (n *Node) bufferNext(round uint64, m network.Message) network.Verdict {
	if size := n.pendingSize[round] + m.WireSize(); size <= maxPendingBytes {
		n.pendingSize[round] = size
		n.pendingMsgs[round] = append(n.pendingMsgs[round], m)
	} else {
		n.pendingDropped.Inc()
	}
	return network.Verdict{Relay: false}
}

// handleAnnounce processes an "I hold (part of) this block" message:
// after the credential and manifest checks the fetcher decides which
// pieces to pull from the announcer (pull-based dissemination).
func (n *Node) handleAnnounce(from int, msg *BlockAnnounce, cost crypto.CostModel) network.Verdict {
	cpu := cost.VerifySig + cost.VRFVerify
	m := &msg.Manifest.Announce
	if from >= 0 && from != msg.Announcer {
		return network.Verdict{Relay: false} // whom to pull from is the sender, nobody else
	}
	ctx := n.ctx
	if m.Round >= ledger.RecoveryRoundBase && (ctx == nil || ctx.Round != m.Round) {
		ctx = n.recoveryCtxForRound(m.Round) // see handlePriority
	}
	if ctx == nil {
		return network.Verdict{Relay: false}
	}
	switch {
	case m.Round == ctx.Round:
		roleKind := n.proposerRoleKind(m.Round)
		n.announceChecks.Inc()
		j := blockprop.VerifyPriority(n.provider, m, roleKind, ctx.Seed,
			n.cfg.Params.TauProposer, ctx.Weights[m.Proposer], ctx.TotalWeight)
		if j == 0 {
			return network.Verdict{Relay: false, CPU: cpu}
		}
		if msg.Manifest.Pieces() > 1 {
			cpu += cost.VerifySig
		}
		if msg.Manifest.Verify(n.provider, n.cfg.Params.BlockSize) != nil {
			return network.Verdict{Relay: false, CPU: cpu}
		}
		// The announce carries the same priority information as the
		// flood; let the waiter see it (it may arrive first).
		n.propInbox(m.Round).Send(blockprop.NewArrivalPriority(m))
		n.fetch.NoteBest(m.Round, m.Priority)
		// A refusal (a second description of a hash already described, a
		// third body of one proposer, a proposer already found invalid)
		// makes the announcer no source and is not provably its fault: the
		// proposer may have signed both.
		acts, _ := n.fetch.OnAnnounce(n.sim.Now(), msg.Announcer, &msg.Manifest, msg.Have)
		n.runFetch(acts)
		return network.Verdict{Relay: false, CPU: cpu}
	case m.Round == ctx.Round+1:
		return n.bufferNext(m.Round, msg)
	default:
		return network.Verdict{Relay: false}
	}
}

// handleHave processes a holder's updated advertisement. It names a
// body by hash only: one the fetcher has no verified manifest for is
// ignored there.
func (n *Node) handleHave(from int, msg *BlockHave) network.Verdict {
	if from >= 0 && from != msg.Announcer {
		return network.Verdict{Relay: false}
	}
	if ctx := n.ctx; ctx != nil && msg.Round == ctx.Round+1 {
		return n.bufferNext(msg.Round, msg)
	}
	n.runFetch(n.fetch.OnHave(n.sim.Now(), msg.Announcer, msg.Hash, msg.Have))
	return network.Verdict{Relay: false}
}

// handlePiece processes a piece arriving in answer to one of our
// requests. Verifying it costs one signature verification per
// materialized transaction; PayloadPadding models unverified payload
// bytes (the paper's evaluation proposes blocks of synthetic content;
// its measured CPU is dominated by vote/VRF verification, §10.3), so
// padding costs bandwidth but not CPU.
func (n *Node) handlePiece(from int, msg *BlockPiece, cost crypto.CostModel) network.Verdict {
	if msg.Recipient != n.ID {
		return network.Verdict{Relay: false}
	}
	acts, err := n.fetch.OnPiece(n.sim.Now(), from, msg.P)
	switch {
	case errors.Is(err, blockprop.ErrUnsolicited):
		return network.Verdict{Relay: false}
	case err != nil && !errors.Is(err, blockprop.ErrBadAssembly):
		// Everything else only the sender can have caused: a relay serves
		// what it verified.
		if mr, ok := n.net.(MisbehaviorReporter); ok {
			mr.ReportMisbehavior(from, err.Error())
		}
	}
	n.runFetch(acts)
	return network.Verdict{Relay: false, CPU: time.Duration(len(msg.P.Txns())) * cost.VerifySig}
}

// runFetch carries out the fetcher's actions and keeps a timeout check
// scheduled while requests are in flight.
func (n *Node) runFetch(acts []blockprop.Action) {
	for _, a := range acts {
		switch a.Kind {
		case blockprop.ActRequest:
			n.reqNonce++
			n.net.Unicast(n.ID, a.Peer, &PieceRequest{Hash: a.Hash, Index: a.Index, Requester: n.ID, Nonce: n.reqNonce})
		case blockprop.ActAdvertise:
			m, _ := n.fetch.Manifest(a.Hash)
			if a.First {
				n.net.Gossip(n.ID, &BlockAnnounce{Manifest: *m, Announcer: n.ID, Have: n.fetch.Have(a.Hash)})
				continue
			}
			// Later pieces are news only to the neighbours that lack them.
			have := &BlockHave{Round: m.Announce.Round, Hash: a.Hash, Announcer: n.ID, Have: n.fetch.Have(a.Hash)}
			for _, peer := range n.net.Neighbors(n.ID) {
				if n.fetch.PeerLacks(a.Hash, peer, a.Index) {
					n.net.Unicast(n.ID, peer, have)
				}
			}
		case blockprop.ActDeliver:
			// Assembled and checked against the announced hash: register
			// it and hand it to the waiter.
			round := a.Msg.Round()
			n.ledger.RegisterProposal(a.Msg.Block, a.Hash)
			n.propInbox(round).Send(blockprop.NewArrivalBlock(a.Msg))
			n.tracer.Record(round, trace.PhaseBlockFetch, 0, a.Started, n.sim.Now())
		}
	}
	if at, inFlight := n.fetch.NextDeadline(); inFlight && !n.fetchTimer {
		n.fetchTimer = true
		n.sim.After(at-n.sim.Now(), func() {
			n.fetchTimer = false
			if !n.halted {
				n.runFetch(n.fetch.Tick(n.sim.Now()))
			}
		})
	}
}

// seed announces a body this node proposed: to everyone at once, or, for
// a body of several pieces, a disjoint stripe to each neighbour first
// (blockprop.Fetcher.Seed has the why).
func (n *Node) seed(ann *BlockAnnounce) {
	peers := n.net.Neighbors(n.ID)
	offers := n.fetch.Seed(ann.Manifest.Announce.BlockHash, peers)
	if offers == nil {
		n.net.Gossip(n.ID, ann)
		return
	}
	for k, peer := range peers {
		striped := *ann
		striped.Have = offers[k]
		n.net.Unicast(n.ID, peer, &striped)
	}
}

// HoldProposal makes this node a complete holder of a body it proposed:
// the body is cut into pieces, the manifest signed, and every piece
// served to whoever asks from now on. It returns the announce to send.
// Exported for adversarial harnesses, which decide for themselves whom
// to send which announce.
func (n *Node) HoldProposal(bm *blockprop.BlockMsg) *BlockAnnounce {
	m, pieces := blockprop.Split(n.identity, bm)
	n.fetch.Hold(m, pieces, bm)
	return &BlockAnnounce{Manifest: *m, Announcer: n.ID}
}

// proposerRoleKind returns the sortition role kind for proposals in a
// round: the fork-recovery rounds use their own role.
func (n *Node) proposerRoleKind(round uint64) string {
	if round >= ledger.RecoveryRoundBase {
		return sortition.RoleForkProposer
	}
	return sortition.RoleProposer
}

// setContext installs the context the handler validates against and
// replays buffered messages for that round.
func (n *Node) setContext(ctx *agreement.Context) {
	n.ctx = ctx
	if ctx == nil {
		return
	}
	buffered := n.pendingMsgs[ctx.Round]
	delete(n.pendingMsgs, ctx.Round)
	delete(n.pendingSize, ctx.Round)
	for _, m := range buffered {
		n.handleMessage(-1, m) // relay verdict already settled at arrival
	}
	// Garbage-collect stale buffers and inboxes.
	for r := range n.pendingMsgs {
		if r < ctx.Round {
			delete(n.pendingMsgs, r)
			delete(n.pendingSize, r)
		}
	}
	for k := range n.voteInboxes {
		if k[0] < ctx.Round {
			if _, pipelined := n.finalCtxs[k[0]]; pipelined && k[1] == agreement.StepFinal {
				continue
			}
			delete(n.voteInboxes, k)
		}
	}
	for r := range n.propInboxes {
		if r < ctx.Round {
			delete(n.propInboxes, r)
		}
	}
	n.fetch.Advance(ctx.Round)
}

// gossipVote publishes one of our votes and counts it locally (a
// committee member processes its own message too) with the j its own
// sortition gave a statement ago: there is nothing to learn from verifying
// a signature and a proof the node has just made. What a VoteSaboteur puts
// in the vote's place is anyone's, and goes through ProcessVote like a
// vote off the wire.
func (n *Node) gossipVote(v *ledger.Vote, j uint64) {
	if n.halted {
		return
	}
	votes := []*ledger.Vote{v}
	if n.VoteSaboteur != nil {
		votes = n.VoteSaboteur(n, v)
	}
	for _, vv := range votes {
		msg := &VoteMsg{Vote: *vv}
		n.net.Gossip(n.ID, msg)
		ctx := n.ctx
		if ctx == nil || vv.Round != ctx.Round {
			continue
		}
		nv := j
		if n.VoteSaboteur != nil {
			n.voteChecks.Inc()
			nv = agreement.ProcessVote(n.provider, n.cfg.Params, ctx, vv)
		}
		if nv > 0 {
			n.voteInbox(vv.Round, vv.Step).Send(&agreement.ValidatedVote{Vote: &msg.Vote, NumVotes: nv})
		}
	}
}

// env builds the BA⋆ environment for the current process, recording
// each CountVotes call as a ba_step span of the given round.
func (n *Node) env(round uint64) *agreement.Env {
	e := &agreement.Env{
		Proc:     n.proc,
		Provider: n.provider,
		Identity: n.identity,
		Params:   n.cfg.Params,
		Gossip:   n.gossipVote,
		Inbox:    n.voteInbox,
		Metrics:  n.ba,
	}
	e.StepTimer = func(step uint64, took time.Duration, _ bool) {
		// e.Proc, not n.proc: the pipelined final step runs this from a
		// background process with its own clock handle.
		end := e.Proc.Now()
		n.tracer.Record(round, trace.PhaseBAStep, step, end-took, end)
	}
	return e
}

// Start spawns the node's main process at genesis, in lockstep with
// every other node of the deployment: it runs rounds until
// StopAfterRound is reached (or forever if zero). A node that is not
// starting with the network — restarted, or joining late — comes up
// through Rejoin instead.
func (n *Node) Start() {
	n.launch(fmt.Sprintf("node-%d", n.ID), func(*vtime.Proc) { n.run() })
}

// launch starts what every running node has: the signature-verification
// workers, the main process (running body), and the gossip flush
// process that ships freshly admitted transactions to neighbors in
// size-capped batches.
func (n *Node) launch(name string, body func(p *vtime.Proc)) {
	n.flow.Start(n.cfg.TxFlowWorkers)
	n.sim.Spawn(name, func(p *vtime.Proc) {
		n.proc = p
		defer n.finished.Store(true)
		body(p)
	})
	n.sim.Spawn(fmt.Sprintf("node-%d-txflush", n.ID), func(p *vtime.Proc) {
		for !n.sim.Stopped() {
			p.Sleep(txFlushPeriod(n.cfg.Params))
			if n.Done() {
				return
			}
			n.flushTxBatches()
		}
	})
}

// txFlushPeriod is how long a freshly admitted transaction may wait in
// the outbox before its TxBatch leaves: a quarter of λ_priority, so that a
// payment crosses several hops inside the proposal wait of the round it
// arrives in, and never more than 250 ms — which is what the quarter comes
// to at the paper's λ_priority = 5 s and wherever it is at least 1 s. A
// period set apart from the round's own timers could exceed the round: at
// λ_priority = 150 ms a fixed 250 ms made a payment miss a proposal it had
// arrived in time for. Less than a quarter buys no latency at the median
// and costs a frame per payment per hop; the floor keeps a degenerate λ
// (a flag set to zero) from turning the flush process into a spin.
func txFlushPeriod(p params.Params) time.Duration {
	return max(time.Millisecond, min(250*time.Millisecond, p.LambdaPriority/4))
}

// flushTxBatches drains the pipeline's outbox into TxBatch gossip.
func (n *Node) flushTxBatches() {
	for _, batch := range n.flow.DrainOutbox(MaxTxBatchBytes) {
		n.net.Gossip(n.ID, &TxBatch{Txns: batch})
	}
}

// handleTxBatch admits every transaction of a gossiped batch through
// the pipeline. Batches are never relayed verbatim (Relay is always
// false): what was fresh here lands in our own outbox and reaches our
// neighbors re-batched, so propagation terminates exactly when no
// receiver sees anything new. The pool adopts what it admits: nothing
// writes msg's payments again. With a worker pool running, the whole batch
// is handed off so the scheduler never pays for signature verification.
func (n *Node) handleTxBatch(msg *TxBatch, cost crypto.CostModel) network.Verdict {
	if n.cfg.TxFlowWorkers > 0 {
		n.flow.EnqueueBatch(msg.Txns)
		return network.Verdict{}
	}
	var cpu time.Duration
	for _, tx := range msg.Txns {
		_, sigChecked := n.flow.IngestGossip(tx)
		if sigChecked {
			cpu += cost.VerifySig
		}
	}
	return network.Verdict{CPU: cpu}
}

func (n *Node) run() {
	lastRecoveryCheck := time.Duration(0)
	for !n.sim.Stopped() {
		if n.halted {
			return
		}
		if n.StopAfterRound > 0 && n.ledger.NextRound() > n.StopAfterRound {
			return
		}
		// §8.2: at every recovery checkpoint, if we have seen evidence of
		// forks, run the recovery protocol before the next round.
		checkpoint := n.proc.Now() / n.cfg.RecoveryInterval
		if checkpoint > lastRecoveryCheck/n.cfg.RecoveryInterval {
			if n.alienVotes > 0 || n.liveFork() {
				n.recover()
			}
		}
		lastRecoveryCheck = n.proc.Now()

		if err := n.runRound(); err != nil {
			// The round may have failed because we fell behind the network
			// (an outage on our links) rather than because consensus
			// stalled globally: try §8.3 catch-up from peers first. A node
			// that is merely behind is not forked and must not wait for a
			// recovery checkpoint.
			if n.trySyncBehind() {
				// Caught up — but only rejoin immediately if the next
				// round can finish before the next recovery checkpoint.
				// A round spanning the checkpoint makes this node miss
				// the one moment the network reassembles (§8.2 recovery
				// and round retries run on the checkpoint grid), and a
				// few off-grid nodes can starve everyone's quorum when
				// committees are small.
				next := (n.proc.Now()/n.cfg.RecoveryInterval + 1) * n.cfg.RecoveryInterval
				if n.proc.Now()+n.roundBudget() > next {
					n.proc.Sleep(next - n.proc.Now())
				}
				continue
			}
			// No consensus within MaxSteps: wait for the next recovery
			// checkpoint (loosely synchronized clocks), then recover.
			next := (n.proc.Now()/n.cfg.RecoveryInterval + 1) * n.cfg.RecoveryInterval
			n.proc.Sleep(next - n.proc.Now())
			if n.halted {
				return
			}
			n.recover()
		}
	}
}

// liveFork reports whether the ledger holds a competing branch at least
// as long as the canonical one. Shorter dead-end branches — losers of an
// already completed recovery — stay in the ledger forever, but they are
// not evidence of live disagreement and must not drag the node back into
// recovery at every checkpoint.
func (n *Node) liveFork() bool {
	headRound := n.ledger.NextRound() - 1
	head := n.ledger.HeadHash()
	for _, tip := range n.ledger.ForkTips() {
		if tip.Block.Round >= headRound && tip.Hash != head {
			return true
		}
	}
	return false
}

// runRound executes one complete round: propose, wait, BA⋆, commit.
func (n *Node) runRound() error {
	round := n.ledger.NextRound()
	stat := RoundStat{Round: round, Start: n.proc.Now()}
	ctx := agreement.NewContext(n.ledger)
	n.setContext(ctx)

	// --- Block proposal (§6).
	n.proposeIfSelected(ctx, stat.Start)
	wres := blockprop.WaitOpts(n.proc, n.propInbox(round),
		n.cfg.Params.LambdaPriority, n.cfg.Params.LambdaStepVar, n.cfg.Params.LambdaBlock,
		n.cfg.Params.AblateKeepFirstOnEquivocation)
	stat.Equivocation = wres.Equivocation
	stat.PriorityLearned = wres.BestPriorityAt

	target := ctx.EmptyHash
	if wres.Block != nil {
		if err := n.ledger.ValidateBlock(wres.Block, n.proc.Now()); err == nil {
			target = wres.BlockHash
		}
	}
	stat.ProposalDone = n.proc.Now()
	n.tracer.Record(round, trace.PhasePropose, 0, stat.Start, stat.ProposalDone)

	// --- Agreement (§7).
	bres, err := agreement.RunWithoutFinal(n.env(round), ctx, target)
	if err != nil {
		n.setContext(nil)
		return err
	}
	stat.BinaryDone = n.proc.Now()
	stat.BinarySteps = bres.Steps
	return n.finishRound(ctx, bres, stat)
}

// finishRound is the one way a block this node agreed on reaches its
// chain: resolve → commit → persist → announce → post-commit hook →
// round stat. PipelineFinalStep decides only where the §7.4 final
// confirmation step runs: inline before the commit (Algorithm 3's
// order), or in a background process after it, overlapped with the next
// round (§10.2 pipelining), upgrading the committed block to final when
// the votes arrive.
func (n *Node) finishRound(ctx *agreement.Context, bres agreement.BinaryResult, stat RoundStat) error {
	round := ctx.Round
	cert := bres.Cert
	if !n.cfg.PipelineFinalStep {
		if fc := agreement.WaitFinal(n.env(round), ctx, bres.Value); fc != nil {
			cert, stat.Final = fc, true
		}
		n.tracer.Record(round, trace.PhaseCertify, 0, stat.BinaryDone, n.proc.Now())
	}

	block, ok := n.resolveBlock(ctx, bres.Value)
	if !ok {
		// Agreed on a body no reachable peer holds: whoever committed it
		// serves it with its certificate once we can reach them (§8.3).
		n.setContext(nil)
		return fmt.Errorf("round %d: agreed block %v not obtained from any peer", round, bres.Value)
	}
	commitStart := n.tracer.WallNow()
	if err := n.ledger.CommitHashed(block, bres.Value, cert); err != nil {
		// Agreed on a block we cannot apply: treat like no-consensus so
		// recovery reconciles us (should not happen in honest runs).
		n.setContext(nil)
		return fmt.Errorf("commit: %w", err)
	}
	n.tracer.Record(round, trace.PhaseCommit, 0, commitStart, n.tracer.WallNow())
	persistStart := n.tracer.WallNow()
	n.persistPut(block, cert)
	n.tracer.Record(round, trace.PhasePersist, 0, persistStart, n.tracer.WallNow())
	n.announceCommit(round, bres.Value)
	n.flow.Committed(block, n.ledger.Balances())
	stat.Empty = block.IsEmpty()
	stat.Value = bres.Value
	stat.End = n.proc.Now()
	n.Stats = append(n.Stats, stat)
	n.tracer.Record(round, trace.PhaseRound, 0, stat.Start, stat.End)
	n.roundsTotal.Inc()
	if stat.Empty {
		n.roundsEmpty.Inc()
	}
	if stat.Final {
		n.roundsFinal.Inc()
	}
	n.setContext(nil)
	if !n.cfg.PipelineFinalStep {
		return nil
	}

	// Keep accepting this round's final-step votes and count them in the
	// background; the next round starts immediately.
	statIdx := len(n.Stats) - 1
	n.finalCtxs[round] = ctx
	n.sim.Spawn(fmt.Sprintf("node-%d-final-%d", n.ID, round), func(p *vtime.Proc) {
		env := n.env(round)
		env.Proc = p
		certifyStart := p.Now()
		final := agreement.WaitFinal(env, ctx, bres.Value)
		delete(n.finalCtxs, round)
		if final == nil {
			return
		}
		n.tracer.Record(round, trace.PhaseCertify, 0, certifyStart, p.Now())
		n.Stats[statIdx].Final = true
		n.roundsFinal.Inc()
		// Upgrade the ledger entry and the archive to final.
		if err := n.ledger.CommitHashed(block, bres.Value, final); err == nil {
			n.persistPut(block, final)
		}
	})
	return nil
}

// proposeIfSelected runs proposer sortition, which ends the sortition span,
// and only if it selects us (§6) builds a block and gossips our proposal.
func (n *Node) proposeIfSelected(ctx *agreement.Context, roundStart time.Duration) {
	var res sortition.Result
	if w := ctx.Weights[n.identity.PublicKey()]; w > 0 {
		res = blockprop.Elect(n.identity, sortition.RoleProposer, ctx.Seed, ctx.Round,
			n.cfg.Params.TauProposer, w, ctx.TotalWeight)
	}
	n.tracer.Record(ctx.Round, trace.PhaseSortition, 0, roundStart, n.proc.Now())
	if !res.Selected() {
		return
	}
	block := n.buildBlock(ctx.Round)
	prop := blockprop.NewProposal(n.identity, ctx.Round, res, block)
	if n.Misbehave != nil {
		n.Misbehave(n, prop)
		return
	}
	n.ledger.RegisterProposal(block, prop.Block.AnnouncedHash())
	n.fetch.NoteBest(ctx.Round, prop.Priority.Priority)
	// Gossip the small priority message first (§6), then announce the
	// block body for our neighbors to pull.
	if !n.cfg.Params.AblateNoPriorityGossip {
		n.net.Gossip(n.ID, &PriorityGossip{M: prop.Priority})
	}
	n.seed(n.HoldProposal(&prop.Block))
	// Self-delivery so our own Wait sees the proposal.
	n.propInbox(ctx.Round).Send(blockprop.NewArrivalPriority(&prop.Priority))
	n.propInbox(ctx.Round).Send(blockprop.NewArrivalBlock(&prop.Block))
}

// buildBlock assembles a block of pending transactions for a round,
// with the §5.2 seed and padding up to the configured block size.
func (n *Node) buildBlock(round uint64) *ledger.Block {
	prevSeed := n.ledger.PrevSeed()
	out, proof := n.identity.VRFProve(ledger.SeedAlpha(prevSeed, round))
	assembleStart := n.tracer.WallNow()
	txs := n.flow.Assemble(n.ledger.Balances(), n.cfg.Params.BlockSize)
	n.tracer.Record(round, trace.PhaseAssemble, 0, assembleStart, n.tracer.WallNow())
	// The header commits the post-apply state root; the assembled
	// transactions are valid against the head state by construction, but
	// drop any straggler that does not apply rather than propose a block
	// every validator would reject.
	post := n.ledger.Balances().Clone()
	kept := txs[:0]
	for i := range txs {
		if post.ApplyTx(&txs[i]) == nil {
			kept = append(kept, txs[i])
		}
	}
	b := &ledger.Block{
		Round:     round,
		PrevHash:  n.ledger.HeadHash(),
		Timestamp: n.proc.Now(),
		StateRoot: post.Root(),
		Seed:      ledger.SeedFromVRF(out),
		SeedProof: proof,
		Proposer:  n.identity.PublicKey(),
		Txns:      kept,
	}
	if pad := n.cfg.Params.BlockSize - b.WireSize(); pad > 0 {
		b.PayloadPadding = pad
	}
	return b
}

// resolveBlock maps an agreed hash to block contents (Algorithm 3's
// BlockOfHash). A body this node never assembled is obtained "from other
// users" (§7.1) within λ_block; ok is false when no peer delivered it.
func (n *Node) resolveBlock(ctx *agreement.Context, h crypto.Digest) (*ledger.Block, bool) {
	if h == ctx.EmptyHash {
		return n.ledger.NextEmptyBlock(), true
	}
	return n.fetchBlock(n.proc, h, n.proc.Now()+n.cfg.Params.LambdaBlock)
}

// fetchBlock is the one way a node obtains a block it knows only by hash
// — the value BA⋆ agreed on, the fork §8.2 recovery agreed on, an ancestor
// of that fork: from its own ledger, else from its neighbours. It asks one
// at a time (the network agreed on or built on the block, so many honest
// users hold it, and each would answer with the whole body), moving to the
// next when one has had λ_step and not delivered, until the deadline. What
// comes back hashes to h (see the BlockFill handler), so the caller may
// file it under h without hashing it again. No certificate travels with
// it: the caller holds the one that makes h binding.
func (n *Node) fetchBlock(p *vtime.Proc, h crypto.Digest, deadline time.Duration) (*ledger.Block, bool) {
	if b, ok := n.ledger.BlockOfHash(h); ok {
		return b, true
	}
	n.blockFetches.Inc()
	n.blockWanted = h
	peers := n.net.Neighbors(n.ID)
	for i := 0; len(peers) > 0 && p.Now() < deadline && !n.halted; i++ {
		n.reqNonce++
		n.net.Unicast(n.ID, peers[i%len(peers)], &BlockRequest{Hash: h, Requester: n.ID, Nonce: n.reqNonce})
		if m, ok := p.RecvDeadline(n.blockFills, min(p.Now()+n.cfg.Params.LambdaStep, deadline)); ok {
			return m.(*ledger.Block), true
		}
	}
	n.blockWanted = crypto.Digest{}
	n.blockFetchFailures.Inc()
	return nil, false
}

// SetParams replaces the node's protocol parameters. Intended for test
// harnesses that script scenario phases (e.g. restoring thresholds
// after a partition window); the simulation's single-threaded execution
// makes the swap race-free.
func (n *Node) SetParams(p params.Params) { n.cfg.Params = p }

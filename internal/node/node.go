// Package node assembles the full Algorand user (§4, Figure 1): it
// collects pending transactions, runs block proposal (§6) and BA⋆ (§7)
// each round, maintains the ledger with certificates (§8.1, §8.3),
// validates and relays gossip traffic (§8.4), and falls back to the
// fork-recovery protocol (§8.2) when consensus stalls.
package node

import (
	"errors"
	"fmt"
	"slices"
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
	// Archive, when non-nil, is the node's §8.3 archive, on disk: every
	// commit, catch-up adoption, and §8.2 fork repair is journaled
	// (fsync'd) through it before the node proceeds, and Rejoin recovers
	// the chain from it instead of from genesis. Without one the chain
	// lives only in the ledger. The node owns writes to the archive for
	// its lifetime; the caller still owns Close.
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
	// CheckpointInterval, when positive, writes a state checkpoint —
	// block header, certificate, full account table — every that many
	// rounds: into the durable archive when one is configured, and
	// always into memory for serving SnapshotRequest peers. Restarting
	// or joining nodes fast-sync from the newest checkpoint plus a
	// catch-up delta instead of replaying the chain from genesis.
	CheckpointInterval uint64
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
	End             time.Duration // committed: the next round starts here
	// Finalized is when the round's §7.4 final step ended, after the
	// commit (Figure 7 top), and Final what it decided; zero and false
	// while it counts.
	Finalized    time.Duration
	BinarySteps  int
	Final        bool
	Empty        bool
	Equivocation bool
	Value        crypto.Digest
}

// Node is one simulated Algorand user.
type Node struct {
	ID       int
	cfg      Config
	provider crypto.Provider
	identity crypto.Identity
	ledger   *ledger.Ledger
	flow     *txflow.Flow
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

	// Vote inboxes per (round, step); proposal inboxes per round. The
	// inboxes of a finished round are emptied into spareInboxes and handed
	// out again before a new one is made.
	voteInboxes  map[[2]uint64]*vtime.Mailbox
	propInboxes  map[uint64]*vtime.Mailbox
	spareInboxes []*vtime.Mailbox
	// machines are the BA⋆ machines no round or §8.2 recovery attempt is
	// using (machineFor). A round's machine counts its final step after
	// the commit, so the next round takes another: a node grows one or two,
	// and a few while tentative rounds' final steps wait out λ_step.
	machines []*agreement.Machine
	// finals are the §7.4 final steps still counting, oldest first: each
	// round's, from its commit until its threshold or λ_step (openFinal).
	finals []*finalStep

	// Messages for the next round, buffered unverified with their senders
	// until we get there; pendingSize is their wire size, which bufferNext
	// bounds.
	pendingMsgs    map[uint64][]pending
	pendingSize    map[uint64]int
	pendingDropped *metrics.Counter

	// fetch is the block dissemination state (§6): the bodies announced
	// this round, the pieces of them held (and served to whoever asks),
	// requested and missing, and the best proposal priority seen, which
	// is also the §6 relay filter's. fetchTimer says a timeout check is
	// scheduled for the requests in flight.
	fetch      *blockprop.Fetcher
	fetchTimer bool
	// asked files the chain and snapshot requests out (see answer);
	// chainReplies and snapReplies take their answers (catchup.go, snapshot.go).
	asked        Requests
	chainReplies *vtime.Mailbox
	snapReplies  *vtime.Mailbox
	// catchup decides what the node's process does next (machine.go), and
	// cus shows its transitions.
	catchup catchup
	cus     catchupSeries
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

	// finished is set when the node's process has returned (ended, see
	// launch) and its last final step has ended; the transaction flush
	// timer reads it to stop re-arming. Atomic because SubmitTx reads it
	// from RPC goroutines while the scheduler winds the node down.
	finished atomic.Bool
	ended    bool
	// flushTick is flushTxBatches bound once, so that re-arming the timer
	// every tick allocates no method value.
	flushTick func()

	// alienVotes counts votes rejected for extending a different chain —
	// the fork signal that triggers recovery participation (§8.2).
	alienVotes int

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
	n := &Node{
		ID:           id,
		cfg:          cfg,
		provider:     provider,
		identity:     identity,
		ledger:       ledger.NewFromGenesis(provider, cfg.LedgerCfg, genesis),
		genesis:      genesis,
		flow:         txflow.New(provider, cfg.TxFlow),
		net:          net,
		sim:          sim,
		voteInboxes:  make(map[[2]uint64]*vtime.Mailbox),
		propInboxes:  make(map[uint64]*vtime.Mailbox),
		pendingMsgs:  make(map[uint64][]pending),
		pendingSize:  make(map[uint64]int),
		fetch:        blockprop.NewFetcher(id, blockprop.NewFetchMetrics(cfg.Metrics)),
		blockFills:   sim.NewMailbox(),
		chainReplies: sim.NewMailbox(),
		snapReplies:  sim.NewMailbox(),
		archive:      cfg.Archive,
		reg:          cfg.Metrics,
		tracer:       cfg.Tracer,
		ba:           agreement.NewMetrics(cfg.Metrics),
		catchup:      newCatchup(cfg.RecoveryInterval, cfg.CheckpointInterval > 0, roundWireTime(cfg.Params)),
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
	n.cus.register(cfg.Metrics)
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
// (BA⋆, txflow, tracing, round outcomes) records here. A rare event — a
// §8.2 recovery, a fork adoption, a snapshot sync or a refused checkpoint
// — registers its algorand_node_*_total counter where it first happens:
// most nodes never have one, and registered up front the four series grew
// every node's registry, 194 KB more for a 50-node cluster's set-up.
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

// PersistErrors reports how many archive writes failed permanently
// (after the diskstore's own rotate-and-retry) — each one a commit the
// node holds in memory but could not make durable.
func (n *Node) PersistErrors() int64 { return int64(n.persistErrors.Load()) }

// persist archives a head-chain block and the certificate the ledger
// holds for it, journaling them to the durable archive — fsync'd before
// this returns — when one is configured. The archive keeps b as its
// round's block, so a block of an abandoned fork never outlives the
// switch. The paper's §8.3 storage obligation: persist before the
// round's outcome is treated as settled.
func (n *Node) persist(b *ledger.Block, c *ledger.Certificate) {
	if n.archive != nil {
		if err := n.archive.Append(b, c); err != nil {
			n.persistErrors.Inc()
		}
	}
	n.maybeCheckpoint(b, c)
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
// emitting votes, proposing, and serving its archive. Its process ends
// once the wait it is in runs out: BA⋆ starts no further count, and the
// node neither syncs nor sleeps to a recovery checkpoint. Its ledger
// keeps its state, and so does its archive on disk: a replacement node
// for the same slot replays one or the other (ledger.CertifiedChain,
// Rejoin).
func (n *Node) Halt() { n.halted = true }

// Halted reports whether the node has been crashed via Halt.
func (n *Node) Halted() bool { return n.halted }

// Done reports whether the node has wound down — crashed via Halt, or
// completed its configured rounds and their final steps. A done node no
// longer flushes transaction batches or accepts submissions.
func (n *Node) Done() bool { return n.halted || n.finished.Load() }

func (n *Node) voteInbox(round, step uint64) *vtime.Mailbox {
	k := [2]uint64{round, step}
	mb, ok := n.voteInboxes[k]
	if !ok {
		mb = n.newInbox()
		n.voteInboxes[k] = mb
	}
	return mb
}

func (n *Node) propInbox(round uint64) *vtime.Mailbox {
	mb, ok := n.propInboxes[round]
	if !ok {
		mb = n.newInbox()
		n.propInboxes[round] = mb
	}
	return mb
}

// newInbox returns an empty mailbox: one a finished round left behind,
// with the queue it grew, or else a new one.
func (n *Node) newInbox() *vtime.Mailbox {
	k := len(n.spareInboxes)
	if k == 0 {
		return n.sim.NewMailbox()
	}
	mb := n.spareInboxes[k-1]
	n.spareInboxes = n.spareInboxes[:k-1]
	return mb
}

// retireInbox empties the inbox of a finished round for newInbox: what
// still waits in it — a straggler's vote, a late proposal — is dropped.
func (n *Node) retireInbox(mb *vtime.Mailbox) {
	mb.Reset()
	n.spareInboxes = append(n.spareInboxes, mb)
}

// machineFor returns a BA⋆ machine reset for ctx: one a round's final
// step or a recovery attempt gave back (releaseMachine), with the tally
// storage it grew, or else a new one.
func (n *Node) machineFor(ctx *agreement.Context) *agreement.Machine {
	k := len(n.machines)
	if k == 0 {
		return agreement.NewMachine(ctx, n.cfg.Params)
	}
	m := n.machines[k-1]
	n.machines = n.machines[:k-1]
	m.Reset(ctx, n.cfg.Params)
	return m
}

// releaseMachine gives back a machine whose round or attempt is over.
func (n *Node) releaseMachine(m *agreement.Machine) { n.machines = append(n.machines, m) }

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
		return n.handleVote(from, msg, cost)

	case *PriorityGossip:
		return n.handlePriority(from, msg, cost)

	case *BlockAnnounce:
		return n.handleAnnounce(from, msg, cost)

	case *BlockHave:
		return n.handleHave(from, msg)

	case *PieceRequest:
		// A piece goes to whoever asked: the request names nobody else.
		if p, lifted := n.fetch.Serve(from, msg.Hash, msg.Index); p != nil {
			n.net.Unicast(n.ID, from, &BlockPiece{P: p})
			if lifted {
				// The last piece of the stripe this neighbour was offered of a
				// body we proposed: it may now pull the rest.
				m, _ := n.fetch.Manifest(msg.Hash)
				n.net.Unicast(n.ID, from, &BlockHave{Round: m.Announce.Round, Hash: msg.Hash})
			}
		}
		return network.Verdict{Relay: false}

	case *BlockPiece:
		return n.handlePiece(from, msg, cost)

	case *BlockRequest:
		// §7.1 "obtain it from other users": any block we know, whole and
		// without credentials — the requester validates it against the
		// hash it asked for. Like a piece, it goes to whoever asked.
		if b, ok := n.ledger.BlockOfHash(msg.Hash); ok {
			n.net.Unicast(n.ID, from, &BlockFill{Block: b})
		}
		return network.Verdict{Relay: false}

	case *ChainRequest:
		return n.handleChainRequest(from, msg)

	case *ChainReply:
		return n.answer(from, n.chainReplies, msg)

	case *BlockFill:
		// The answer to fetchBlock's request, and only that: a fill nobody
		// is waiting for is dropped before it is hashed, one with another
		// hash after, so no peer can make this node keep a block.
		if n.blockWanted == (crypto.Digest{}) || msg.Block.Hash() != n.blockWanted {
			return network.Verdict{Relay: false}
		}
		n.blockWanted = crypto.Digest{}
		n.blockFills.Send(msg.Block)
		return network.Verdict{Relay: false}

	case *SnapshotRequest:
		return n.handleSnapshotRequest(from, msg)

	case *SnapshotReply:
		return n.answer(from, n.snapReplies, msg)
	}
	return network.Verdict{}
}

// answer hands a reply to the loop waiting on box if the node asked its
// sender for it (Requests.Take); anything else is dropped unread.
func (n *Node) answer(from int, box *vtime.Mailbox, m network.Message) network.Verdict {
	if tag, _ := MessageTag(m); n.asked.Take(from, tag) {
		box.Send(m)
	}
	return network.Verdict{Relay: false}
}

func (n *Node) handleVote(from int, msg *VoteMsg, cost crypto.CostModel) network.Verdict {
	cpu := cost.VerifySig + cost.VRFVerify
	v := &msg.Vote
	ctx, f := n.ctx, n.finalOf(v.Round)
	if f != nil {
		// The round's final step counts after its commit: its votes are
		// checked against its context and relayed as while the round ran.
		ctx = f.ctx
	}
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
		if f == nil {
			n.voteInbox(v.Round, v.Step).Send(&agreement.ValidatedVote{Vote: v, NumVotes: nv})
		} else if v.Step == agreement.StepFinal && f.count.Deliver(&agreement.ValidatedVote{Vote: v, NumVotes: nv}) {
			n.sim.Cancel(&f.beaten)
			n.endFinal(f)
		}
		return network.Verdict{Relay: true, CPU: cpu}
	case v.Round == ctx.Round+1:
		// We are a step behind; buffer and validate when we get there.
		return n.bufferNext(v.Round, from, msg)
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

func (n *Node) handlePriority(from int, msg *PriorityGossip, cost crypto.CostModel) network.Verdict {
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
		return n.bufferNext(m.Round, from, msg)
	default:
		return network.Verdict{Relay: false}
	}
}

// maxPendingBytes bounds what a node holds for the round after its own,
// none of which it can check before it knows that round's seed: more than
// a round of votes at the paper's committee sizes (2 000 a step over seven
// steps, 10 000 final, ~250 B each: 6 MB), so that only a flood meets it.
const maxPendingBytes = 8 << 20

// pending is a message buffered for the next round and the neighbour it
// came from.
type pending struct {
	from int
	m    network.Message
}

// bufferNext holds m, from neighbour from, for the next round, or drops
// and counts it when that round's buffer is full: a hostile neighbour
// cannot grow a node at will.
func (n *Node) bufferNext(round uint64, from int, m network.Message) network.Verdict {
	if size := n.pendingSize[round] + m.WireSize(); size <= maxPendingBytes {
		n.pendingSize[round] = size
		n.pendingMsgs[round] = append(n.pendingMsgs[round], pending{from, m})
	} else {
		n.pendingDropped.Inc()
	}
	return network.Verdict{Relay: false}
}

// handleAnnounce processes neighbour from's "I hold (part of) this block":
// after the credential and manifest checks the fetcher decides which
// pieces to pull from it (pull-based dissemination). A neighbour announces
// a body once; a copy of an announce it has made is dropped unverified.
func (n *Node) handleAnnounce(from int, msg *BlockAnnounce, cost crypto.CostModel) network.Verdict {
	cpu := cost.VerifySig + cost.VRFVerify
	m := &msg.Manifest.Announce
	ctx := n.ctx
	if m.Round >= ledger.RecoveryRoundBase && (ctx == nil || ctx.Round != m.Round) {
		ctx = n.recoveryCtxForRound(m.Round) // see handlePriority
	}
	if ctx == nil {
		return network.Verdict{Relay: false}
	}
	switch {
	case m.Round == ctx.Round:
		if n.fetch.Announced(m.Round, m.BlockHash, from) {
			return network.Verdict{Relay: false} // a copy: verified once already
		}
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
		// makes the sender no source and is not provably its fault: the
		// proposer may have signed both.
		acts, _ := n.fetch.OnAnnounce(n.sim.Now(), from, &msg.Manifest, msg.Have)
		n.runFetch(acts)
		return network.Verdict{Relay: false, CPU: cpu}
	case m.Round == ctx.Round+1:
		return n.bufferNext(m.Round, from, msg)
	default:
		return network.Verdict{Relay: false}
	}
}

// handleHave processes neighbour from's updated advertisement. It names a
// body by hash only: one the fetcher has no verified manifest for is
// ignored there.
func (n *Node) handleHave(from int, msg *BlockHave) network.Verdict {
	if ctx := n.ctx; ctx != nil && msg.Round == ctx.Round+1 {
		return n.bufferNext(msg.Round, from, msg)
	}
	n.runFetch(n.fetch.OnHave(n.sim.Now(), from, msg.Hash, msg.Have))
	return network.Verdict{Relay: false}
}

// handlePiece processes a piece arriving in answer to one of our
// requests. Verifying it costs one signature verification per
// materialized transaction; PayloadPadding models unverified payload
// bytes (the paper's evaluation proposes blocks of synthetic content;
// its measured CPU is dominated by vote/VRF verification, §10.3), so
// padding costs bandwidth but not CPU.
func (n *Node) handlePiece(from int, msg *BlockPiece, cost crypto.CostModel) network.Verdict {
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
			n.net.Unicast(n.ID, a.Peer, &PieceRequest{Hash: a.Hash, Index: a.Index})
		case blockprop.ActAdvertise:
			m, _ := n.fetch.Manifest(a.Hash)
			if a.First {
				n.net.Gossip(n.ID, &BlockAnnounce{Manifest: *m, Have: n.fetch.Have(a.Hash)})
				continue
			}
			// Later pieces are news only to the neighbours that lack them.
			have := &BlockHave{Round: m.Announce.Round, Hash: a.Hash, Have: n.fetch.Have(a.Hash)}
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
	return &BlockAnnounce{Manifest: *m}
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
	for _, p := range buffered {
		n.handleMessage(p.from, p.m) // relay verdict already settled at arrival
	}
	// Drop stale buffers and retire stale inboxes: earlier rounds, and on
	// a regular round every §8.2 recovery round.
	for r := range n.pendingMsgs {
		if ledger.RoundOver(r, ctx.Round) {
			delete(n.pendingMsgs, r)
			delete(n.pendingSize, r)
		}
	}
	for k, mb := range n.voteInboxes {
		if ledger.RoundOver(k[0], ctx.Round) {
			delete(n.voteInboxes, k)
			n.retireInbox(mb)
		}
	}
	for r, mb := range n.propInboxes {
		if ledger.RoundOver(r, ctx.Round) {
			delete(n.propInboxes, r)
			n.retireInbox(mb)
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
// each step's count as a ba_step span of the given round.
func (n *Node) env(round uint64) *agreement.Env {
	return &agreement.Env{
		Proc:     n.proc,
		Identity: n.identity,
		Gossip:   n.gossipVote,
		Inbox:    n.voteInbox,
		Metrics:  n.ba,
		Halted:   n.Halted,
		StepTimer: func(step uint64, took time.Duration, _ bool) {
			end := n.proc.Now()
			n.tracer.Record(round, trace.PhaseBAStep, step, end-took, end)
		},
	}
}

// Start spawns the node's main process at genesis, in lockstep with
// every other node of the deployment: it runs rounds until
// StopAfterRound is reached (or forever if zero). A node that is not
// starting with the network — restarted, or joining late — comes up
// through Rejoin instead.
func (n *Node) Start() {
	n.launch(fmt.Sprintf("node-%d", n.ID), func(*vtime.Proc) { n.run(n.catchup.Live(n.observe())) })
}

// launch starts what every running node has: the signature-verification
// workers, the one process (running body), and the gossip flush timer
// that ships freshly admitted transactions to neighbors in size-capped
// batches. The first tick is armed by an event queued right behind the
// process, not by launch itself: that puts it, and every tick after it,
// where the runs recorded in EXPERIMENTS.md and bench/ have it in the
// event order.
func (n *Node) launch(name string, body func(p *vtime.Proc)) {
	n.flow.Start(n.cfg.TxFlowWorkers)
	n.sim.Spawn(name, func(p *vtime.Proc) {
		n.proc = p
		defer func() {
			n.ended = true
			n.finish()
		}()
		body(p)
	})
	n.flushTick = n.flushTxBatches
	n.sim.After(0, func() { n.sim.After(TxFlushPeriod(n.cfg.Params), n.flushTick) })
}

// TxFlushPeriod is how long a freshly admitted transaction may wait in
// the outbox before its TxBatch leaves: a quarter of λ_priority, and
// never more than 100 ms. The quarter holds below λ_priority = 400 ms (on
// loopback, 37.5 ms at λ_priority = 150 ms): a period set apart from the
// round's own timers could exceed the round, and a fixed 250 ms there made
// a payment miss a proposal it had arrived in time for; less than a
// quarter buys no latency at the median and costs a frame per payment per
// hop. The cap holds from 400 ms up, every simulated workload and the
// paper's λ_priority = 5 s included, where the quarter would be 1.25 s: a
// payment waits this period at every relay on its way to the next
// proposer, and 100 ms is about one wide-area hop (§10's New York–London
// is 33 ms one way, its farthest pair about 130 ms), so the timer adds no
// more to a hop than the wire does. It is the knee of the simulator's
// curve: against 250 ms it takes 0.2 s off a payment's median
// confirmation, and 50 ms would take 0.02 s more for 1.5× the frames. The
// floor keeps a degenerate λ (a flag set to zero) from turning the
// flush timer into a spin. A gateway flushes on the same period.
func TxFlushPeriod(p params.Params) time.Duration {
	return max(time.Millisecond, min(100*time.Millisecond, p.LambdaPriority/4))
}

// flushTxBatches is the flush timer's tick: until the node is done it
// drains the pipeline's outbox into TxBatch gossip and re-arms itself
// TxFlushPeriod later.
func (n *Node) flushTxBatches() {
	if n.Done() {
		return
	}
	for _, batch := range n.flow.DrainOutbox(MaxTxBatchBytes) {
		n.net.Gossip(n.ID, &TxBatch{Txns: batch})
	}
	n.sim.After(TxFlushPeriod(n.cfg.Params), n.flushTick)
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

// runRound executes one round in Algorithm 3's order up to its commit:
// propose, wait, BA⋆ (Reduction and BinaryBA⋆), then resolve → commit →
// persist → post-commit hook → round stat. The round ends there and the
// next one starts: its §7.4 final step counts on after the commit
// (openFinal, §10.2), and attaches the round's certificate when it ends.
// It is the one way a block this node agreed on reaches its chain.
func (n *Node) runRound() error {
	round := n.ledger.NextRound()
	stat := RoundStat{Round: round, Start: n.proc.Now()}
	ctx := agreement.NewContext(n.ledger)
	n.setContext(ctx)
	defer n.setContext(nil)

	// --- Block proposal (§6).
	n.proposeIfSelected(ctx, stat.Start)
	wres := blockprop.Wait(n.proc, n.propInbox(round),
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
	env, m := n.env(round), n.machineFor(ctx)
	out, err := agreement.Drive(env, m, m.Start(target))
	if err != nil {
		n.releaseMachine(m)
		return err
	}
	stat.BinaryDone, stat.BinarySteps = n.proc.Now(), out.BinarySteps

	block, ok := n.resolveBlock(ctx, out.Value)
	if !ok {
		// Agreed on a body no reachable peer holds: whoever committed it
		// serves it with its certificate once we can reach them (§8.3).
		n.releaseMachine(m)
		return fmt.Errorf("round %d: agreed block %v not obtained from any peer", round, out.Value)
	}
	n.tracer.Record(round, trace.PhaseCertify, 0, stat.BinaryDone, n.proc.Now())
	// Committed and journaled with no certificate: the final step attaches
	// the round's one certificate when it ends.
	commitStart := n.tracer.WallNow()
	if err := n.ledger.CommitHashed(block, out.Value, nil); err != nil {
		// Agreed on a block we cannot apply: treat like no-consensus so
		// recovery reconciles us (should not happen in honest runs).
		n.releaseMachine(m)
		return fmt.Errorf("commit: %w", err)
	}
	n.tracer.Record(round, trace.PhaseCommit, 0, commitStart, n.tracer.WallNow())
	persistStart := n.tracer.WallNow()
	n.persist(block, nil)
	n.tracer.Record(round, trace.PhasePersist, 0, persistStart, n.tracer.WallNow())
	n.flow.Committed(block, n.ledger.Balances())
	stat.Empty = block.IsEmpty()
	stat.Value = out.Value
	stat.End = n.proc.Now()
	n.Stats = append(n.Stats, stat)
	n.tracer.Record(round, trace.PhaseRound, 0, stat.Start, stat.End)
	n.roundsTotal.Inc()
	if stat.Empty {
		n.roundsEmpty.Inc()
	}
	n.openFinal(ctx, env, m, block)
	return nil
}

// finalStep is a round's §7.4 final step, counted after the round's
// commit while the node runs the next round: the round's context, which
// the handler checks and relays the round's votes against while it
// counts, the count its final-step votes go to and the machine under it,
// the committed block the round's certificate is for, the round's index
// in Stats, and the flag that calls off its λ_step timer when the
// threshold beats it.
type finalStep struct {
	ctx    *agreement.Context
	count  *agreement.Count
	m      *agreement.Machine
	block  *ledger.Block
	stat   int
	beaten bool
}

// openFinal begins the final step of the round just committed on m, the
// machine that concluded its BinaryBA⋆: the count takes the final-step
// votes the node holds already, then each one handleVote checks, until
// they cross the threshold or a timer at λ_step ends it (endFinal).
func (n *Node) openFinal(ctx *agreement.Context, env *agreement.Env, m *agreement.Machine, block *ledger.Block) {
	f := &finalStep{ctx: ctx, m: m, block: block, stat: len(n.Stats) - 1}
	f.count = agreement.StartFinal(env, m)
	n.finals = append(n.finals, f)
	if _, ended := f.count.Outcome(); ended {
		n.endFinal(f)
		return
	}
	n.sim.AfterUnless(f.count.Deadline()-n.sim.Now(), func() {
		f.count.Timeout()
		n.endFinal(f)
	}, &f.beaten)
}

// finalOf returns the final step still counting for round, or nil.
func (n *Node) finalOf(round uint64) *finalStep {
	for _, f := range n.finals {
		if f.ctx.Round == round {
			return f
		}
	}
	return nil
}

// endFinal closes f, whose count has ended. Its round's stat records
// when and whether the round became final, and the round's one
// certificate — the final step's votes, or else the concluding BinaryBA⋆
// step's — is attached to the block (CommitHashed) and journaled
// (persist, which checkpoints a final round on the grid), unless the node
// has since left the block's branch. A halted node journals nothing.
func (n *Node) endFinal(f *finalStep) {
	n.finals = slices.DeleteFunc(n.finals, func(g *finalStep) bool { return g == f })
	out, _ := f.count.Outcome()
	st := &n.Stats[f.stat]
	st.Finalized, st.Final = n.sim.Now(), out.Final
	if st.Final {
		n.roundsFinal.Inc()
	}
	if h, ok := n.ledger.HashAt(st.Round); ok && h == st.Value {
		if err := n.ledger.CommitHashed(f.block, st.Value, out.Cert); err == nil && !n.halted {
			n.persist(f.block, out.Cert)
		}
	}
	n.releaseMachine(f.m)
	n.finish()
}

// finish marks the node done once its process has returned and its last
// final step has ended.
func (n *Node) finish() {
	if n.ended && len(n.finals) == 0 {
		n.finished.Store(true)
	}
}

// awaitFinals sleeps until the final steps still counting have ended —
// each within λ_step of its round's commit.
func (n *Node) awaitFinals() {
	for k := len(n.finals); k > 0 && !n.halted; k = len(n.finals) {
		n.proc.Sleep(n.finals[k-1].count.Deadline() - n.proc.Now())
	}
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
		n.net.Unicast(n.ID, peers[i%len(peers)], &BlockRequest{Hash: h})
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

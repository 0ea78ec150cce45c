package node

import "time"

// This file is catch-up as one pure state machine: §8.3 catch-up from
// peers (a checkpoint first when the node holds no round, then the
// chain), the way back to live rounds, and the §8.2 recovery checkpoint
// for a node that cannot finish a round. It holds no clock, mailbox,
// process or network. An input — a reply and what applying it did, a
// wait or a sleep that ran out, a round or a recovery that ended, the
// node halted — comes with a view of the node, and out comes a list of
// actions: asks, then one thing to wait for or do. run (catchup.go)
// carries them out in the node's process.

// stage is the step of a node's bring-up it is in.
type stage uint8

const (
	stageNone stage = iota
	stageOwnCheckpoint
	stageOwnArchive
	stagePeerSnapshot
	stagePeerChain
	stageLive
)

// cuKind says what the machine wants done.
type cuKind uint8

const (
	cuAskSnapshot cuKind = iota // ask Peer for a checkpoint past round Round
	cuAskChain                  // ask Peer for Blocks blocks from round Round
	cuWait                      // wait until At for the reply to the ask
	cuAdoptFork                 // adopt the branch of the reply that failed to apply
	cuSleep                     // sleep until At, to a recovery checkpoint if Checkpoint
	cuRecover                   // run §8.2 recovery; if IfForked, only on fork evidence
	cuLive                      // run a live round, again after a failed one if Retry
	cuStop                      // end the node's process
)

// cuAct is one instruction from the machine to its driver.
type cuAct struct {
	Kind     cuKind
	Peer     int
	Round    uint64
	Blocks   int
	At       time.Duration
	IfForked bool
	// Checkpoint and Retry say what the series count (run): a sleep to
	// a recovery checkpoint, a round after a failed one.
	Checkpoint, Retry bool
}

// view is what the machine is told of the node with every input.
type view struct {
	now     time.Duration
	head    uint64        // the head block's round
	final   uint64        // the last final block's round
	peers   []int         // the node's neighbours
	stopped bool          // the simulation is over
	done    bool          // the chain reached StopAfterRound
	budget  time.Duration // the longest a round may take (roundBudget)
}

// What the machine waits for when Elapsed or Recovered comes.
const (
	wChain    = iota // the reply to a chain ask
	wSnapshot        // the reply to a snapshot ask
	wBackoff         // the sleep between two snapshot asks
	wCheck           // the recovery at a new checkpoint
	wCaughtUp        // the sleep to the checkpoint after catching up
	wStuck           // the sleep to the checkpoint, then the recovery, of a node that could not catch up
)

// catchup is the machine. Its rules are the fields above the blank line,
// each set once, in newCatchup. The actions an input returns are valid
// until the next input.
type catchup struct {
	askBlocks int           // blocks a chain ask asks for (chainAskBlocks)
	perRound  time.Duration // a round's block on the link; a chain ask waits for what it asked
	// A sync ends at its deadline, or after stallsPerPeer asks per peer in
	// a row brought nothing. When a reply conflicts with the head and its
	// branch cannot be adopted, a sync asks again from past the last final
	// block, forkReasks times: the fork may lie below the reply's rounds.
	stallsPerPeer, forkReasks int
	backoff                   time.Duration // × the attempt: the sleep between snapshot asks
	bite                      time.Duration // one sync of a node whose live round failed
	// sleepAfterCatchUp sends a node that caught up to the next recovery
	// checkpoint when its round could not end before it: a round across
	// the checkpoint misses the moment the network reassembles.
	sleepAfterCatchUp bool
	interval          time.Duration // between recovery checkpoints
	snapshots         bool          // the deployment writes checkpoints

	stage  stage
	wait   int
	halted bool
	failed bool // the last round failed
	// rejoining: a sync returns to Rejoin's cycle (sync, then a round,
	// until a round succeeds, the budget ends or a cycle neither syncs nor
	// finishes a round), not to the bites of a live node whose round
	// failed (syncs while they advance the head). Folded into one, a
	// chaos seed went red.
	rejoining bool
	checked   time.Duration // when the live loop last looked at the checkpoint
	// The sync under way: peers, deadline, asks made, asks in a row that
	// brought nothing, re-asks made, the round of a re-ask, the snapshot
	// attempt and when the first began.
	peers                 []int
	deadline, snapAt      time.Duration
	asked, stalls, reasks int
	attempt               int
	from                  uint64
	rejoinBy              time.Duration // the rejoin's budget ends
	cycleHead             uint64        // the head the rejoin cycle began at
	behindHead, biteHead  uint64        // the head the catch-up and the bite began at
	buf                   [2]cuAct
	acts                  []cuAct
}

// replyWait bounds an ask's round trip: all a snapshot ask waits, and
// what a chain ask waits beyond the transfer of the blocks it asked for.
const replyWait = 2 * time.Second

// maxChainBlocks is the most blocks a peer serves one chain ask.
const maxChainBlocks = 64

// newCatchup makes the machine of a node whose link sends a round's
// block in perRound (> 0).
func newCatchup(interval time.Duration, snapshots bool, perRound time.Duration) catchup {
	return catchup{askBlocks: chainAskBlocks(perRound), perRound: perRound, stallsPerPeer: 2, forkReasks: 1,
		backoff: 500 * time.Millisecond, bite: 10 * time.Second, sleepAfterCatchUp: true,
		interval: interval, snapshots: snapshots}
}

// chainAskBlocks is the most rounds of perRound each whose transfer fits
// replyWait, 1 to 32, so that an ask is not sent again to the next peer
// while the first peer's uplink is still sending.
func chainAskBlocks(perRound time.Duration) int {
	return int(min(max(replyWait/perRound, 1), 32))
}

// Live is the start state of a node starting with the network.
func (m *catchup) Live(v view) []cuAct { m.acts = m.buf[:0]; return m.top(v) }

// Rejoin is the start state of a node brought up by Rejoin.
func (m *catchup) Rejoin(v view, budget time.Duration) []cuAct {
	m.acts = m.buf[:0]
	m.rejoining, m.rejoinBy, m.behindHead = true, v.now+budget, v.head
	return m.cycle(v)
}

// Halt says the node crashed: from its next decision on it asks for
// nothing and runs no round.
func (m *catchup) Halt() { m.halted = true }

// ChainReply takes the reply to a chain ask: the rounds applying it added
// to the head, and whether it failed to apply.
func (m *catchup) ChainReply(v view, applied int, failed bool) []cuAct {
	m.acts = m.buf[:0]
	switch {
	case failed:
		return append(m.acts, cuAct{Kind: cuAdoptFork})
	case applied == 0:
		m.stalls++
	default:
		m.stalls = 0
	}
	return m.askChain(v)
}

// Adopted takes the outcome of adopting a failed reply's branch.
func (m *catchup) Adopted(v view, ok bool) []cuAct {
	m.acts = m.buf[:0]
	switch {
	case ok:
		m.stalls = 0
	case m.reasks < m.forkReasks:
		m.reasks++
		m.from = v.final + 1
	default:
		return m.synced(v, false)
	}
	return m.askChain(v)
}

// SnapshotReply takes the reply to a snapshot ask: whether the node
// re-based onto its checkpoint.
func (m *catchup) SnapshotReply(v view, adopted bool) []cuAct {
	m.acts = m.buf[:0]
	if adopted {
		return m.snapshotted(v)
	}
	return m.nextSnapshot(v)
}

// Elapsed says the wait or the sleep ran out.
func (m *catchup) Elapsed(v view) []cuAct {
	m.acts = m.buf[:0]
	switch m.wait {
	case wChain:
		m.stalls++
		return m.askChain(v)
	case wSnapshot:
		return m.nextSnapshot(v)
	case wBackoff:
		return m.askSnapshot(v)
	case wCaughtUp:
		return m.top(v)
	}
	if m.halted {
		return m.stop()
	}
	return append(m.acts, cuAct{Kind: cuRecover})
}

// Recovered says a recovery ended.
func (m *catchup) Recovered(v view) []cuAct {
	m.acts = m.buf[:0]
	if m.wait == wCheck {
		m.checked = v.now
		return m.live()
	}
	return m.top(v)
}

// RoundDone says a live round committed a block.
func (m *catchup) RoundDone(v view) []cuAct {
	m.acts, m.failed = m.buf[:0], false
	return m.top(v)
}

// RoundFailed says a live round ended without a block.
func (m *catchup) RoundFailed(v view) []cuAct {
	m.acts, m.failed = m.buf[:0], true
	switch {
	case m.rejoining && (v.now >= m.rejoinBy || v.head == m.cycleHead):
		return m.top(v)
	case m.rejoining:
		return m.cycle(v)
	case m.halted:
		return m.stop()
	}
	m.behindHead = v.head
	return m.nextBite(v)
}

// top is the live loop's choice before a round: stop, recover at a new
// checkpoint if forked, or run the round.
func (m *catchup) top(v view) []cuAct {
	m.rejoining = false
	if v.stopped || m.halted || v.done {
		return m.stop()
	}
	if v.now/m.interval > m.checked/m.interval {
		m.wait = wCheck
		return append(m.acts, cuAct{Kind: cuRecover, IfForked: true})
	}
	m.checked = v.now
	return m.live()
}

func (m *catchup) live() []cuAct {
	m.stage = stageLive
	return append(m.acts, cuAct{Kind: cuLive, Retry: m.failed})
}

func (m *catchup) stop() []cuAct { return append(m.acts, cuAct{Kind: cuStop}) }

func (m *catchup) sleep(wait int, at time.Duration) []cuAct {
	m.wait = wait
	return append(m.acts, cuAct{Kind: cuSleep, At: at, Checkpoint: wait != wBackoff})
}

// cycle begins a sync of the rejoin cycle, nextBite one of a behind node.
func (m *catchup) cycle(v view) []cuAct {
	if v.stopped || m.halted {
		return m.top(v)
	}
	m.cycleHead = v.head
	return m.sync(v, m.rejoinBy)
}

func (m *catchup) nextBite(v view) []cuAct {
	if m.halted {
		return m.caughtUp(v)
	}
	m.biteHead = v.head
	return m.sync(v, v.now+m.bite)
}

// sync begins catching up from the peers until deadline: from a snapshot
// first when the node holds no round and the deployment writes them.
func (m *catchup) sync(v view, deadline time.Duration) []cuAct {
	m.peers = v.peers
	if len(m.peers) == 0 {
		return m.synced(v, false)
	}
	m.deadline, m.asked, m.stalls, m.reasks, m.from = deadline, 0, 0, 0, 0
	if m.snapshots && v.head == 0 {
		m.attempt, m.snapAt = 0, v.now
		return m.askSnapshot(v)
	}
	return m.askChain(v)
}

func (m *catchup) askSnapshot(v view) []cuAct {
	if m.halted {
		return m.snapshotted(v)
	}
	m.stage, m.wait = stagePeerSnapshot, wSnapshot
	return append(m.acts, cuAct{Kind: cuAskSnapshot, Peer: m.peers[m.attempt], Round: v.head},
		cuAct{Kind: cuWait, At: v.now + replyWait})
}

// nextSnapshot asks the next peer after a backoff, or ends the attempts
// once every peer was asked.
func (m *catchup) nextSnapshot(v view) []cuAct {
	if m.attempt++; m.attempt == len(m.peers) {
		return m.snapshotted(v)
	}
	return m.sleep(wBackoff, v.now+time.Duration(m.attempt)*m.backoff)
}

// snapshotted ends the snapshot attempts, whose time the sync's deadline
// does not count.
func (m *catchup) snapshotted(v view) []cuAct {
	m.deadline += v.now - m.snapAt
	return m.askChain(v)
}

func (m *catchup) askChain(v view) []cuAct {
	if v.now >= m.deadline || m.stalls >= m.stallsPerPeer*len(m.peers) || m.halted {
		return m.synced(v, true)
	}
	from, blocks := v.head+1, m.askBlocks
	if m.from > 0 {
		// A re-ask reaches a round past the head: a branch is adopted only
		// if it is certified past the head (tryAdoptFork).
		from, m.from = m.from, 0
		blocks = int(min(max(v.head+2-from, uint64(blocks)), maxChainBlocks))
	}
	peer := m.peers[m.asked%len(m.peers)]
	m.asked++
	m.stage, m.wait = stagePeerChain, wChain
	return append(m.acts, cuAct{Kind: cuAskChain, Peer: peer, Round: from, Blocks: blocks},
		cuAct{Kind: cuWait, At: v.now + replyWait + time.Duration(blocks)*m.perRound})
}

// synced ends a sync; ok is false when it had no peer or met a conflict
// it could not resolve, and then a rejoining node ends its catch-up as a
// behind node does.
func (m *catchup) synced(v view, ok bool) []cuAct {
	switch {
	case m.rejoining && v.done:
		return m.stop()
	case m.rejoining && ok:
		return m.live()
	case ok && v.head != m.biteHead:
		return m.nextBite(v)
	}
	return m.caughtUp(v)
}

// caughtUp ends a behind or rejoining node's catch-up (behindHead is the
// head it began at). A node that advanced goes live,
// or first sleeps to the next recovery checkpoint (sleepAfterCatchUp); one
// that did not sleeps to it and recovers.
func (m *catchup) caughtUp(v view) []cuAct {
	next := (v.now/m.interval + 1) * m.interval
	switch {
	case v.head <= m.behindHead:
		return m.sleep(wStuck, next)
	case m.sleepAfterCatchUp && v.now+v.budget > next:
		return m.sleep(wCaughtUp, next)
	}
	return m.top(v)
}

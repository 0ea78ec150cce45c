// Package network simulates Algorand's gossip network (§4, §8.4) on the
// vtime runtime: each user picks a small set of random peers (weighted
// by money to resist pollution attacks), signs every message, validates
// before relaying, never relays the same message twice, and relays at
// most one message per (sender, round, step).
//
// The transport model reproduces the paper's evaluation setup (§10):
// per-process bandwidth caps (PaperLinkBps, 20 Mbit/s), four outgoing
// peers, inter-city propagation latency with ±10 % jitter, and optionally
// a shared per-VM NIC for the Figure 6 bottleneck experiment. These are
// constants; a Config sets only the seed and the Figure 6 grouping.
// Message transmission serializes on the sender's uplink — gossiping a
// 1 MB block to four peers costs four back-to-back transmissions — and on
// the receiver's downlink, which is what makes block propagation time
// grow linearly with block size (Figure 7). On either link a Reply yields: a vote queued behind block
// pieces waits only for the piece being transmitted.
package network

import (
	"math"
	"math/rand"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/metrics"
	"algorand/internal/vtime"
)

// Message is anything sent on the network.
type Message interface {
	// WireSize is the serialized size in bytes, for bandwidth modeling.
	WireSize() int
}

// Flooded is a Message that travels more than one hop: the only kind an
// endpoint relays, and so the only kind whose copies reach it by many
// paths. Its ID is what duplicate suppression remembers, and it must cover
// every byte the receiver authenticates: a message is marked seen before it
// is verified, so a forged copy that shared a genuine message's ID would
// shadow it. An endpoint relays at most RelayLimit messages sharing a
// LimitKey (§8.4; a limit of two lets equivocation evidence travel).
// Every other message, gossiped to the origin's neighbours or unicast, goes
// straight to its handler, each copy of it, and is never relayed: a
// handler's own state takes a reply or an announce once.
type Flooded interface {
	Message
	ID() crypto.Digest
	LimitKey() LimitKey
	RelayLimit() int
}

// Reply is a Message that answers a request with a body: a block piece, a
// committed block, a chain or a checkpoint. On every link a reply yields:
// it waits behind every other message queued there, and any other message
// waits only for the reply being transmitted, so a vote is never queued
// behind the bodies a holder owes its requesters. Replies keep their order
// among themselves. Both transports pick a message's class through this
// marker alone.
type Reply interface {
	Message
	Reply()
}

// LimitKey names one relay budget of §8.4: a kind of message, the first
// eight bytes of its sender's key, a round and a step. It is a fixed-size
// comparable value, so the caches key on it directly and building one
// costs nothing.
type LimitKey struct {
	Kind   byte
	Sender [8]byte
	Round  uint64
	Step   uint64
}

// NewLimitKey builds the key for a message of the given kind (non-zero)
// from sender.
func NewLimitKey(kind byte, sender crypto.PublicKey, round, step uint64) LimitKey {
	return LimitKey{Kind: kind, Sender: [8]byte(sender[:8]), Round: round, Step: step}
}

// Verdict is a node's decision about a received message.
type Verdict struct {
	// Relay: forward to our peers (after validation, §8.4).
	Relay bool
	// CPU is the modeled verification cost; it is charged to the node's
	// CPU accounting and delays the node's subsequent processing.
	CPU time.Duration
}

// Handler receives messages delivered to a node. It runs in scheduler
// context and must not block; typical implementations verify the
// message and enqueue it into vtime mailboxes for the node's process.
type Handler interface {
	HandleMessage(from int, m Message) Verdict
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(from int, m Message) Verdict

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from int, m Message) Verdict {
	return f(from, m)
}

// Config is what a simulation sets: the randomness and the Figure 6
// grouping. Everything else about the transport is a constant below.
type Config struct {
	// ProcsPerVM > 1 groups that many consecutive nodes onto one virtual
	// machine sharing a single NIC of PaperLinkBps up and down,
	// reproducing the Figure 6 bottleneck. Zero or one gives every node a
	// NIC of its own.
	ProcsPerVM int
	// Seed drives all of the network's randomness.
	Seed int64
}

const (
	// PaperLinkBps is §10's per-user link: 20 Mbit/s each way. Every
	// uplink, downlink and shared VM NIC runs at it.
	PaperLinkBps = 20_000_000
	// SeenTTL bounds the duplicate-suppression and relay-limit records of
	// both transports in time: a record suppresses matching messages for
	// between one and two TTLs, then is forgotten. Real gossip
	// implementations time-bound these records to bound memory; here
	// expiry is also what keeps a retried BA⋆ round live — the §8.4 relay
	// limit is keyed by (sender, round, step), and if a failed attempt's
	// keys never expired, the retry's fresh votes would reach direct peers
	// but never be relayed, wedging the round forever.
	SeenTTL = time.Minute
	// fanout is the number of outgoing gossip peers per node (paper: 4
	// outgoing, ~8 total with incoming).
	fanout = 4
	// latencyJitter adds ±latencyJitter×latency of uniform jitter per
	// message.
	latencyJitter = 0.10
)

// DefaultConfig matches the paper's evaluation setup.
func DefaultConfig() Config { return Config{Seed: 1} }

// settings is a Config and the values it does not carry. New gives every
// network the constants; this package's tests build settings of their own
// (no jitter, a shorter TTL, a faster VM NIC).
type settings struct {
	Config
	jitter  float64
	seenTTL time.Duration
	nicBps  int64 // every NIC's rate, a node's own or its VM's
}

// link models a bandwidth-limited queue (an uplink or downlink) of two
// classes: replies, and every other message, which goes ahead of any reply
// not yet begun.
type link struct {
	bps int64
	// free is when the link has sent everything it holds; gossipFree when
	// it has sent every message that is not a reply. Neither decreases.
	free, gossipFree time.Duration
	// replies are the transmissions of replies that have not ended, in the
	// order reserved; a message that goes ahead of replies does not move
	// them (the delivery of each is already scheduled), it only pushes free
	// back by its own transmission time.
	replies spans
	// deliveries and replyDeliveries hold, on a downlink, the transfers
	// that finish on it, each due at the gossipFree or the free it
	// reserved, so the times in each lane do not decrease (see vtime.Lane).
	deliveries, replyDeliveries *vtime.Lane
}

// transmit reserves the link for a message of the given size that is
// ready at `at`, now being the clock, and returns the completion time. A
// reply waits for everything reserved; any other message waits for the
// messages of its class and for the reply in progress when it is ready.
func (l *link) transmit(now, at time.Duration, bytes int, reply bool) time.Duration {
	tx := time.Duration(float64(bytes*8) / float64(l.bps) * float64(time.Second))
	l.replies.expire(now)
	if reply {
		start := max(at, l.free)
		l.free = start + tx
		l.replies.push(span{start, l.free})
		return l.free
	}
	start := max(at, l.gossipFree)
	if start == at {
		start = l.replies.after(at)
	}
	l.gossipFree = start + tx
	l.free = max(l.free+tx, l.gossipFree)
	return l.gossipFree
}

// span is one reserved transmission, [start, end).
type span struct{ start, end time.Duration }

// spans is a ring of spans in the order reserved, which is also the order
// of their starts and of their ends. Its buffer grows to the most spans
// ever held at once and is reused, so a reservation allocates nothing.
type spans struct {
	buf     []span
	head, n int
}

// push appends s.
func (r *spans) push(s span) {
	if r.n == len(r.buf) {
		buf := make([]span, max(4, 2*len(r.buf)))
		for i := range r.n {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

// expire drops the spans that have ended by now.
func (r *spans) expire(now time.Duration) {
	for r.n > 0 && r.buf[r.head].end <= now {
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
}

// after returns the end of the span in progress at t, or t if none is.
func (r *spans) after(t time.Duration) time.Duration {
	for i := range r.n {
		s := r.buf[(r.head+i)%len(r.buf)]
		if s.start > t {
			break
		}
		if t < s.end {
			return s.end
		}
	}
	return t
}

// endpoint is the per-node network state.
type endpoint struct {
	id    int
	city  int
	peers []int // outgoing connections
	// neighbors is the union of outgoing and incoming connections; like
	// the paper's prototype ("each user connects to 4 random peers,
	// accepts incoming connections ... and gossips messages to all of
	// them. This gives us 8 peers on average"), messages are relayed on
	// every connection.
	neighbors []int
	handler   Handler

	up, down *link // possibly shared across a VM

	// cpuFree is when the node's modeled CPU is next idle; relays holds
	// its relays, each due when the verification before it ends. Neither
	// that time nor the clock runs backwards, so the lane's times do not.
	cpuFree time.Duration
	relays  *vtime.Lane

	// Per-endpoint counters. Standalone metrics primitives, not
	// registered anywhere: a registry series per endpoint would not
	// scale to the paper's 500k users. NodeStats reads them.
	bytesSent     metrics.Counter
	bytesReceived metrics.Counter
	msgsReceived  metrics.Counter
	dupsDropped   metrics.Counter
	msgsLost      metrics.Counter // outgoing transfers dropped by link faults
	cpuUsedNs     metrics.Counter
}

// LinkFault is a scripted per-link impairment (chaos testing): matched
// transfers are dropped with probability LossProb and/or delayed by
// ExtraDelay plus a uniform draw in [0, ExtraJitter). Loss and jitter
// draws come from the network's dedicated fault RNG (see SeedFaults),
// so a run with a fixed seed replays the exact same drops and delays.
type LinkFault struct {
	// Match selects the links the fault applies to; nil matches every
	// link.
	Match func(from, to int) bool
	// Active gates the fault by virtual time; nil means always active.
	Active func(now time.Duration) bool
	// LossProb is the per-transfer drop probability in [0, 1].
	LossProb float64
	// ExtraDelay is added to the link's propagation latency.
	ExtraDelay time.Duration
	// ExtraJitter adds a further uniform delay in [0, ExtraJitter).
	ExtraJitter time.Duration
}

// LimboFault scripts the "undecidable message" adversary of Conti et
// al. (PAPERS.md): captured transfers are neither delivered on schedule
// nor provably dropped — they sit in limbo past the receiver's step
// timeouts and are released at an instant of the adversary's choosing
// (HoldFor plus a uniform draw in [0, HoldJitter)). BA⋆ must treat the
// silence as a timeout and still terminate; the late release then tests
// that stale messages from long-decided steps cannot unwind anything.
// Draws come from the network's dedicated fault RNG (SeedFaults), so a
// fixed seed replays the exact same captures and release instants.
type LimboFault struct {
	// Match selects the links the fault applies to; nil matches every
	// link.
	Match func(from, to int) bool
	// Active gates capture by virtual time; nil means always active.
	// Only capture is gated — a message captured inside the window is
	// still released after it.
	Active func(now time.Duration) bool
	// HoldProb is the per-transfer capture probability in [0, 1].
	HoldProb float64
	// HoldFor is the minimum limbo duration before release; choose it
	// larger than the protocol's step timeout to make the message
	// genuinely undecidable for the receiver.
	HoldFor time.Duration
	// HoldJitter adds a uniform extra hold in [0, HoldJitter).
	HoldJitter time.Duration
}

// Network is the simulated gossip network.
type Network struct {
	sim *vtime.Sim
	cfg settings
	rng *rand.Rand
	eps []*endpoint
	// weights drives money-weighted peer selection.
	weights []uint64

	// partitions holds the installed message filters; a transfer is
	// dropped when ANY filter returns true (the OR composition lets
	// independently scripted faults — a world split and a targeted DoS,
	// say — apply simultaneously).
	partitions []func(from, to int) bool

	// faults are the installed link impairments; faultRng drives their
	// loss and jitter draws, separate from the topology RNG so that
	// installing a fault never perturbs peer selection.
	faults   []LinkFault
	faultRng *rand.Rand

	// limbos are the installed undecidable-message schedules (capture
	// draws also come from faultRng).
	limbos []LimboFault

	// cur and old are the two live generations of the duplicate and
	// relay-limit records. Lookups consult both, marks go to cur, and
	// rotation (every seenTTL, last at lastRotate, counted by
	// stamp) empties old and makes it cur: a mark lives between one and two
	// TTLs.
	cur, old   generation
	stamp      uint32
	lastRotate time.Duration

	// idle is the free list of transfer records, linked through their
	// next, and spare that of envelopes, linked through theirs.
	idle  *transfer
	spare *envelope

	// Aggregate counters, read through TotalBytes, TotalMsgs, TotalLost
	// and TotalLimbo.
	totalBytes metrics.Counter
	totalMsgs  metrics.Counter
	totalLost  metrics.Counter
	totalLimbo metrics.Counter
}

// New creates a network of n nodes on sim. Handlers start nil; call
// SetHandler before gossiping to a node.
func New(sim *vtime.Sim, cfg Config, n int) *Network {
	return newNetwork(sim, defaults(cfg), n)
}

// defaults is cfg with the constants beside it.
func defaults(cfg Config) settings {
	return settings{Config: cfg, jitter: latencyJitter, seenTTL: SeenTTL, nicBps: PaperLinkBps}
}

// newNetwork is New on settings of the caller's.
func newNetwork(sim *vtime.Sim, cfg settings, n int) *Network {
	nw := &Network{
		sim:     sim,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		weights: make([]uint64, n),
	}
	var up, down *link // a node's own, or its VM's, made at the VM's first node
	for i := 0; i < n; i++ {
		ep := &endpoint{id: i, city: i % NumCities, relays: sim.NewLane()}
		if cfg.ProcsPerVM <= 1 || i%cfg.ProcsPerVM == 0 {
			up, down = &link{bps: cfg.nicBps}, &link{bps: cfg.nicBps, deliveries: sim.NewLane(), replyDeliveries: sim.NewLane()}
		}
		ep.up, ep.down = up, down
		nw.weights[i] = 1
		nw.eps = append(nw.eps, ep)
	}
	nw.rotate()
	nw.ReshufflePeers()
	return nw
}

// SetHandler installs the message handler for node id.
func (nw *Network) SetHandler(id int, h Handler) {
	nw.eps[id].handler = h
}

// SetWeights updates the money weights used for peer selection.
func (nw *Network) SetWeights(w []uint64) {
	copy(nw.weights, w)
	nw.ReshufflePeers()
}

// ReshufflePeers re-draws every node's outgoing peers, weighted by
// money (§4). The paper replaces gossip peers each round to heal
// disconnected components (§8.4).
func (nw *Network) ReshufflePeers() {
	n := len(nw.eps)
	if n <= 1 {
		return
	}
	var total uint64
	for _, w := range nw.weights {
		total += w
	}
	for _, ep := range nw.eps {
		k := min(fanout, n-1)
		ep.peers = ep.peers[:0]
		chosen := map[int]bool{ep.id: true}
		for len(ep.peers) < k {
			var pick int
			if total > 0 {
				target := uint64(nw.rng.Int63n(int64(total)))
				var acc uint64
				for i, w := range nw.weights {
					acc += w
					if target < acc {
						pick = i
						break
					}
				}
			} else {
				pick = nw.rng.Intn(n)
			}
			if chosen[pick] {
				// Fall back to uniform scanning to terminate even under
				// extreme weight skew.
				pick = nw.rng.Intn(n)
				if chosen[pick] {
					continue
				}
			}
			chosen[pick] = true
			ep.peers = append(ep.peers, pick)
		}
	}
	// Build the undirected neighbor sets (outgoing ∪ incoming).
	sets := make([]map[int]bool, n)
	for i := range sets {
		sets[i] = make(map[int]bool, 2*fanout)
	}
	for _, ep := range nw.eps {
		for _, p := range ep.peers {
			sets[ep.id][p] = true
			sets[p][ep.id] = true
		}
	}
	for _, ep := range nw.eps {
		ep.neighbors = ep.neighbors[:0]
		// Deterministic order.
		for i := 0; i < n; i++ {
			if sets[ep.id][i] {
				ep.neighbors = append(ep.neighbors, i)
			}
		}
	}
}

// Peers returns node id's current outgoing peers (for tests).
func (nw *Network) Peers(id int) []int { return nw.eps[id].peers }

// Neighbors returns node id's full relay set (outgoing ∪ incoming).
func (nw *Network) Neighbors(id int) []int { return nw.eps[id].neighbors }

// AddPartition installs a message filter alongside the existing ones; a
// transfer is silently dropped when any installed filter matches it. It
// is how a network partition is scripted (weak synchrony, §3): a filter
// for a bounded window gates on virtual time itself (it is cheap to keep
// installed after expiry).
func (nw *Network) AddPartition(f func(from, to int) bool) {
	nw.partitions = append(nw.partitions, f)
}

// Partitioned reports whether the installed filters would currently drop
// a transfer from one node to another.
func (nw *Network) Partitioned(from, to int) bool {
	for _, f := range nw.partitions {
		if f(from, to) {
			return true
		}
	}
	return false
}

// SeedFaults (re)seeds the RNG that drives link-fault loss and jitter
// draws. Chaos harnesses call it with the scenario seed so that a run is
// an exact function of (program, scenario). Without an explicit call the
// fault RNG is seeded from the network config's Seed.
func (nw *Network) SeedFaults(seed int64) {
	nw.faultRng = rand.New(rand.NewSource(seed))
}

// AddLinkFault installs a link impairment. Faults accumulate; a transfer
// suffers every matching fault (losses compound, delays add).
func (nw *Network) AddLinkFault(f LinkFault) {
	if nw.faultRng == nil {
		nw.SeedFaults(nw.cfg.Seed)
	}
	nw.faults = append(nw.faults, f)
}

// AddLimboFault installs an undecidable-message schedule. Limbo faults
// accumulate; a transfer captured by several holds for the longest of
// their draws.
func (nw *Network) AddLimboFault(f LimboFault) {
	if nw.faultRng == nil {
		nw.SeedFaults(nw.cfg.Seed)
	}
	nw.limbos = append(nw.limbos, f)
}

// applyLimbo runs the installed limbo faults for one transfer. It
// reports the extra hold to apply and whether the transfer was captured.
func (nw *Network) applyLimbo(from, to int, now time.Duration) (time.Duration, bool) {
	var hold time.Duration
	captured := false
	for i := range nw.limbos {
		f := &nw.limbos[i]
		if f.Active != nil && !f.Active(now) {
			continue
		}
		if f.Match != nil && !f.Match(from, to) {
			continue
		}
		if f.HoldProb < 1 && nw.faultRng.Float64() >= f.HoldProb {
			continue
		}
		h := f.HoldFor
		if f.HoldJitter > 0 {
			h += time.Duration(nw.faultRng.Int63n(int64(f.HoldJitter)))
		}
		if h > hold {
			hold = h
		}
		captured = true
	}
	return hold, captured
}

// applyFaults runs the installed link faults for one transfer at the
// given virtual time. It reports whether the transfer is dropped and, if
// not, the total extra latency to add.
func (nw *Network) applyFaults(from, to int, now time.Duration) (bool, time.Duration) {
	var extra time.Duration
	for i := range nw.faults {
		f := &nw.faults[i]
		if f.Active != nil && !f.Active(now) {
			continue
		}
		if f.Match != nil && !f.Match(from, to) {
			continue
		}
		if f.LossProb > 0 && nw.faultRng.Float64() < f.LossProb {
			return true, 0
		}
		extra += f.ExtraDelay
		if f.ExtraJitter > 0 {
			extra += time.Duration(nw.faultRng.Int63n(int64(f.ExtraJitter)))
		}
	}
	return false, extra
}

// generation is one SeenTTL of what the endpoints have learned about
// messages, kept once per message and not once per receiver. seen numbers
// the message IDs and relays the §8.4 budgets, from 1, as they turn up;
// bitset r (bit i: endpoint i has processed the message) and count array r
// (the relays endpoint i has spent on the budget) lie in slabs of
// slabRecords each: a map entry and N/8 bytes a message, N a budget.
type generation struct {
	seen   map[seenKey]int32
	relays map[LimitKey]int32
	bits   [][]uint64
	counts [][]uint8
}

const slabRecords = 256

// enter returns key's record number, numbering it if the generation has
// not met key yet and growing the slabs of n-element records when it lies
// past them (a recycled generation starts with its slabs, zeroed).
func enter[K comparable, T any](index map[K]int32, slabs *[][]T, key K, n int) int32 {
	r, ok := index[key]
	if !ok {
		if len(index)/slabRecords == len(*slabs) {
			*slabs = append(*slabs, make([]T, n*slabRecords))
		}
		r = int32(len(index) + 1)
		index[key] = r
	}
	return r
}

// record is the n elements of record r; nil for r == 0, no record.
func record[T any](slabs [][]T, r int32, n int) []T {
	if r == 0 {
		return nil
	}
	o := int(r-1) % slabRecords * n
	return slabs[int(r-1)/slabRecords][o : o+n]
}

// rotate makes the current generation the old one and forgets the
// previous old one, for every endpoint at the same instant. The forgotten
// generation, emptied, becomes the current one, its maps and slabs kept at
// the size the traffic gave them; the first rotation has none to recycle
// and sizes its maps from the generation it follows.
func (nw *Network) rotate() {
	g := nw.old
	if g.seen == nil {
		g = generation{seen: make(map[seenKey]int32, len(nw.cur.seen)), relays: make(map[LimitKey]int32, len(nw.cur.relays))}
	} else {
		clear(g.seen)
		clear(g.relays)
		for _, s := range g.bits {
			clear(s)
		}
		for _, s := range g.counts {
			clear(s)
		}
	}
	nw.old, nw.cur = nw.cur, g
	nw.stamp++
}

// maybeRotate ages the suppression records once per SeenTTL of virtual
// time.
func (nw *Network) maybeRotate() {
	if now := nw.sim.Now(); now-nw.lastRotate >= nw.cfg.seenTTL {
		nw.lastRotate = now
		nw.rotate()
	}
}

// envelope is a message in flight with what the network needs to know
// about it, worked out once when it enters Gossip or Unicast: its size
// and, for a Flooded message, its ID and relay budget (a vote's ID hashes
// its signed bytes and signature), which every hop and every duplicate
// delivery used to ask again.
//
// An envelope counts its holders in refs: the transfers carrying it, and
// the Gossip or Unicast call that sealed it while that runs. The last to
// let go puts it on the free list Network.spare, linked through next, so
// an envelope is allocated only when more messages are in flight than
// ever before. A holder lets go once it is done with the envelope: a
// transfer after its delivery or relay has returned, because a handler
// sends from inside a delivery, and a transfer held in limbo past any
// number of rotations still holds its own message.
type envelope struct {
	m    Message
	nw   *Network
	next *envelope
	id   seenKey
	size int
	// limitKey and limit are the message's §8.4 relay budget: at most
	// limit relays per endpoint of messages sharing limitKey.
	limitKey LimitKey
	limit    uint8
	// flooded says the message is Flooded: it has an ID and records, and
	// it may be relayed. Any other message is handed to each receiver as
	// it arrives.
	flooded bool
	// reply says the message is a Reply: it yields on every link.
	reply bool
	refs  int32
	// The numbers of the message's records in the current and the old
	// generation (0: none) as of rotation number stamp. They are looked up
	// again after a rotation, so a delivery released from limbo two TTLs
	// on meets what per-endpoint caches would have told it, and in between
	// a delivery is a bit test. Envelopes of one ID share one record.
	stamp             uint32
	seen, seenOld     int32
	relays, relaysOld int32
}

// seenKey is what the network keeps of a message ID: its leading 128
// bits, still nothing two honest messages will share. It is kept once per
// envelope and once per generation that meets the message; with most
// messages unicast once, the other half of the digest in both places is
// 6.5 % of what sim-bigblock-10mb allocates (EXPERIMENTS.md, eighth delta).
type seenKey [16]byte

// seal returns an envelope for m held once, by the caller, who lets go of
// it with release.
func (nw *Network) seal(m Message) *envelope {
	env := nw.spare
	if env != nil {
		nw.spare = env.next
	} else {
		env = new(envelope)
	}
	*env = envelope{m: m, nw: nw, size: m.WireSize(), refs: 1}
	_, env.reply = m.(Reply)
	if f, ok := m.(Flooded); ok {
		id := f.ID()
		env.id, env.flooded = seenKey(id[:]), true
		env.limitKey, env.limit = f.LimitKey(), uint8(min(f.RelayLimit(), math.MaxUint8))
	}
	return env
}

// release lets go of one hold on env.
func (env *envelope) release() {
	if env.refs--; env.refs == 0 {
		nw := env.nw
		env.m, env.next, nw.spare = nil, nw.spare, env
	}
}

// records returns env's bitsets and relay counts in the current and the
// old generation, entering the message in the current one if this is the
// first that generation hears of it.
func (nw *Network) records(env *envelope) (seen, seenOld []uint64, relays, relaysOld []uint8) {
	n := len(nw.eps)
	words := (n + 63) / 64
	if env.stamp != nw.stamp {
		env.stamp = nw.stamp
		env.seen, env.seenOld = enter(nw.cur.seen, &nw.cur.bits, env.id, words), nw.old.seen[env.id]
		env.relays, env.relaysOld = enter(nw.cur.relays, &nw.cur.counts, env.limitKey, n), nw.old.relays[env.limitKey]
	}
	return record(nw.cur.bits, env.seen, words), record(nw.old.bits, env.seenOld, words),
		record(nw.cur.counts, env.relays, n), record(nw.old.counts, env.relaysOld, n)
}

// Gossip injects a message originated by node origin: it is sent to all
// of origin's peers and, if it is Flooded, relayed onward per the gossip
// rules.
func (nw *Network) Gossip(origin int, m Message) {
	nw.maybeRotate()
	env := nw.seal(m)
	if env.flooded {
		seen, _, relays, _ := nw.records(env)
		seen[origin>>6] |= 1 << (origin & 63)
		if relays[origin] < math.MaxUint8 { // an origin has no budget: the count saturates
			relays[origin]++
		}
	}
	nw.relay(origin, -1, env)
	env.release()
}

// Unicast sends a message directly from one node to another (requests,
// replies, pieces; not gossip). Delivery respects bandwidth/latency but
// skips relay.
func (nw *Network) Unicast(from, to int, m Message) {
	env := nw.seal(m)
	nw.send(from, to, env)
	env.release()
}

// relay forwards env from node `from` to all its neighbors except `skip`.
func (nw *Network) relay(from, skip int, env *envelope) {
	ep := nw.eps[from]
	for _, peer := range ep.neighbors {
		if peer == skip {
			continue
		}
		nw.send(from, peer, env)
	}
}

// send models one point-to-point transfer and schedules delivery.
func (nw *Network) send(from, to int, env *envelope) {
	now := nw.sim.Now()
	if nw.Partitioned(from, to) {
		return
	}
	var faultDelay time.Duration
	if len(nw.faults) > 0 {
		drop, extra := nw.applyFaults(from, to, now)
		if drop {
			nw.eps[from].msgsLost.Inc()
			nw.totalLost.Inc()
			return
		}
		faultDelay = extra
	}
	// Undecidable-message limbo (Conti et al.): the transfer leaves the
	// sender normally — it is not dropped, and the sender cannot tell —
	// but the adversary withholds delivery until the release instant.
	var limboHold time.Duration
	if len(nw.limbos) > 0 {
		if hold, captured := nw.applyLimbo(from, to, now); captured {
			limboHold = hold
			nw.totalLimbo.Inc()
		}
	}
	src, dst := nw.eps[from], nw.eps[to]
	size := env.size

	src.bytesSent.Add(uint64(size))
	nw.totalBytes.Add(uint64(size))

	upDone := src.up.transmit(now, now, size, env.reply)
	lat := CityLatency(src.city, dst.city)
	if nw.cfg.jitter > 0 {
		j := nw.cfg.jitter * (2*nw.rng.Float64() - 1)
		lat += time.Duration(float64(lat) * j)
	}
	lat += faultDelay
	arrive := upDone + lat
	// Downlink reservation is made against its state at send time; with
	// event-driven delivery this is a standard approximation.
	deliverAt := dst.down.transmit(now, arrive, size, env.reply)
	t := nw.newTransfer(from, to, env)
	if limboHold > 0 {
		// Released at the adversary's instant, out of the link's order.
		nw.sim.AfterRun(max(deliverAt, now+limboHold)-now, t)
		return
	}
	lane := dst.down.deliveries
	if env.reply {
		lane = dst.down.replyDeliveries
	}
	lane.Push(deliverAt, &t.item, t)
}

// transfer is one scheduled step of a message's journey: its delivery at
// to, or its onward relay by to once the node's modeled CPU has verified
// it, which a relay lane runs as a *relayTransfer. A simulated round is
// hundreds of thousands of transfers. A record waits in its lane, linked
// through item, and once it has run on the free list Network.idle, linked
// through next, so a record is allocated only when more are in flight
// than ever before (only the scheduler goroutine touches them). Each holds
// its envelope.
type transfer struct {
	item     vtime.LaneItem
	next     *transfer
	from, to int32
	env      *envelope
}

// relayTransfer is a transfer whose step is the relay.
type relayTransfer transfer

// newTransfer returns a record for a step of env's journey.
func (nw *Network) newTransfer(from, to int, env *envelope) *transfer {
	t := nw.idle
	if t != nil {
		nw.idle, t.next = t.next, nil
	} else {
		t = new(transfer)
	}
	env.refs++
	t.from, t.to, t.env = int32(from), int32(to), env
	return t
}

// take puts t back on the free list and returns what it carried.
func (t *transfer) take() (from, to int, env *envelope) {
	from, to, env = int(t.from), int(t.to), t.env
	t.env = nil
	t.next, env.nw.idle = env.nw.idle, t
	return from, to, env
}

// Run implements vtime.Runner: the delivery.
func (t *transfer) Run() {
	from, to, env := t.take()
	env.nw.deliver(from, to, env)
	env.release()
}

// Run implements vtime.Runner: the relay.
func (t *relayTransfer) Run() {
	from, to, env := (*transfer)(t).take()
	env.nw.relay(to, from, env)
	env.release()
}

// deliver runs at the receiver when the message finishes arriving.
func (nw *Network) deliver(from, to int, env *envelope) {
	nw.maybeRotate()
	ep := nw.eps[to]
	ep.bytesReceived.Add(uint64(env.size))
	var relays, relaysOld []uint8
	if env.flooded {
		var seen, seenOld []uint64
		seen, seenOld, relays, relaysOld = nw.records(env)
		w, bit := to>>6, uint64(1)<<(to&63)
		if seen[w]&bit != 0 || (seenOld != nil && seenOld[w]&bit != 0) {
			ep.dupsDropped.Inc()
			return
		}
		seen[w] |= bit
	}
	ep.msgsReceived.Inc()
	nw.totalMsgs.Inc()

	m := env.m
	var verdict Verdict
	if ep.handler != nil {
		verdict = ep.handler.HandleMessage(from, m)
	}
	// Model verification CPU: it occupies the node and delays its relay.
	busyFrom := nw.sim.Now()
	if ep.cpuFree > busyFrom {
		busyFrom = ep.cpuFree
	}
	ep.cpuFree = busyFrom + verdict.CPU
	ep.cpuUsedNs.Add(uint64(verdict.CPU))

	if !verdict.Relay || !env.flooded {
		return
	}
	// Per-(sender,round,step) relay limit (§8.4).
	spent := int(relays[to])
	if relaysOld != nil {
		spent += int(relaysOld[to])
	}
	if spent >= int(env.limit) {
		return
	}
	relays[to]++
	t := nw.newTransfer(from, to, env)
	ep.relays.Push(ep.cpuFree, &t.item, (*relayTransfer)(t))
}

// Stats aggregates per-node statistics.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	MsgsReceived  int64
	DupsDropped   int64
	MsgsLost      int64
	CPUUsed       time.Duration
}

// NodeStats returns node id's counters.
func (nw *Network) NodeStats(id int) Stats {
	ep := nw.eps[id]
	return Stats{
		BytesSent:     int64(ep.bytesSent.Load()),
		BytesReceived: int64(ep.bytesReceived.Load()),
		MsgsReceived:  int64(ep.msgsReceived.Load()),
		DupsDropped:   int64(ep.dupsDropped.Load()),
		MsgsLost:      int64(ep.msgsLost.Load()),
		CPUUsed:       time.Duration(ep.cpuUsedNs.Load()),
	}
}

// TotalBytes is the aggregate of bytes sent across the whole network.
func (nw *Network) TotalBytes() int64 { return int64(nw.totalBytes.Load()) }

// TotalMsgs is the aggregate count of deliveries handed to a handler: the
// first copy of a Flooded message at each endpoint, every other message.
func (nw *Network) TotalMsgs() int64 { return int64(nw.totalMsgs.Load()) }

// TotalLost is the aggregate count of transfers dropped by link faults
// (not partitions).
func (nw *Network) TotalLost() int64 { return int64(nw.totalLost.Load()) }

// TotalLimbo is the aggregate count of transfers held in
// undecidable-message limbo.
func (nw *Network) TotalLimbo() int64 { return int64(nw.totalLimbo.Load()) }

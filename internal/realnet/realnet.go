// Package realnet is a real TCP gossip transport for the Algorand node:
// the same node implementation that runs under the deterministic
// simulator (internal/network) runs here as an actual networked
// process, with the vtime runtime in wall-clock mode (vtime.Realtime).
//
// The transport keeps the §8.4 gossip discipline — every message is
// validated by the node's handler before relaying, exact duplicates are
// dropped, and per-(sender,round,step) relay limits apply — but trades
// the simulator's modeled latency/bandwidth for real sockets. Messages
// travel as internal/wire frames: a length prefix, a one-byte type tag
// and the message's canonical encoding (node.EncodeMessage). The sender
// is the peer the connection's hello bound, so no frame names one.
//
// Unlike the simulator, real sockets fail: dials are refused, peers
// crash and restart, writes stall. The paper's safety and liveness
// argument leans on the network healing (§3's strong synchrony is
// assumed to hold "most of the time", and BA⋆'s timeouts absorb the
// rest), so the transport heals itself rather than degrading silently:
//
//   - Every peer has a dedicated writer goroutine behind a bounded
//     drop-oldest send queue. Scheduler context (sim.Inject closures,
//     node processes) never touches a socket: Gossip/Unicast only
//     enqueue. A down peer costs queue memory, not scheduler stalls.
//   - The writer doubles as a connection supervisor: it redials failed
//     peers with exponential backoff plus jitter, resets the backoff on
//     success, and flushes whatever queued while the peer was down —
//     a catch-up request to a rebooting peer waits instead of vanishing.
//   - Connections carry read/write deadlines and idle keepalive pings,
//     so a dead peer is detected and reaped rather than leaking.
//   - The duplicate-suppression and relay-limit caches hold relayed
//     messages (network.Flooded) only, and are generational with the
//     simulator's TTL, network.SeenTTL, bounding their memory over long
//     runs.
//   - Inbound connections must open, within dialTimeout, with a hello
//     frame declaring the dialer's address-book id, which is the sender
//     of every frame after it. Per-peer inbound accounting scores misbehavior — malformed
//     frames, frame-rate abuse — and quarantines an offending peer for a
//     parole period. The id claim is transport-level bookkeeping only;
//     message authenticity still rests on the signatures every gossip
//     message carries (§8.4).
//
// Every bound above is a constant of this package (queueCap, dialTimeout,
// idleTimeout, rateLimit, quarantineThreshold, maxInbound and the rest),
// and none has a value that turns it off; a Config carries only the seed
// of the backoff jitter and the registry the counters go to.
//
// Stats() snapshots all of it (queue depths, drops, redials, quarantine
// state, bytes in/out) for operators; cmd/algorand-node prints it.
package realnet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"algorand/internal/cache"
	"algorand/internal/crypto"
	"algorand/internal/metrics"
	"algorand/internal/network"
	nodepkg "algorand/internal/node"
	"algorand/internal/vtime"
	"algorand/internal/wire"
)

// Control-plane frame tags. They live far above the node's message tags
// (internal/node.TagVote...) and never reach the handler.
const (
	tagHello byte = 0xF0 // first frame on every connection: sender's id
	tagPing  byte = 0xF1 // idle keepalive, empty payload
)

// Misbehavior scores. A peer whose score reaches quarantineThreshold is
// quarantined.
const (
	scoreMalformed = 4 // frame that fails to decode
	scoreRate      = 2 // frames above the per-window rate budget
	scoreReported  = 4 // application-reported offense (e.g. forged snapshot)
)

// The transport's fixed settings.
const (
	// queueCap bounds each peer's send queue in frames and queueBytes in
	// payload bytes, replies (network.Reply) and other frames counted
	// alike. Over a bound a reply goes first — a requester asks again,
	// while a vote or an announce is not sent twice — and the newest frame
	// stays, so a BlockFill, ChainReply or SnapshotReply, which carries
	// whole blocks and may exceed queueBytes alone, still transits without
	// pushing out the votes queued before it (see trimLocked).
	queueCap   = 256
	queueBytes = 8 << 20

	// dialTimeout bounds one connection attempt. redialMin and redialMax
	// bound the supervisor's exponential backoff between attempts; the
	// actual wait is jittered to ±50% so a cluster restarting together
	// does not thundering-herd one peer.
	dialTimeout = 3 * time.Second
	redialMin   = 100 * time.Millisecond
	redialMax   = 5 * time.Second

	// writeTimeout is the deadline for writing one frame (a stalled
	// peer's TCP buffer fills; the write times out and the supervisor
	// redials). idleTimeout is the read deadline: a connection that
	// delivers nothing for this long is reaped. keepaliveInterval makes
	// idle writers send ping frames so healthy-but-quiet connections stay
	// ahead of the peer's idleTimeout, which it is well under.
	writeTimeout      = 10 * time.Second
	idleTimeout       = 90 * time.Second
	keepaliveInterval = 25 * time.Second

	// rateLimit bounds inbound frames per peer per rateWindow; frames
	// over budget are shed before reaching the scheduler and score the
	// peer.
	rateLimit  = 20000
	rateWindow = time.Second

	// quarantineThreshold is the misbehavior score at which a peer is
	// quarantined: its inbound connections are closed and refused, its
	// frames dropped, and our writer to it parked. After
	// quarantineDuration the peer is paroled with a clean score.
	quarantineThreshold = 10
	quarantineDuration  = 30 * time.Second

	// maxInbound caps simultaneously accepted connections, so a hostile
	// dialer cannot hold unbounded goroutines and file descriptors.
	maxInbound = 256
)

// Config is what a deployment sets. Everything else is a constant above,
// and the duplicate and relay-limit records live for network.SeenTTL, as
// the simulator's do.
type Config struct {
	// Seed drives the backoff jitter.
	Seed int64
	// Metrics receives the transport's counters and gauges
	// (algorand_realnet_*, per-peer series labeled peer="N"). Nil gets a
	// private registry, so Stats() works standalone.
	Metrics *metrics.Registry
}

// DefaultConfig returns the configuration of a deployment that sets
// nothing.
func DefaultConfig() Config { return Config{Seed: 1} }

// settings is a Config and the values it does not carry. NewWithConfig
// gives every transport the constants; this package's tests build
// settings of their own, to heal, expire and quarantine on their own
// timescale or to dial through injected faults.
type settings struct {
	Config
	queueCap, queueBytes, rateLimit, quarantineThreshold int
	dialTimeout, redialMin, redialMax, writeTimeout      time.Duration
	idleTimeout, keepaliveInterval, seenTTL, rateWindow  time.Duration
	quarantineDuration                                   time.Duration
	dial                                                 func(ctx context.Context, addr string) (net.Conn, error)
}

// defaults is cfg with the constants beside it.
func defaults(cfg Config) settings {
	return settings{Config: cfg,
		queueCap: queueCap, queueBytes: queueBytes,
		dialTimeout: dialTimeout, redialMin: redialMin, redialMax: redialMax,
		writeTimeout: writeTimeout, idleTimeout: idleTimeout, keepaliveInterval: keepaliveInterval,
		seenTTL: network.SeenTTL, rateLimit: rateLimit, rateWindow: rateWindow,
		quarantineThreshold: quarantineThreshold, quarantineDuration: quarantineDuration,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
}

// Transport implements node.Transport over TCP.
type Transport struct {
	id    int
	sim   *vtime.Sim
	addrs []string
	cfg   settings

	handler network.Handler
	ln      net.Listener

	// dialCtx is canceled at Close so in-flight dials abort.
	dialCtx    context.Context
	cancelDial context.CancelFunc

	mu    sync.Mutex
	peers map[int]*peer
	// inbound maps accepted connections to the peer id their hello
	// claimed (-1 before the handshake). Entries are reaped when the
	// read loop exits, so the registry tracks live connections only.
	inbound map[net.Conn]int
	// Generational duplicate-suppression and relay-limit caches, whose
	// entries live between one and two seenTTLs. Lookups consult both
	// generations. Both run on
	// wall time relative to epoch.
	seen  *cache.TwoGen[crypto.Digest, struct{}]
	limit *cache.TwoGen[network.LimitKey, int]
	epoch time.Time

	// Transport-wide counters, registered under algorand_realnet_*.
	inboundRejected *metrics.Counter
	quarantineDrops *metrics.Counter
	dupDropped      *metrics.Counter
	relayLimited    *metrics.Counter
	reg             *metrics.Registry

	closed  chan struct{}
	wg      sync.WaitGroup
	onError func(err error)
}

// NewWithConfig creates a transport for node id, serving on ln, which
// the caller has bound to addrs[id]. The addrs slice is the shared
// address book (§9: "we currently provide each user with an address
// book file listing the IP address and port for every user").
func NewWithConfig(sim *vtime.Sim, id int, addrs []string, ln net.Listener, cfg Config) *Transport {
	return newTransport(sim, id, addrs, ln, defaults(cfg))
}

// newTransport is NewWithConfig on settings of the caller's.
func newTransport(sim *vtime.Sim, id int, addrs []string, ln net.Listener, cfg settings) *Transport {
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	t := &Transport{
		id:         id,
		sim:        sim,
		addrs:      append([]string(nil), addrs...),
		cfg:        cfg,
		ln:         ln,
		dialCtx:    ctx,
		cancelDial: cancel,
		peers:      make(map[int]*peer),
		inbound:    make(map[net.Conn]int),
		seen:       cache.New[crypto.Digest, struct{}](cfg.seenTTL),
		limit:      cache.New[network.LimitKey, int](cfg.seenTTL),
		epoch:      time.Now(),
		reg:        reg,
		closed:     make(chan struct{}),

		inboundRejected: reg.Counter("algorand_realnet_inbound_rejected_total", "inbound connections refused at the cap on accepted connections"),
		quarantineDrops: reg.Counter("algorand_realnet_quarantine_drops_total", "frames and connections refused due to peer quarantine"),
		dupDropped:      reg.Counter("algorand_realnet_dup_dropped_total", "gossip messages suppressed as exact duplicates"),
		relayLimited:    reg.Counter("algorand_realnet_relay_limited_total", "relays suppressed by per-(sender,round,step) limits"),
	}
	reg.GaugeFunc("algorand_realnet_seen_entries", "live entries in the duplicate-suppression cache",
		func() float64 { return float64(t.seen.Len()) })
	reg.GaugeFunc("algorand_realnet_limit_entries", "live entries in the relay-limit cache",
		func() float64 { return float64(t.limit.Len()) })
	reg.GaugeFunc("algorand_realnet_inbound_conns", "live accepted inbound connections",
		func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.inbound))
		})
	for i := range t.addrs {
		if i != id {
			t.peers[i] = newPeer(t, i, t.addrs[i])
		}
	}
	return t
}

// cacheNow is the suppression caches' clock: wall time since the
// transport was built.
func (t *Transport) cacheNow() time.Duration { return time.Since(t.epoch) }

// Addr returns the listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetHandler implements node.Transport.
func (t *Transport) SetHandler(id int, h network.Handler) { t.handler = h }

// Neighbors implements node.Transport: every other address-book entry.
// (The simulator models sparse random peering; a small real deployment
// simply talks to everyone, which is the dense special case.)
func (t *Transport) Neighbors(id int) []int {
	out := make([]int, 0, len(t.addrs)-1)
	for i := range t.addrs {
		if i != t.id {
			out = append(out, i)
		}
	}
	return out
}

// Start begins accepting connections. Call after the node installed its
// handler.
func (t *Transport) Start() {
	t.wg.Add(1)
	go t.acceptLoop()
}

// Close shuts the transport down: the listener, every inbound
// connection, and every peer writer. It blocks until all transport
// goroutines have exited.
func (t *Transport) Close() {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return
	default:
	}
	close(t.closed)
	t.cancelDial()
	t.ln.Close()
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// OnError installs an optional error observer (logging).
func (t *Transport) OnError(f func(error)) { t.onError = f }

func (t *Transport) reportErr(err error) {
	select {
	case <-t.closed:
		return
	default:
	}
	if t.onError != nil {
		t.onError(err)
	}
}

// dialPeer opens one connection within dialTimeout, aborting if the
// transport closes mid-dial.
func (t *Transport) dialPeer(addr string) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(t.dialCtx, t.cfg.dialTimeout)
	defer cancel()
	return t.cfg.dial(ctx, addr)
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
				t.reportErr(err)
				return
			}
		}
		t.mu.Lock()
		if len(t.inbound) >= maxInbound {
			t.inboundRejected.Inc()
			t.mu.Unlock()
			c.Close()
			continue
		}
		t.inbound[c] = -1
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(c)
	}
}

// reapInbound removes a finished connection from the registry.
func (t *Transport) reapInbound(c net.Conn) {
	t.mu.Lock()
	delete(t.inbound, c)
	t.mu.Unlock()
}

// bindInbound records the hello-claimed peer id for a connection,
// refusing it if the peer is quarantined or the transport closed.
func (t *Transport) bindInbound(c net.Conn, id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case <-t.closed:
		return false
	default:
	}
	if p := t.peers[id]; p == nil || p.isQuarantined(time.Now()) {
		t.quarantineDrops.Inc()
		return false
	}
	t.inbound[c] = id
	return true
}

// closeInboundOf drops every live inbound connection bound to peer id
// (quarantine enforcement).
func (t *Transport) closeInboundOf(id int) {
	t.mu.Lock()
	var victims []net.Conn
	for c, pid := range t.inbound {
		if pid == id {
			victims = append(victims, c)
		}
	}
	t.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// ReportMisbehavior feeds an application-level offense into the
// transport's peer misbehavior scoring, alongside the wire-level
// offenses the transport detects itself. The node calls this when a
// peer serves it provably bad protocol data — e.g. a state snapshot
// whose certificate or Merkle root fails verification — so repeat
// offenders cross the quarantine threshold and lose their audience.
// Implements node.MisbehaviorReporter.
func (t *Transport) ReportMisbehavior(id int, reason string) {
	p := t.peers[id]
	if p == nil || id == t.id {
		return
	}
	p.offend(scoreReported, p.c.reported)
	t.reportErr(fmt.Errorf("realnet: peer %d reported for misbehavior: %s", id, reason))
}

// quarantineEnacted enforces a freshly-imposed quarantine and surfaces
// it to the error observer.
func (t *Transport) quarantineEnacted(id int) {
	t.closeInboundOf(id)
	if p := t.peers[id]; p != nil {
		p.wake()
	}
	t.reportErr(fmt.Errorf("realnet: peer %d quarantined for %v (misbehavior)", id, t.cfg.quarantineDuration))
}

// readLoop decodes frames from one inbound connection and injects
// deliveries into the node's scheduler. The first frame must be a hello
// declaring the dialer's address-book id; every frame after it is a
// message from that peer. A malformed frame drops the connection — the
// peer is either broken or hostile; either way the stream cannot be
// resynchronized.
func (t *Transport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	defer t.reapInbound(c)
	r := bufio.NewReader(c)
	peerID := -1
	var p *peer
	for {
		// A dialer has dialTimeout to say hello, as we give ourselves to
		// connect: one that stays silent would hold a maxInbound slot.
		wait := t.cfg.idleTimeout
		if peerID < 0 {
			wait = t.cfg.dialTimeout
		}
		c.SetReadDeadline(time.Now().Add(wait))
		tag, payload, err := wire.ReadFrame(r)
		if err != nil {
			return // EOF, reset, or hello or idle expiry: reap the connection
		}
		if peerID < 0 {
			id, err := decodeHello(tag, payload, len(t.addrs), t.id)
			if err != nil {
				t.reportErr(fmt.Errorf("realnet: bad handshake from %s: %w", c.RemoteAddr(), err))
				return
			}
			if !t.bindInbound(c, id) {
				return
			}
			peerID, p = id, t.peers[id]
			continue
		}
		if !p.noteFrame(5+len(payload), time.Now()) {
			continue // over rate budget: shed before the scheduler sees it
		}
		if tag == tagPing {
			continue
		}
		msg, err := nodepkg.DecodeMessage(tag, payload)
		if err != nil {
			p.offend(scoreMalformed, p.c.malformed)
			t.reportErr(fmt.Errorf("realnet: bad frame from peer %d (%s): %w", peerID, c.RemoteAddr(), err))
			return
		}
		if !t.sim.InjectStop(t.closed, func() { t.deliver(peerID, msg) }) {
			return
		}
	}
}

// deliver runs in scheduler context: dedup, handle, relay per verdict.
// Only a network.Flooded message is looked up and marked in the seen
// cache, and only one is relayed; any other goes straight to the handler.
// The suppression caches rotate themselves lazily on each access (see
// internal/cache); entries live between one and two SeenTTLs.
func (t *Transport) deliver(from int, m network.Message) {
	if p := t.peers[from]; p != nil && p.isQuarantined(time.Now()) {
		t.quarantineDrops.Inc()
		return
	}
	f, flooded := m.(network.Flooded)
	// Atomic check-and-mark across both cache generations: only the
	// first delivery of a message id proceeds.
	if flooded && !t.seen.Update(f.ID(), t.cacheNow(),
		func(_ struct{}, curOK bool, _ struct{}, prevOK bool) (struct{}, bool) {
			return struct{}{}, !curOK && !prevOK
		}) {
		t.dupDropped.Inc()
		return
	}

	var verdict network.Verdict
	if t.handler != nil {
		verdict = t.handler.HandleMessage(from, m)
	}
	if !verdict.Relay || !flooded {
		return
	}
	// Count the relay against the key's budget iff it is still under the
	// two-generation total; relay iff it was counted.
	limit := f.RelayLimit()
	allowed := t.limit.Update(f.LimitKey(), t.cacheNow(),
		func(cur int, _ bool, prev int, _ bool) (int, bool) {
			if cur+prev >= limit {
				return cur, false
			}
			return cur + 1, true
		})
	if !allowed {
		t.relayLimited.Inc()
		return
	}
	t.fanout(m, from)
}

// Gossip implements node.Transport. A network.Flooded message is marked
// seen and counted against its relay budget first, so its echoes are
// dropped.
func (t *Transport) Gossip(origin int, m network.Message) {
	if f, ok := m.(network.Flooded); ok {
		now := t.cacheNow()
		t.seen.Put(f.ID(), struct{}{}, now)
		t.limit.Update(f.LimitKey(), now, func(cur int, _ bool, _ int, _ bool) (int, bool) {
			return cur + 1, true
		})
	}
	t.fanout(m, -1)
}

// Unicast implements node.Transport. The frame is queued under the
// peer's supervisor: if the peer is down, it is retried after the
// redial instead of being dropped — a catch-up request to a rebooting
// peer survives the outage (bounded by the queue's drop-oldest policy).
func (t *Transport) Unicast(from, to int, m network.Message) {
	if f, ok := t.frameOf(m); ok {
		t.enqueue(to, f)
	}
}

// fanout sends m to every neighbor but skip. The frame is encoded once:
// writers only read a queued payload, so the queues share it. Like
// Unicast it only queues — no blocking, no socket: safe from scheduler
// context.
func (t *Transport) fanout(m network.Message, skip int) {
	f, ok := t.frameOf(m)
	if !ok {
		return
	}
	for _, peer := range t.Neighbors(t.id) {
		if peer != skip {
			t.enqueue(peer, f)
		}
	}
}

// frameOf encodes m as a frame, in one buffer the frame then owns,
// reporting a message that has no wire form.
func (t *Transport) frameOf(m network.Message) (frame, bool) {
	tag, payload, err := nodepkg.EncodeMessage(m)
	if err != nil {
		t.reportErr(err)
		return frame{}, false
	}
	_, reply := m.(network.Reply)
	return frame{tag: tag, payload: payload, reply: reply}, true
}

// enqueue queues a frame for a peer, starting its writer on first use.
// The started flag is guarded by t.mu so a writer is never started
// after Close began waiting on the WaitGroup.
func (t *Transport) enqueue(id int, f frame) {
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return
	default:
	}
	p := t.peers[id]
	if p == nil {
		t.mu.Unlock()
		return
	}
	if !p.started {
		p.started = true
		t.wg.Add(1)
		go p.loop()
	}
	t.mu.Unlock()
	p.pushBack(f)
}

// --- Frame codec ------------------------------------------------------------

// frame is one encoded transport frame awaiting transmission; reply says
// it carries a network.Reply, which yields to every other frame queued.
type frame struct {
	tag     byte
	payload []byte
	reply   bool
}

// helloPayload encodes the handshake body: the dialer's address-book id.
func helloPayload(id int) []byte {
	e := wire.NewEncoderSize(4)
	e.Int(id)
	return e.Data()
}

// decodeHello validates a handshake frame: tag, length, and an id that
// is inside the address book and not our own slot.
func decodeHello(tag byte, payload []byte, nPeers, self int) (int, error) {
	if tag != tagHello {
		return 0, fmt.Errorf("first frame tag %#x, want hello", tag)
	}
	if len(payload) != 4 {
		return 0, fmt.Errorf("hello payload of %d bytes", len(payload))
	}
	d := wire.NewDecoder(payload)
	id := d.Int()
	if id < 0 || id >= nPeers {
		return 0, fmt.Errorf("hello id %d outside address book [0,%d)", id, nPeers)
	}
	if id == self {
		return 0, fmt.Errorf("hello claims our own id %d", id)
	}
	return id, nil
}

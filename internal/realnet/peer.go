package realnet

import (
	"bufio"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"algorand/internal/metrics"
	"algorand/internal/wire"
)

// peer holds everything the transport knows about one address-book
// entry: the supervised outbound connection with its bounded send
// queue, and the inbound accounting that drives misbehavior scoring.
//
// Lock order: t.mu may be held while taking p.mu, never the reverse.
type peer struct {
	t    *Transport
	id   int
	addr string

	// started is guarded by t.mu (see Transport.enqueue).
	started bool

	// ready wakes the writer: capacity 1, best-effort signal.
	ready chan struct{}
	// rng drives backoff jitter; only the writer goroutine uses it.
	rng *rand.Rand

	// queue and replies are the send queue's two classes, each oldest
	// first: the writer takes from replies only when queue is empty, as
	// the simulator's links send them (see queueCap). queuedBytes counts
	// both.
	mu          sync.Mutex
	queue       []frame
	replies     []frame
	queuedBytes int
	connected   bool
	everDialed  bool

	// Counters registered under algorand_realnet_*_total{peer="N"}.
	// Address books are small (§9's address book file), so one series
	// per peer is cheap; monotonic counts live in the registry while
	// mutable state (score, queue, window) stays under p.mu.
	c peerCounters

	// misbehavior scoring
	score       int
	windowStart time.Time
	windowCount int

	quarantinedUntil time.Time
}

// peerCounters is one peer's registry-backed instrumentation.
type peerCounters struct {
	drops        *metrics.Counter // frames dropped by the queue's drop-oldest policy
	dials        *metrics.Counter // successful connects
	redials      *metrics.Counter // successful connects after a previous connect
	connectFails *metrics.Counter // failed dial attempts
	framesOut    *metrics.Counter
	bytesOut     *metrics.Counter
	framesIn     *metrics.Counter
	bytesIn      *metrics.Counter
	malformed    *metrics.Counter
	rateAbuse    *metrics.Counter
	reported     *metrics.Counter
	quarantines  *metrics.Counter
}

func newPeerCounters(r *metrics.Registry, id int) peerCounters {
	peerC := func(base, help string) *metrics.Counter {
		return r.Counter(metrics.Name(base, "peer", strconv.Itoa(id)), help)
	}
	return peerCounters{
		drops:        peerC("algorand_realnet_queue_drops_total", "frames dropped by the drop-oldest send queue"),
		dials:        peerC("algorand_realnet_dials_total", "successful connects"),
		redials:      peerC("algorand_realnet_redials_total", "successful connects after a previous connect"),
		connectFails: peerC("algorand_realnet_connect_fails_total", "failed dial attempts"),
		framesOut:    peerC("algorand_realnet_frames_out_total", "frames written"),
		bytesOut:     peerC("algorand_realnet_bytes_out_total", "bytes written"),
		framesIn:     peerC("algorand_realnet_frames_in_total", "frames received"),
		bytesIn:      peerC("algorand_realnet_bytes_in_total", "bytes received"),
		malformed:    peerC("algorand_realnet_malformed_total", "undecodable frames received"),
		rateAbuse:    peerC("algorand_realnet_rate_abuse_total", "frames shed over the per-peer rate budget"),
		reported:     peerC("algorand_realnet_reported_total", "application-reported protocol offenses"),
		quarantines:  peerC("algorand_realnet_quarantines_total", "times the peer was quarantined"),
	}
}

func newPeer(t *Transport, id int, addr string) *peer {
	return &peer{
		t:     t,
		id:    id,
		addr:  addr,
		ready: make(chan struct{}, 1),
		rng:   rand.New(rand.NewSource(t.cfg.Seed ^ int64(id)<<32 ^ int64(t.id))),
		c:     newPeerCounters(t.reg, id),
	}
}

// wake nudges the writer without blocking.
func (p *peer) wake() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// class is the queue f waits in. Caller holds p.mu.
func (p *peer) class(f frame) *[]frame {
	if f.reply {
		return &p.replies
	}
	return &p.queue
}

// pushBack queues a frame at the tail of its class, enforcing the bounds.
func (p *peer) pushBack(f frame) {
	p.mu.Lock()
	q := p.class(f)
	*q = append(*q, f)
	p.queuedBytes += len(f.payload)
	p.trimLocked(f.reply)
	p.mu.Unlock()
	p.wake()
}

// pushFront requeues a frame whose write failed at the head of its class,
// so it rides the next connection instead of being lost. If the queue is
// at capacity the frame is dropped.
func (p *peer) pushFront(f frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.depthLocked() >= p.t.cfg.queueCap {
		p.c.drops.Inc()
		return
	}
	q := p.class(f)
	*q = append([]frame{f}, *q...)
	p.queuedBytes += len(f.payload)
}

// trimLocked drops frames until the queue is within both bounds: the
// oldest reply first, and a frame that is not a reply only when no reply
// is queued. It never drops the newest frame, the last of its class, which
// is a reply if newestReply.
func (p *peer) trimLocked(newestReply bool) {
	for p.depthLocked() > p.t.cfg.queueCap || p.queuedBytes > p.t.cfg.queueBytes {
		var q *[]frame
		switch {
		case len(p.replies) > 1 || len(p.replies) == 1 && !newestReply:
			q = &p.replies
		case len(p.replies) == 0 && len(p.queue) > 1:
			q = &p.queue
		default:
			return // only the newest frame is left, or it is the one reply queued
		}
		p.queuedBytes -= len((*q)[0].payload)
		*q = append((*q)[:0], (*q)[1:]...)
		p.c.drops.Inc()
	}
}

// pop takes the oldest frame that is not a reply, or with none queued the
// oldest reply.
func (p *peer) pop() (frame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := &p.queue
	if len(*q) == 0 {
		q = &p.replies
	}
	if len(*q) == 0 {
		return frame{}, false
	}
	f := (*q)[0]
	*q = append((*q)[:0], (*q)[1:]...)
	p.queuedBytes -= len(f.payload)
	return f, true
}

func (p *peer) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depthLocked()
}

func (p *peer) depthLocked() int { return len(p.queue) + len(p.replies) }

// wait blocks until work is signaled (work=true), the timeout elapses
// (work=false), or the transport closes (alive=false). d<=0 waits
// without a timeout.
func (p *peer) wait(d time.Duration) (work, alive bool) {
	var timer <-chan time.Time
	if d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case <-p.ready:
		return true, true
	case <-timer:
		return false, true
	case <-p.t.closed:
		return false, false
	}
}

// sleepClosed sleeps for d, returning false if the transport closed.
func (p *peer) sleepClosed(d time.Duration) bool {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-p.t.closed:
		return false
	}
}

// withJitter spreads a backoff delay uniformly over [d/2, 3d/2) so
// peers redialing a restarted node do not arrive in lockstep.
func withJitter(d time.Duration, rng *rand.Rand) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// loop is the peer's writer and connection supervisor: it dials when
// there is something to send, redials failed peers with exponential
// backoff plus jitter (reset on success), flushes the queue, and sends
// keepalive pings while idle. It exits when the transport closes.
func (p *peer) loop() {
	defer p.t.wg.Done()
	cfg := &p.t.cfg
	backoff := cfg.redialMin
	var conn net.Conn
	var bw *bufio.Writer
	drop := func() {
		if conn != nil {
			conn.Close()
			conn, bw = nil, nil
			p.setConnected(false)
		}
	}
	defer drop()
	for {
		select {
		case <-p.t.closed:
			return
		default:
		}
		// Quarantined peers get no traffic from us either: park until
		// parole. Queued frames wait (drop-oldest keeps them fresh).
		if d := p.quarantineRemaining(time.Now()); d > 0 {
			drop()
			if !p.sleepClosed(d) {
				return
			}
			continue
		}
		if conn == nil {
			if p.depth() == 0 {
				// Nothing to say: no point holding a connection open.
				if _, alive := p.wait(0); !alive {
					return
				}
				continue
			}
			c, err := p.t.dialPeer(p.addr)
			if err != nil {
				p.noteConnectFail()
				if !p.sleepClosed(withJitter(backoff, p.rng)) {
					return
				}
				backoff *= 2
				backoff = min(backoff, cfg.redialMax)
				continue
			}
			p.noteDial()
			conn, bw = c, bufio.NewWriter(c)
			backoff = cfg.redialMin
			p.setConnected(true)
			if err := p.writeFrame(conn, bw, frame{tag: tagHello, payload: helloPayload(p.t.id)}); err != nil {
				p.t.reportErr(err)
				drop()
				continue
			}
		}
		f, ok := p.pop()
		if !ok {
			work, alive := p.wait(cfg.keepaliveInterval)
			if !alive {
				return
			}
			if !work {
				// Idle: ping so the peer's read deadline stays ahead.
				if err := p.writeFrame(conn, bw, frame{tag: tagPing}); err != nil {
					drop()
				}
			}
			continue
		}
		if err := p.writeFrame(conn, bw, f); err != nil {
			p.t.reportErr(err)
			p.pushFront(f) // retried on the next connection
			drop()
		}
	}
}

// writeFrame writes and flushes one frame under the write deadline.
func (p *peer) writeFrame(c net.Conn, w *bufio.Writer, f frame) error {
	c.SetWriteDeadline(time.Now().Add(p.t.cfg.writeTimeout))
	if err := wire.WriteFrame(w, f.tag, f.payload); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	p.c.framesOut.Inc()
	p.c.bytesOut.Add(uint64(5 + len(f.payload)))
	return nil
}

func (p *peer) setConnected(v bool) {
	p.mu.Lock()
	p.connected = v
	p.mu.Unlock()
}

func (p *peer) noteDial() {
	p.mu.Lock()
	p.c.dials.Inc()
	if p.everDialed {
		p.c.redials.Inc()
	}
	p.everDialed = true
	p.mu.Unlock()
}

func (p *peer) noteConnectFail() {
	p.mu.Lock()
	p.c.connectFails.Inc()
	p.everDialed = true
	p.mu.Unlock()
}

// --- Inbound accounting and misbehavior scoring -----------------------------

// noteFrame accounts one inbound frame and reports whether it is within
// the peer's rate budget; frames over budget are shed by the caller and
// score the peer.
func (p *peer) noteFrame(bytes int, now time.Time) bool {
	p.mu.Lock()
	p.c.framesIn.Inc()
	p.c.bytesIn.Add(uint64(bytes))
	if now.Sub(p.windowStart) > p.t.cfg.rateWindow {
		p.windowStart = now
		p.windowCount = 0
	}
	p.windowCount++
	ok := p.windowCount <= p.t.cfg.rateLimit
	var quarantined bool
	if !ok {
		p.c.rateAbuse.Inc()
		quarantined = p.offendLocked(scoreRate, now)
	}
	p.mu.Unlock()
	if quarantined {
		p.t.quarantineEnacted(p.id)
	}
	return ok
}

// offend records a misbehavior observation (counter tracks the kind)
// and quarantines the peer when the score crosses the threshold.
func (p *peer) offend(pts int, counter *metrics.Counter) {
	now := time.Now()
	counter.Inc()
	p.mu.Lock()
	quarantined := p.offendLocked(pts, now)
	p.mu.Unlock()
	if quarantined {
		p.t.quarantineEnacted(p.id)
	}
}

// offendLocked adds score and imposes quarantine at the threshold,
// returning whether a new quarantine began. Parole wipes the score: the
// peer restarts with a clean slate. Caller holds p.mu.
func (p *peer) offendLocked(pts int, now time.Time) bool {
	if now.Before(p.quarantinedUntil) {
		return false // already serving
	}
	p.score += pts
	if p.score >= p.t.cfg.quarantineThreshold {
		p.quarantinedUntil = now.Add(p.t.cfg.quarantineDuration)
		p.score = 0
		p.c.quarantines.Inc()
		return true
	}
	return false
}

func (p *peer) isQuarantined(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return now.Before(p.quarantinedUntil)
}

func (p *peer) quarantineRemaining(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now.Before(p.quarantinedUntil) {
		return p.quarantinedUntil.Sub(now)
	}
	return 0
}

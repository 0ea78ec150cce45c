package realnet

import (
	"bufio"
	"math/rand"
	"net"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	nodepkg "algorand/internal/node"
	"algorand/internal/wire"
)

// rawPeer is a hand-driven TCP client speaking (or abusing) the realnet
// frame protocol, for hostile-stream tests.
type rawPeer struct {
	t *testing.T
	c net.Conn
	w *bufio.Writer
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawPeer{t: t, c: c, w: bufio.NewWriter(c)}
}

func (r *rawPeer) frame(tag byte, payload []byte) {
	r.t.Helper()
	if err := wire.WriteFrame(r.w, tag, payload); err != nil {
		r.t.Fatal(err)
	}
	if err := r.w.Flush(); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawPeer) hello(id int) { r.frame(tagHello, helloPayload(id)) }

// vote builds a valid frame carrying a unique message from the given
// sender id.
func voteFrame(t *testing.T, from int, nonce uint64) (byte, []byte) {
	t.Helper()
	tag, payload, err := encodeFrame(from, &nodepkg.BlockRequest{
		Hash: crypto.HashBytes("hostile"), Requester: from, Nonce: nonce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tag, payload
}

// closedWithin reports whether the remote closes the connection within
// the deadline (the reader sees EOF or a reset).
func closedWithin(c net.Conn, d time.Duration) bool {
	c.SetReadDeadline(time.Now().Add(d))
	var buf [64]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			ne, ok := err.(net.Error)
			return !(ok && ne.Timeout())
		}
	}
}

// assertAlive proves the transport still works end to end: a fresh
// legitimate connection delivers a message.
func assertAlive(t *testing.T, m *miniTransport, from int, nonce uint64) {
	t.Helper()
	before := m.count()
	r := dialRaw(t, m.tr.Addr())
	r.hello(from)
	tag, payload := voteFrame(t, from, nonce)
	r.frame(tag, payload)
	deadline := time.Now().Add(5 * time.Second)
	for m.count() <= before {
		if time.Now().After(deadline) {
			t.Fatalf("transport wedged: legitimate message not delivered; stats:\n%s", m.tr.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHostileGarbageStream throws seeded random garbage at the
// listener: every connection must be dropped without wedging the
// transport, and a legitimate peer must still get through afterwards.
func TestHostileGarbageStream(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	m := newMiniNet(t, 2, nil, 20*time.Second)[0]
	rng := rand.New(rand.NewSource(0xBAD))
	iters := 8 * soakScale()
	for i := 0; i < iters; i++ {
		buf := make([]byte, 1+rng.Intn(4096))
		rng.Read(buf)
		c, err := net.DialTimeout("tcp", m.tr.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(buf)
		if !closedWithin(c, 5*time.Second) {
			c.Close()
			t.Fatalf("iteration %d: garbage connection not dropped", i)
		}
		c.Close()
	}
	assertAlive(t, m, 1, 1)
	if got := m.tr.Stats().InboundConns; got > 2 {
		t.Fatalf("%d inbound conns still registered after garbage churn (reap failed)", got)
	}
}

// TestHostileTruncatedFrame sends a frame header promising more bytes
// than ever arrive, then disconnects mid-frame: the reader must reap
// the connection and keep serving others.
func TestHostileTruncatedFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	m := newMiniNet(t, 2, nil, 20*time.Second)[0]

	// A torn frame: the header promises the full body, half arrives,
	// then the peer vanishes.
	r := dialRaw(t, m.tr.Addr())
	r.hello(1)
	tag, payload := voteFrame(t, 1, 8)
	buf := frameBytes(tag, payload)
	r.c.Write(buf[:len(buf)/2])
	r.c.Close()

	// And a frame whose header promises more than the peer ever sends,
	// with the connection left open: the read deadline must reap it.
	cfgShort := testConfig()
	cfgShort.IdleTimeout = 300 * time.Millisecond
	m2 := newMiniNet(t, 2, func(int) Config { return cfgShort }, 20*time.Second)[0]
	r2 := dialRaw(t, m2.tr.Addr())
	r2.hello(1)
	tag2, payload2 := voteFrame(t, 1, 9)
	buf2 := frameBytes(tag2, payload2)
	r2.c.Write(buf2[:len(buf2)-3])
	if !closedWithin(r2.c, 5*time.Second) {
		t.Fatal("half-open torn frame not reaped by the idle deadline")
	}

	// Both transports survive and still deliver.
	assertAlive(t, m, 1, 10)
	assertAlive(t, m2, 1, 11)
}

// frameBytes renders one frame to raw bytes.
func frameBytes(tag byte, payload []byte) []byte {
	var b []byte
	n := len(payload) + 1
	b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), tag)
	return append(b, payload...)
}

// TestHostileBadHello pins the handshake gate: a first frame that is
// not a hello, or a hello claiming an out-of-range or self id, drops
// the connection before any message reaches the scheduler.
func TestHostileBadHello(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	m := newMiniNet(t, 2, nil, 20*time.Second)[0]

	// Not a hello.
	r := dialRaw(t, m.tr.Addr())
	tag, payload := voteFrame(t, 1, 1)
	r.frame(tag, payload)
	if !closedWithin(r.c, 5*time.Second) {
		t.Fatal("non-hello first frame not rejected")
	}
	// Out-of-range id.
	r2 := dialRaw(t, m.tr.Addr())
	r2.hello(99)
	if !closedWithin(r2.c, 5*time.Second) {
		t.Fatal("out-of-range hello not rejected")
	}
	// Our own id.
	r3 := dialRaw(t, m.tr.Addr())
	r3.hello(0)
	if !closedWithin(r3.c, 5*time.Second) {
		t.Fatal("self-id hello not rejected")
	}
	if got := m.count(); got != 0 {
		t.Fatalf("%d messages delivered through rejected handshakes", got)
	}
	assertAlive(t, m, 1, 2)
}

// TestSpoofQuarantineAndParole drives the misbehavior ladder end to
// end: spoofed sender ids score the peer, the score crosses the
// threshold into quarantine (inbound refused, frames dropped), and
// after the parole period the peer is accepted again with a clean
// slate.
func TestSpoofQuarantineAndParole(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := testConfig()
	cfg.QuarantineThreshold = 8 // two spoofs (5+5) cross it
	cfg.QuarantineDuration = 600 * time.Millisecond
	m := newMiniNet(t, 3, func(int) Config { return cfg }, 30*time.Second)[0]

	// Two spoofing connections: hello as peer 1, frames claiming peer 2.
	for i := 0; i < 2; i++ {
		r := dialRaw(t, m.tr.Addr())
		r.hello(1)
		tag, payload := voteFrame(t, 2, uint64(100+i))
		r.frame(tag, payload)
		if !closedWithin(r.c, 5*time.Second) {
			t.Fatalf("spoof %d: connection not dropped", i)
		}
	}
	s := m.tr.Stats()
	ps := s.Peers[0] // peer 1
	if ps.Spoofed < 2 {
		t.Fatalf("spoofed count %d, want >= 2", ps.Spoofed)
	}
	if !ps.Quarantined || ps.Quarantines != 1 {
		t.Fatalf("peer 1 not quarantined after crossing threshold: %+v", ps)
	}

	// While quarantined, even a clean connection is refused.
	r := dialRaw(t, m.tr.Addr())
	r.hello(1)
	if !closedWithin(r.c, 5*time.Second) {
		t.Fatal("quarantined peer's connection not refused")
	}
	if got := m.count(); got != 0 {
		t.Fatalf("%d messages delivered from quarantined peer", got)
	}

	// After parole, the peer is welcome again.
	time.Sleep(cfg.QuarantineDuration + 100*time.Millisecond)
	assertAlive(t, m, 1, 200)
	ps = m.tr.Stats().Peers[0]
	if ps.Quarantined {
		t.Fatal("peer still quarantined after parole")
	}
	if ps.Score != 0 {
		t.Fatalf("score %d after parole, want clean slate", ps.Score)
	}
}

// TestRateAbuseShedsAndQuarantines floods the transport beyond the
// per-peer rate budget: the excess is shed before the scheduler sees
// it, and sustained abuse quarantines the flooder.
func TestRateAbuseShedsAndQuarantines(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := testConfig()
	cfg.RateLimit = 20
	cfg.RateWindow = 5 * time.Second // one window for the whole flood
	cfg.QuarantineThreshold = 6      // three over-budget frames (2+2+2)
	cfg.QuarantineDuration = 10 * time.Second
	m := newMiniNet(t, 2, func(int) Config { return cfg }, 30*time.Second)[0]

	r := dialRaw(t, m.tr.Addr())
	r.hello(1)
	for i := 0; i < 60; i++ {
		tag, payload := voteFrame(t, 1, uint64(i))
		if err := wire.WriteFrame(r.w, tag, payload); err != nil {
			break // quarantine may reset the conn mid-flood; that's the point
		}
	}
	r.w.Flush()

	deadline := time.Now().Add(5 * time.Second)
	for {
		ps := m.tr.Stats().Peers[0]
		if ps.RateAbuse > 0 && ps.Quarantines > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood not shed/quarantined: %+v", ps)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Everything past the budget was shed before delivery: the handler
	// saw at most RateLimit messages (the hello is not a message).
	time.Sleep(200 * time.Millisecond)
	if got := m.count(); got > cfg.RateLimit {
		t.Fatalf("handler saw %d messages, rate budget is %d", got, cfg.RateLimit)
	}
}

// rawFrame hand-crafts a frame payload from the given sender around an
// arbitrary message body (valid or hostile).
func rawFrame(from int, body []byte) []byte {
	e := wire.NewEncoderSize(4 + len(body))
	e.Int(from)
	e.Fixed(body)
	return e.Data()
}

// TestHostileTxBatch throws malformed transaction gossip at the
// transport: a count promising 2^30 transactions, a cumulative payload
// above MaxTxBatchBytes, a batch truncated mid-transaction, and a
// well-formed transaction under retired tag 6 (the single-transaction
// message that was relayed verbatim). Each must score the peer as
// malformed and drop the connection — never crash or wedge the
// transport — and a legitimate peer must still get through afterwards.
func TestHostileTxBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	// Keep the misbehavior score below the quarantine threshold so all
	// four cases are observed on live connections (quarantine itself
	// is pinned by TestSpoofQuarantineAndParole).
	cfg := testConfig()
	cfg.QuarantineThreshold = 100
	m := newMiniNet(t, 2, func(int) Config { return cfg }, 30*time.Second)[0]

	// An honestly encoded oversized batch: enough max-signature
	// transactions to cross MaxTxBatchBytes.
	tx := ledger.Transaction{From: crypto.PublicKey{1}, Amount: 1, Sig: make([]byte, 120)}
	n := nodepkg.MaxTxBatchBytes/tx.WireSize() + 2
	over := &nodepkg.TxBatch{Txns: make([]*ledger.Transaction, n)}
	for i := range over.Txns {
		over.Txns[i] = &tx
	}
	_, overBody, err := nodepkg.EncodeMessage(over)
	if err != nil {
		t.Fatal(err)
	}
	// A valid single-tx batch to truncate.
	_, okBody, err := nodepkg.EncodeMessage(&nodepkg.TxBatch{Txns: []*ledger.Transaction{&tx}})
	if err != nil {
		t.Fatal(err)
	}

	hostile := []struct {
		tag  byte
		body []byte
	}{
		{nodepkg.TagTxBatch, []byte{0x00, 0x00, 0x00, 0x40}}, // count = 2^30, no payload
		{nodepkg.TagTxBatch, overBody},                       // cumulative size above the cap
		{nodepkg.TagTxBatch, okBody[:len(okBody)-9]},         // truncated mid-transaction
		{6, wire.Encode(&tx)},                                // retired tag, valid transaction
	}
	var malformed uint64
	for i, h := range hostile {
		r := dialRaw(t, m.tr.Addr())
		r.hello(1)
		r.frame(h.tag, rawFrame(1, h.body))
		if !closedWithin(r.c, 5*time.Second) {
			t.Fatalf("hostile batch %d: connection not dropped", i)
		}
		ps := m.tr.Stats().Peers[0]
		if ps.Malformed <= malformed {
			t.Fatalf("hostile batch %d: malformed score did not increase (%d)", i, ps.Malformed)
		}
		malformed = ps.Malformed
	}
	if got := m.count(); got != 0 {
		t.Fatalf("%d messages delivered from hostile batches", got)
	}
	assertAlive(t, m, 1, 300)
}

// TestReportMisbehaviorQuarantines drives the application-level offense
// path: a node that catches a peer serving forged data (e.g. a snapshot
// whose account table breaks its certified Merkle commitment) reports
// it to the transport, the reports score the peer like any wire-level
// offense, and enough of them quarantine it — inbound connections
// refused until parole.
func TestReportMisbehaviorQuarantines(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := testConfig()
	cfg.QuarantineThreshold = 8 // two reports (4+4) cross it
	cfg.QuarantineDuration = 600 * time.Millisecond
	m := newMiniNet(t, 3, func(int) Config { return cfg }, 30*time.Second)[0]

	// Reports against self and unknown ids are dropped, not scored.
	m.tr.ReportMisbehavior(0, "self-report must be ignored")
	m.tr.ReportMisbehavior(99, "unknown peer must be ignored")
	if ps := m.tr.Stats().Peers; ps[0].Reported != 0 || ps[1].Reported != 0 {
		t.Fatalf("bogus reports scored a real peer: %+v", ps)
	}

	m.tr.ReportMisbehavior(1, "forged snapshot: state root mismatch")
	ps := m.tr.Stats().Peers[0] // peer 1
	if ps.Reported != 1 {
		t.Fatalf("reported count %d, want 1", ps.Reported)
	}
	if ps.Quarantined {
		t.Fatal("one report below threshold already quarantined the peer")
	}

	m.tr.ReportMisbehavior(1, "forged snapshot: state root mismatch")
	ps = m.tr.Stats().Peers[0]
	if ps.Reported != 2 {
		t.Fatalf("reported count %d, want 2", ps.Reported)
	}
	if !ps.Quarantined || ps.Quarantines != 1 {
		t.Fatalf("peer 1 not quarantined after crossing threshold: %+v", ps)
	}

	// While quarantined, even a clean connection is refused.
	r := dialRaw(t, m.tr.Addr())
	r.hello(1)
	if !closedWithin(r.c, 5*time.Second) {
		t.Fatal("quarantined peer's connection not refused")
	}

	// The other peer is untouched and the transport still works.
	assertAlive(t, m, 2, 400)

	// After parole, the reported peer is welcome again.
	time.Sleep(cfg.QuarantineDuration + 100*time.Millisecond)
	assertAlive(t, m, 1, 401)
	if ps = m.tr.Stats().Peers[0]; ps.Quarantined {
		t.Fatal("peer still quarantined after parole")
	}
}

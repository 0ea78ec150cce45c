package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"algorand/internal/metrics"
	"algorand/internal/txflow"
)

// serverHarness boots a gateway TCP endpoint under lim against a stub
// transport; the zero lim is what ListenAndServe serves under.
func serverHarness(t *testing.T, lim txflow.Limits) (*testHarness, *Server) {
	t.Helper()
	h := newHarness(t, Config{}, 8)
	srv, err := serve("127.0.0.1:0", h.gw, lim)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(srv.Close)
	return h, srv
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes one line and decodes one JSON reply.
func roundTrip(t *testing.T, c net.Conn, line string) map[string]any {
	t.Helper()
	if _, err := fmt.Fprintf(c, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	var reply map[string]any
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewDecoder(bufio.NewReader(c)).Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return reply
}

func TestServerSubmitAndQuery(t *testing.T) {
	h, srv := serverHarness(t, txflow.Limits{})
	c := dialT(t, srv.Addr())

	tx := h.tx(t, 0, 1, 0)
	j := txflow.FromTransaction(tx)
	raw, _ := json.Marshal(j)
	rep := roundTrip(t, c, string(raw))
	if rep["ok"] != true {
		t.Fatalf("submit reply: %v", rep)
	}
	// tx status via the same connection.
	id := tx.ID()
	rep = roundTrip(t, c, fmt.Sprintf(`{"op":"tx_status","id":"%x"}`, id[:]))
	if rep["ok"] != true || rep["status"] != StatusPending {
		t.Fatalf("status reply: %v", rep)
	}
	// balance (unchanged until a block commits; as_of_round present).
	pk := h.ids[0].PublicKey()
	rep = roundTrip(t, c, fmt.Sprintf(`{"op":"balance","account":"%x"}`, pk[:]))
	if rep["ok"] != true || rep["balance"].(float64) != 1000 {
		t.Fatalf("balance reply: %v", rep)
	}
	if _, haveLag := rep["as_of_round"]; !haveLag {
		t.Fatalf("no as_of_round in %v", rep)
	}
	// head.
	rep = roundTrip(t, c, `{"op":"head"}`)
	if rep["ok"] != true {
		t.Fatalf("head reply: %v", rep)
	}
}

// servedEndpoint is one handler set booted behind the shared server
// (txflow.Server), with read-outs of its session and reject counters —
// nil where the handler set keeps none. A connection the server accepted
// is counted in sessions, or in connRejects when the cap turned it away.
type servedEndpoint struct {
	h            *testHarness // signs transactions for either set
	srv          *Server
	frameRejects func() int64
	connRejects  func() int64
	sessions     func() int64
}

// handlerSets are the two handler sets the system serves clients
// through. Each boots under the given limits; a zero field keeps the
// production default.
var handlerSets = []struct {
	name string
	boot func(t *testing.T, lim txflow.Limits) servedEndpoint
}{
	{"gateway", func(t *testing.T, lim txflow.Limits) servedEndpoint {
		h, srv := serverHarness(t, lim)
		return servedEndpoint{h, srv,
			func() int64 { return h.gw.Stats().FrameRejects },
			func() int64 { return h.gw.Stats().ConnRejects },
			func() int64 { return h.gw.Stats().Sessions }}
	}},
	// The consensus node's -submit-addr endpoint: a bare Flow.
	{"node", func(t *testing.T, lim txflow.Limits) servedEndpoint {
		h := newHarness(t, Config{}, 8)
		flow := txflow.New(h.prov, txflow.Config{})
		var srv *Server
		var err error
		e := servedEndpoint{h: h}
		if lim == (txflow.Limits{}) {
			srv, err = txflow.ListenAndServe("127.0.0.1:0", flow)
		} else {
			reg := metrics.NewRegistry()
			sessions, rejects := reg.Counter("sessions", ""), reg.Counter("conn_rejects", "")
			e.sessions = func() int64 { return int64(sessions.Load()) }
			e.connRejects = func() int64 { return int64(rejects.Load()) }
			srv, err = txflow.Serve("127.0.0.1:0", txflow.Endpoint{Name: "txflow", SubmitBatch: flow.SubmitBatch, Limits: lim,
				Sessions: sessions, ConnRejects: rejects})
		}
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(srv.Close)
		e.srv = srv
		return e
	}},
}

// TestServerHostileClients runs every hostile-client case against both
// handler sets: the loop that bounds a hostile client is one, whoever
// handles the frames.
func TestServerHostileClients(t *testing.T) {
	cases := []struct {
		name string
		lim  txflow.Limits
		run  func(t *testing.T, e servedEndpoint)
	}{
		{"malformed input gets typed errors", txflow.Limits{}, hostileMalformedInput},
		{"oversized frame rejected and closed", txflow.Limits{MaxFrameBytes: 4096}, hostileOversizedFrame},
		{"connection cap", txflow.Limits{MaxConns: 2, ConnRetryAfter: 1500 * time.Millisecond}, hostileConnectionCap},
		{"half-open connections reaped", txflow.Limits{IdleTimeout: 150 * time.Millisecond}, hostileHalfOpen},
		{"bounded under connection churn", txflow.Limits{MaxConns: 8}, hostileChurn},
		{"batch submit with partial rejects", txflow.Limits{}, batchPartialRejects},
	}
	for _, set := range handlerSets {
		for _, tc := range cases {
			set, tc := set, tc
			t.Run(set.name+"/"+tc.name, func(t *testing.T) { tc.run(t, set.boot(t, tc.lim)) })
		}
	}
}

func hostileMalformedInput(t *testing.T, e servedEndpoint) {
	for _, hostile := range []string{
		`{not json`,
		`{"op":"balance","account":"zz"}`,
		`{"op":"no_such_op"}`,
		`{"from":"short","to":"short","amount":1,"nonce":0,"sig":"00"}`,
		`[{"from":"short"}]`,
		`12345`,
		`"just a string"`,
		`{"op":"tx_status","id":"deadbeef"}`,
	} {
		c := dialT(t, e.srv.Addr())
		rep := roundTrip(t, c, hostile)
		if rep["ok"] == true {
			t.Fatalf("hostile input %q accepted: %v", hostile, rep)
		}
		// A typed error arrives either at the top level or (for batches)
		// per result.
		typed := rep["error"] != nil && rep["error"] != ""
		if results, ok := rep["results"].([]any); ok && !typed {
			for _, r := range results {
				if m, ok := r.(map[string]any); ok && m["error"] != nil && m["error"] != "" {
					typed = true
				}
			}
		}
		if !typed {
			t.Fatalf("hostile input %q: no typed error in %v", hostile, rep)
		}
		c.Close()
	}
}

func hostileOversizedFrame(t *testing.T, e servedEndpoint) {
	c := dialT(t, e.srv.Addr())
	// A 64 KiB line against a 4 KiB frame limit.
	huge := strings.Repeat("x", 64<<10)
	rep := roundTrip(t, c, huge)
	if rep["ok"] == true || !strings.Contains(rep["error"].(string), "frame") {
		t.Fatalf("oversized frame reply: %v", rep)
	}
	// The connection must be closed after the typed error.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection stayed open after oversized frame")
	}
	if e.frameRejects != nil && e.frameRejects() == 0 {
		t.Fatal("frame reject not counted")
	}
}

func hostileConnectionCap(t *testing.T, e servedEndpoint) {
	// Any frame proves a connection is served; a malformed one gets its
	// typed error from either handler set.
	served := func(c net.Conn) {
		if rep := roundTrip(t, c, `{not json`); rep["error"] == nil {
			t.Fatalf("in-cap connection not served: %v", rep)
		}
	}
	c1 := dialT(t, e.srv.Addr())
	c2 := dialT(t, e.srv.Addr())
	served(c1)
	served(c2)

	// The third connection gets a typed reject with the retry hint and
	// an immediate close.
	c3 := dialT(t, e.srv.Addr())
	var rep map[string]any
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewDecoder(c3).Decode(&rep); err != nil {
		t.Fatalf("no reject frame on capped conn: %v", err)
	}
	if rep["ok"] == true || !strings.Contains(rep["error"].(string), "connection limit") {
		t.Fatalf("cap reject: %v", rep)
	}
	if rep["retry_after_ms"].(float64) != 1500 {
		t.Fatalf("retry_after_ms = %v, want 1500", rep["retry_after_ms"])
	}
	if _, err := c3.Read(make([]byte, 1)); err == nil {
		t.Fatal("capped connection stayed open")
	}
	if e.connRejects != nil && e.connRejects() == 0 {
		t.Fatal("conn reject not counted")
	}

	// Closing one in-cap connection frees a slot: the server holds both
	// until it sees the close.
	if n := e.srv.ConnCount(); n != 2 {
		t.Fatalf("%d connections tracked at the cap, want 2", n)
	}
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.ConnCount() >= 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	served(dialT(t, e.srv.Addr()))
}

// awaitAccepted waits, with a bound, until the server has decided on k
// connections — served or turned away at the cap — so that a wait for
// them to be gone starts from connections it has seen.
func awaitAccepted(t *testing.T, e servedEndpoint, k int64) {
	t.Helper()
	decided := func() int64 {
		n := e.sessions()
		if e.connRejects != nil {
			n += e.connRejects()
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for decided() < k && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := decided(); n < k {
		t.Fatalf("the server accepted %d connections of %d", n, k)
	}
}

func hostileHalfOpen(t *testing.T, e servedEndpoint) {
	c := dialT(t, e.srv.Addr())
	// Send nothing. The server must reap the connection, not pin its
	// goroutine and map entry forever.
	awaitAccepted(t, e, 1)
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.ConnCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := e.srv.ConnCount(); n != 0 {
		t.Fatalf("half-open connection not reaped: %d still tracked", n)
	}
	// The reaped socket reads EOF/reset on the client side.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("half-open connection still alive")
	}
}

func hostileChurn(t *testing.T, e servedEndpoint) {
	// 100 sequential hostile connections: garbage then slam shut. State
	// must not accumulate.
	for i := 0; i < 100; i++ {
		c, err := net.Dial("tcp", e.srv.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		fmt.Fprintf(c, "garbage-%d\n", i)
		c.Close()
	}
	awaitAccepted(t, e, 100)
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.ConnCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := e.srv.ConnCount(); n != 0 {
		t.Fatalf("%d connections leaked after churn", n)
	}
}

func batchPartialRejects(t *testing.T, e servedEndpoint) {
	h := e.h
	c := dialT(t, e.srv.Addr())
	good := txflow.FromTransaction(h.tx(t, 0, 1, 0))
	dup := good
	tampered := h.tx(t, 2, 1, 0)
	tampered.Sig[0] ^= 0xff // bad signature
	badSig := txflow.FromTransaction(tampered)
	raw, _ := json.Marshal([]txflow.TxJSON{good, dup, badSig})
	rep := roundTrip(t, c, string(raw))
	results := rep["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("want 3 results, got %v", rep)
	}
	first := results[0].(map[string]any)
	second := results[1].(map[string]any)
	third := results[2].(map[string]any)
	if first["ok"] != true {
		t.Fatalf("good tx rejected: %v", first)
	}
	if second["ok"] == true || !strings.Contains(second["error"].(string), "duplicate") {
		t.Fatalf("duplicate not rejected: %v", second)
	}
	if third["ok"] == true || !strings.Contains(third["error"].(string), "signature") {
		t.Fatalf("tampered-sig tx outcome: %v", third)
	}
}

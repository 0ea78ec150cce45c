package txflow

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"algorand/internal/ledger"
	"algorand/internal/metrics"
)

// Server is the system's one client-facing TCP/JSON endpoint:
// cmd/algorand-node -submit-addr serves a Flow through it
// (ListenAndServe), and the access gateway serves its admission path
// plus query ops through the same loop (gateway.ListenAndServe). Clients
// write newline-delimited JSON — one request per line, a single
// transaction object, an array for a batch, or an {"op":...} query where
// the endpoint has queries — and read one JSON reply per request:
//
//	{"from":"<64 hex>","to":"<64 hex>","amount":5,"fee":1,"nonce":0,"sig":"<128 hex>"}
//	→ {"ok":true}
//	[{...},{...}]
//	→ {"ok":false,"results":[{"ok":true},{"ok":false,"error":"txflow: stale nonce"}]}
//
// Each connection is served by its own goroutine, so independent
// clients verify signatures in parallel; rejections are immediate
// (admission never blocks on a full pool). The endpoint is hardened for
// hostile clients, with the bounds of Endpoint.Limits:
//
//   - at most MaxConns concurrent connections; the excess gets
//     {"ok":false,"error":"<name>: connection limit",
//     "retry_after_ms":N} and an immediate close;
//   - one request frame is one line of at most MaxFrameBytes;
//     oversized frames get a typed error and the connection closes;
//   - a connection idle for IdleTimeout is reaped (half-open sockets
//     cannot pin per-connection state);
//   - malformed JSON gets a typed error, never a panic, and costs
//     nothing but the reply.
type Server struct {
	ln net.Listener
	ep Endpoint
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Endpoint is what a Server serves: the admission call behind the
// submission frames, the handler behind {"op":...} frames, and the
// bounds and counters of the connection loop.
type Endpoint struct {
	// Name prefixes the loop's own errors ("gateway: connection limit").
	Name string
	// SubmitBatch admits decoded transactions (a single submission is a
	// batch of one); the i-th error belongs to txs[i], which is nil where
	// the entry did not decode.
	SubmitBatch func(txs []*ledger.Transaction) []error
	// Query answers a frame whose "op" field is non-empty with the value
	// to encode as the reply; nil means the endpoint has no ops.
	Query  func(raw []byte) any
	Limits Limits
	// Sessions counts served connections, ConnRejects connections turned
	// away at the cap, FrameRejects oversized or malformed frames. Any
	// may be nil.
	Sessions, ConnRejects, FrameRejects *metrics.Counter
}

// Limits are the bounds listed on Server. A zero field gets its default
// (withDefaults): what the node's -submit-addr endpoint runs under, and a
// gateway's, but for its Config.MaxConns.
type Limits struct {
	MaxConns       int
	ConnRetryAfter time.Duration // the retry hint on a connection-cap reject
	MaxFrameBytes  int
	IdleTimeout    time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxConns <= 0 {
		l.MaxConns = 1024
	}
	if l.ConnRetryAfter <= 0 {
		l.ConnRetryAfter = time.Second
	}
	if l.MaxFrameBytes <= 0 {
		l.MaxFrameBytes = 1 << 20
	}
	if l.IdleTimeout <= 0 {
		l.IdleTimeout = 2 * time.Minute
	}
	return l
}

// TxJSON is the submission wire format: fixed-size fields in hex,
// integers in decimal.
type TxJSON struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Amount uint64 `json:"amount"`
	Fee    uint64 `json:"fee,omitempty"`
	Nonce  uint64 `json:"nonce"`
	Sig    string `json:"sig"`
}

// Result is the per-transaction reply. RetryAfterMs, when non-zero, is
// the backoff hint for load-shedding rejects: the milliseconds the
// sender should wait before resubmitting.
type Result struct {
	Ok           bool   `json:"ok"`
	Error        string `json:"error,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Reply is the reply frame of a submission, and of any failure.
type Reply struct {
	Ok           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	RetryAfterMs int64    `json:"retry_after_ms,omitempty"`
	Results      []Result `json:"results,omitempty"`
}

// rejectResult renders a submission error, attaching the retry-after
// hint when admission shed load.
func rejectResult(err error) Result {
	res := Result{Error: err.Error()}
	if retry, ok := RetryAfterHint(err); ok {
		res.RetryAfterMs = retry.Milliseconds()
	}
	return res
}

// Transaction converts the JSON form to the ledger type.
func (j *TxJSON) Transaction() (*ledger.Transaction, error) {
	tx := &ledger.Transaction{Amount: j.Amount, Fee: j.Fee, Nonce: j.Nonce}
	if err := HexKey(j.From, tx.From[:]); err != nil {
		return nil, fmt.Errorf("from: %w", err)
	}
	if err := HexKey(j.To, tx.To[:]); err != nil {
		return nil, fmt.Errorf("to: %w", err)
	}
	sig, err := hex.DecodeString(j.Sig)
	if err != nil || len(sig) == 0 || len(sig) > 128 {
		return nil, errors.New("sig: bad hex or length")
	}
	tx.Sig = sig
	return tx, nil
}

// FromTransaction renders a signed transaction for submission.
func FromTransaction(tx *ledger.Transaction) TxJSON {
	return TxJSON{
		From:   hex.EncodeToString(tx.From[:]),
		To:     hex.EncodeToString(tx.To[:]),
		Amount: tx.Amount,
		Fee:    tx.Fee,
		Nonce:  tx.Nonce,
		Sig:    hex.EncodeToString(tx.Sig),
	}
}

// HexKey decodes a fixed-size hex field (a key, a digest) into dst.
func HexKey(s string, dst []byte) error {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(dst) {
		return errors.New("bad hex key")
	}
	copy(dst, b)
	return nil
}

// ListenAndServe opens the submission endpoint feeding flow, under the
// default Limits.
func ListenAndServe(addr string, flow *Flow) (*Server, error) {
	return Serve(addr, Endpoint{Name: "txflow", SubmitBatch: flow.SubmitBatch})
}

// Serve opens an endpoint on addr; zero Limits fields get their defaults.
func Serve(addr string, ep Endpoint) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep.Limits = ep.Limits.withDefaults()
	s := &Server{ln: ln, ep: ep, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// ConnCount reports currently served connections (tests assert the
// bound holds).
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func count(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		if len(s.conns) >= s.ep.Limits.MaxConns {
			s.mu.Unlock()
			count(s.ep.ConnRejects)
			// Typed reject with a retry hint; the client backs off and
			// redials (or fails over to another endpoint).
			c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			json.NewEncoder(c).Encode(Reply{
				Error:        s.ep.Name + ": connection limit",
				RetryAfterMs: s.ep.Limits.ConnRetryAfter.Milliseconds(),
			})
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		count(s.ep.Sessions)
		s.wg.Add(1)
		go s.serve(c)
	}
}

func (s *Server) serve(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	enc := json.NewEncoder(c)
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 4096), s.ep.Limits.MaxFrameBytes)
	for {
		// Half-open reaping: no full frame within IdleTimeout kills the
		// connection.
		c.SetReadDeadline(time.Now().Add(s.ep.Limits.IdleTimeout))
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				count(s.ep.FrameRejects)
				enc.Encode(Reply{Error: s.ep.Name + ": frame exceeds limit"})
			}
			return
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := enc.Encode(s.handle(line)); err != nil {
			return
		}
	}
}

// handle dispatches one request frame.
func (s *Server) handle(raw []byte) any {
	if raw[0] == '[' {
		return s.handleBatch(raw)
	}
	// Distinguish a query from a submission by the "op" field.
	var probe struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		count(s.ep.FrameRejects)
		return Reply{Error: "bad request: " + err.Error()}
	}
	if probe.Op == "" {
		return s.handleSubmit(raw)
	}
	if s.ep.Query == nil {
		return Reply{Error: "unknown op: " + probe.Op}
	}
	return s.ep.Query(raw)
}

func (s *Server) handleSubmit(raw []byte) Reply {
	var one TxJSON
	if err := json.Unmarshal(raw, &one); err != nil {
		count(s.ep.FrameRejects)
		return Reply{Error: "bad tx: " + err.Error()}
	}
	res := s.submit([]TxJSON{one})[0]
	return Reply{Ok: res.Ok, Error: res.Error, RetryAfterMs: res.RetryAfterMs}
}

func (s *Server) handleBatch(raw []byte) Reply {
	var batch []TxJSON
	if err := json.Unmarshal(raw, &batch); err != nil {
		count(s.ep.FrameRejects)
		return Reply{Error: "bad batch: " + err.Error()}
	}
	rep := Reply{Ok: true, Results: s.submit(batch)}
	for _, res := range rep.Results {
		rep.Ok = rep.Ok && res.Ok
	}
	return rep
}

// submit decodes a batch and admits what decoded, one result per entry.
func (s *Server) submit(batch []TxJSON) []Result {
	txs := make([]*ledger.Transaction, len(batch))
	results := make([]Result, len(batch))
	for i := range batch {
		tx, err := batch[i].Transaction()
		if err != nil {
			results[i] = Result{Error: err.Error()}
			continue
		}
		txs[i] = tx
	}
	for i, err := range s.ep.SubmitBatch(txs) {
		switch {
		case txs[i] == nil: // decode error already recorded
		case err != nil:
			results[i] = rejectResult(err)
		default:
			results[i] = Result{Ok: true}
		}
	}
	return results
}

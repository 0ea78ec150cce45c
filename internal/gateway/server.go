package gateway

import (
	"encoding/hex"
	"encoding/json"

	"algorand/internal/crypto"
	"algorand/internal/txflow"
)

// Server is the gateway's client-facing TCP/JSON endpoint: the node's
// -submit-addr endpoint (one accept loop, one frame reader, one
// submission handler — see txflow.Server, which also documents the
// bounds a hostile client meets) serving the gateway's admission path
// and, on top of the submission frames, its query ops:
//
//	{"from":...,"to":...,"amount":..,"fee":..,"nonce":..,"sig":...}   submit one
//	[{...},{...}]                                                     submit batch
//	{"op":"balance","account":"<64 hex>"}                             account state
//	{"op":"tx_status","id":"<64 hex>"}                                tx status
//	{"op":"block","round":N}                                          block summary
//	{"op":"head"}                                                     chain head
type Server = txflow.Server

// queryJSON is the query envelope ("op" distinguishes it from a
// transaction submission, which has no such field).
type queryJSON struct {
	Op      string `json:"op"`
	Account string `json:"account,omitempty"`
	ID      string `json:"id,omitempty"`
	Round   uint64 `json:"round,omitempty"`
}

// queryReply is the query response. AsOfRound reports the read-model
// head the answer was computed against — the consistency-lag contract:
// an answer is exact as of that round and may trail the cluster.
type queryReply struct {
	Ok        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	AsOfRound uint64 `json:"as_of_round"`
	// balance
	Balance uint64 `json:"balance,omitempty"`
	Nonce   uint64 `json:"nonce,omitempty"`
	// tx_status
	Status string `json:"status,omitempty"`
	Round  uint64 `json:"round,omitempty"`
	// block / head
	Hash         string `json:"hash,omitempty"`
	Txs          int    `json:"txs,omitempty"`
	PayloadBytes int    `json:"payload_bytes,omitempty"`
}

// ListenAndServe opens the gateway endpoint, bounded by the
// MaxConns/ConnRetryAfter/MaxFrameBytes/IdleTimeout of the gateway's
// Config.
func ListenAndServe(addr string, gw *Gateway) (*Server, error) {
	return txflow.Serve(addr, txflow.Endpoint{
		Name:        "gateway",
		SubmitBatch: gw.SubmitBatch,
		Query:       gw.handleQuery,
		Limits: txflow.Limits{
			MaxConns:       gw.cfg.MaxConns,
			ConnRetryAfter: gw.cfg.ConnRetryAfter,
			MaxFrameBytes:  gw.cfg.MaxFrameBytes,
			IdleTimeout:    gw.cfg.IdleTimeout,
		},
		Sessions:     gw.c.sessions,
		ConnRejects:  gw.c.connRejects,
		FrameRejects: gw.c.frameRejects,
	})
}

// handleQuery answers one {"op":...} frame from the read model.
func (g *Gateway) handleQuery(raw []byte) any {
	var q queryJSON
	if err := json.Unmarshal(raw, &q); err != nil {
		g.c.frameRejects.Inc()
		return txflow.Reply{Error: "bad query: " + err.Error()}
	}
	g.c.queries.Inc()
	rm := g.rm
	switch q.Op {
	case "balance":
		var pk crypto.PublicKey
		if err := txflow.HexKey(q.Account, pk[:]); err != nil {
			return txflow.Reply{Error: "balance: bad account key"}
		}
		money, nonce, asOf := rm.Balance(pk)
		return queryReply{Ok: true, Balance: money, Nonce: nonce, AsOfRound: asOf}
	case "tx_status":
		var id crypto.Digest
		if err := txflow.HexKey(q.ID, id[:]); err != nil {
			return txflow.Reply{Error: "tx_status: bad id"}
		}
		status, round, asOf := rm.TxStatus(id)
		return queryReply{Ok: true, Status: status, Round: round, AsOfRound: asOf}
	case "block":
		headRound, _ := rm.Head()
		b, ok := rm.BlockAt(q.Round)
		if !ok {
			return queryReply{Ok: false, Error: "block: not retained", AsOfRound: headRound}
		}
		h := b.Hash()
		return queryReply{
			Ok: true, Round: b.Round, Hash: hex.EncodeToString(h[:]),
			Txs: len(b.Txns), PayloadBytes: b.WireSize(), AsOfRound: headRound,
		}
	case "head":
		round, h := rm.Head()
		return queryReply{Ok: true, Round: round, Hash: hex.EncodeToString(h[:]), AsOfRound: round}
	}
	return txflow.Reply{Error: "unknown op: " + q.Op}
}

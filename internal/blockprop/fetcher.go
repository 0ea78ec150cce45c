package blockprop

import (
	"bytes"
	"sort"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/sortition"
)

// The fetch policy's two constants. Neither is a Config field: both
// follow from PieceSize and the §10 link model, and the benchmark has
// no workload that wants another value.
const (
	// FetchWindow is how many pieces may be outstanding to one
	// neighbour: one. A piece is a network.Reply, so a vote on a
	// holder's uplink waits at most for the piece in progress (a tenth
	// of a second), however many are owed; what the window still sets is
	// the queue ahead of a newly released piece, and with one piece per
	// neighbour what a requester is owed is spread over every holder it
	// knows. (Two was measured: +21 % on the 10 MB round while votes
	// queued behind pieces; with replies yielding, sim-bigblock-10mb
	// seeds 11–20 read round_p50_s 10.883 s against 10.851 s, +0.3 %,
	// and committed_mb_per_h −1.5 %.)
	FetchWindow = 1
	// PieceTimeout is how long a requested piece may take before it is
	// asked of another holder: above the worst honest case (one piece
	// per neighbour queued on the holder's uplink and again on our
	// downlink, about two seconds on 20 Mbit/s links), and a twelfth of
	// λ_block, so a silent holder costs a piece's wait, not the body's.
	PieceTimeout = 5 * time.Second
)

// maxBodiesPerProposer is how many distinct bodies the fetcher keeps for
// one proposer in one round: the two an equivocator needs to be caught
// with (§10.4), and no more for it to fill memory with.
const maxBodiesPerProposer = 2

// FetchMetrics counts what the fetcher did, piece by piece.
type FetchMetrics struct {
	Requested *metrics.Counter
	Received  *metrics.Counter
	Duplicate *metrics.Counter
	TimedOut  *metrics.Counter
	Rejected  *metrics.Counter
}

// NewFetchMetrics registers the piece counter family in r.
func NewFetchMetrics(r *metrics.Registry) *FetchMetrics {
	return &FetchMetrics{
		Requested: r.Counter("algorand_blockprop_pieces_requested_total", "block pieces requested from neighbours"),
		Received:  r.Counter("algorand_blockprop_pieces_received_total", "requested block pieces that arrived and passed verification"),
		Duplicate: r.Counter("algorand_blockprop_pieces_duplicate_total", "block pieces that arrived unrequested or already held"),
		TimedOut:  r.Counter("algorand_blockprop_pieces_timed_out_total", "piece requests re-assigned after the per-piece timeout"),
		Rejected:  r.Counter("algorand_blockprop_pieces_rejected_total", "block pieces that failed verification"),
	}
}

// ActionKind says what the fetcher wants done.
type ActionKind int

const (
	// ActRequest: ask Peer for piece Index of body Hash.
	ActRequest ActionKind = iota
	// ActAdvertise: tell the neighbours that piece Index of body Hash is
	// now held (First: it is the first, so they have not seen the
	// manifest from us yet).
	ActAdvertise
	// ActDeliver: body Hash is complete and matches its announced hash;
	// Msg is the proposal, Started when its first announce came.
	ActDeliver
)

// Action is one instruction from the fetcher to the node around it.
type Action struct {
	Kind    ActionKind
	Hash    crypto.Digest
	Peer    int
	Index   int
	First   bool
	Msg     *BlockMsg
	Started time.Duration
}

// Fetcher is the block-fetch state machine of one node: which bodies
// have been announced, by whom, which pieces are held, requested or
// missing. Events go in — a neighbour announced or advertised, a piece
// arrived, time passed, a better priority was learned — and actions come
// out: request a piece, advertise one, deliver an assembled proposal.
// It holds no clock, mailbox, goroutine or network; the returned actions
// are valid until the next call.
type Fetcher struct {
	rng     uint64
	bodies  map[crypto.Digest]*body
	best    map[uint64]sortition.Priority
	invalid map[proposal]struct{} // proposers whose body did not assemble
	// announced holds who has announced which body (OnAnnounce), so that
	// a copy of an announce costs no second verification (Announced).
	announced map[announcement]struct{}
	m         *FetchMetrics
	out       []Action
}

type proposal struct {
	round    uint64
	proposer crypto.PublicKey
}

type announcement struct {
	round uint64
	hash  crypto.Digest
	peer  int
}

// body is the fetch state of one announced block.
type body struct {
	manifest *Manifest
	pieces   []*Piece // verified pieces by index
	have     Bitmap
	held     int
	pending  Bitmap // requested and not yet arrived or timed out
	flights  []flight
	peers    []peer
	started  time.Duration
	msg      *BlockMsg // set once assembled (or proposed here)
	// stripes is the first pass over a body proposed here (Seed): for
	// each neighbour offered a share, the pieces of it not yet asked for.
	stripes []stripe
}

type stripe struct {
	peer int
	left Bitmap
}

type flight struct {
	index    int
	peer     int
	deadline time.Duration
	// expired: the deadline passed and the piece was offered to another
	// holder. The entry stays so that the piece, should it still come, is
	// recognised as asked for; it no longer counts against the window.
	expired bool
}

// peer is what one neighbour has told us about one body.
type peer struct {
	id       int
	all      bool
	have     Bitmap
	inflight int
	stalled  bool // let a request time out and has delivered nothing since
	bad      bool // served a piece that failed verification
}

func (p *peer) has(i int) bool { return p.all || p.have.Has(i) }

// NewFetcher returns the fetcher of node self. A nil m counts into a
// private registry.
func NewFetcher(self int, m *FetchMetrics) *Fetcher {
	if m == nil {
		m = NewFetchMetrics(metrics.NewRegistry())
	}
	return &Fetcher{
		rng:       uint64(self)*0x9e3779b97f4a7c15 + 1,
		bodies:    make(map[crypto.Digest]*body),
		best:      make(map[uint64]sortition.Priority),
		invalid:   make(map[proposal]struct{}),
		announced: make(map[announcement]struct{}),
		m:         m,
	}
}

// next steps the piece-choice stream (xorshift64*): deterministic per
// node, different between nodes, so neighbours of one holder ask it for
// different pieces and have something to trade.
func (f *Fetcher) next() uint64 {
	f.rng ^= f.rng >> 12
	f.rng ^= f.rng << 25
	f.rng ^= f.rng >> 27
	return f.rng * 0x2545f4914f6cdd1d
}

// NoteBest records a verified proposal priority of a round. Bodies it
// beats are not requested further; a tie is not a beating (an
// equivocator's two bodies share a priority and both must be fetched,
// §10.4).
func (f *Fetcher) NoteBest(round uint64, p sortition.Priority) {
	if best, ok := f.best[round]; !ok || best.Less(p) {
		f.best[round] = p
	}
}

// Best returns the highest proposal priority seen in a round.
func (f *Fetcher) Best(round uint64) (sortition.Priority, bool) {
	p, ok := f.best[round]
	return p, ok
}

// Hold installs a body proposed by this node: complete from the start,
// served to whoever asks.
func (f *Fetcher) Hold(m *Manifest, pieces []*Piece, msg *BlockMsg) {
	have := NewBitmap(len(pieces))
	for i := range pieces {
		have.Set(i)
	}
	f.bodies[m.Announce.BlockHash] = &body{manifest: m, pieces: pieces, have: have, held: len(pieces), msg: msg}
}

// Seed plans the first pass over a body proposed here (Hold) to the
// given neighbours, and returns what to advertise to each: nil, the
// whole body. Every neighbour may pull all of it, and left to themselves
// they each start on pieces of their own choosing: the proposer's
// uplink, the only source there is, then spends the first seconds
// sending some pieces several times over and others not at all, and the
// swarm waits for the last distinct piece to leave it. So a body of
// several pieces is first offered in stripes, a disjoint share per
// neighbour, which puts every piece into the swarm once in the time the
// uplink needs to send the body once; Serve says when a neighbour has
// asked for all of its share and is to be told the rest. A neighbour
// that asks for nothing delays nobody but itself. A nil result means no
// stripes: one piece, or one neighbour.
func (f *Fetcher) Seed(hash crypto.Digest, peers []int) []Bitmap {
	b := f.bodies[hash]
	if b == nil || b.msg == nil || len(b.pieces) < 2 || len(peers) < 2 {
		return nil
	}
	count := len(b.pieces)
	offers := make([]Bitmap, len(peers))
	b.stripes = b.stripes[:0]
	for k, peer := range peers {
		if k >= count {
			break // more neighbours than pieces: the rest are offered everything
		}
		offers[k] = NewBitmap(count)
		for i := k; i < count; i += len(peers) {
			offers[k].Set(i)
		}
		b.stripes = append(b.stripes, stripe{peer: peer, left: append(Bitmap(nil), offers[k]...)})
	}
	return offers
}

// Serve answers neighbour from's request for a piece: the verified piece,
// if this node holds it. lifted says the request was for the last piece
// of the stripe the neighbour was offered (Seed) that it had not asked
// for before, so it is now to be told that everything is held here.
func (f *Fetcher) Serve(from int, hash crypto.Digest, index int) (p *Piece, lifted bool) {
	b := f.bodies[hash]
	if b == nil || index < 0 || index >= len(b.pieces) || b.pieces[index] == nil {
		return nil, false
	}
	for i := range b.stripes {
		if st := &b.stripes[i]; st.peer == from && st.left.Has(index) {
			st.left.clear(index)
			if lifted = st.left.Len() == 0; lifted {
				b.stripes = append(b.stripes[:i], b.stripes[i+1:]...)
			}
			break
		}
	}
	return b.pieces[index], lifted
}

// Manifest returns the verified manifest of a known body.
func (f *Fetcher) Manifest(hash crypto.Digest) (*Manifest, bool) {
	b := f.bodies[hash]
	if b == nil {
		return nil, false
	}
	return b.manifest, true
}

// Have returns a copy of what this node holds of a body, nil meaning
// all of it.
func (f *Fetcher) Have(hash crypto.Digest) Bitmap {
	if b := f.bodies[hash]; b != nil && b.msg == nil {
		return append(Bitmap(nil), b.have...)
	}
	return nil
}

// PeerLacks reports whether, as far as this node has been told, peer
// does not hold piece index of a body: a neighbour that does has no use
// for the news that we do too.
func (f *Fetcher) PeerLacks(hash crypto.Digest, peer, index int) bool {
	if b := f.bodies[hash]; b != nil {
		if p := b.peer(peer); p != nil {
			return !p.has(index)
		}
	}
	return true
}

// Announced reports whether neighbour from has announced the body with
// this hash in a round not yet over. The caller drops such an announce
// before verifying it: a neighbour announces a body once, so a copy is a
// replay, and verifying it again would only cost a VRF check.
func (f *Fetcher) Announced(round uint64, hash crypto.Digest, from int) bool {
	_, ok := f.announced[announcement{round, hash, from}]
	return ok
}

// OnAnnounce handles "peer from holds (part of) the body m describes".
// The caller has verified the announce's credentials and m.Verify. have
// nil means the whole body. The announce is remembered (Announced) even
// when the body is refused or already held.
func (f *Fetcher) OnAnnounce(now time.Duration, from int, m *Manifest, have Bitmap) ([]Action, error) {
	f.out = f.out[:0]
	hash := m.Announce.BlockHash
	f.announced[announcement{m.Announce.Round, hash, from}] = struct{}{}
	b := f.bodies[hash]
	if b == nil {
		key := proposal{m.Announce.Round, m.Announce.Proposer}
		if _, bad := f.invalid[key]; bad {
			return nil, ErrBadAssembly
		}
		n := 0
		for _, o := range f.bodies {
			if o.manifest.Announce.Round == key.round && o.manifest.Announce.Proposer == key.proposer {
				n++
			}
		}
		if n >= maxBodiesPerProposer {
			return nil, ErrTooManyBodies
		}
		b = newBody(m, now)
		f.bodies[hash] = b
	} else if !b.manifest.same(m) {
		if b.msg != nil || len(b.manifest.Digests) != 0 || len(m.Digests) == 0 || !sameAnnounce(&b.manifest.Announce, &m.Announce) {
			// A second description of one block hash: its pieces would fail
			// the digests we verified, so the sender is no use as a source.
			return nil, ErrManifest
		}
		// What is held is the unsigned claim that the body is one piece,
		// which anyone who saw the flooded priority can make, and nothing
		// has matched the announced hash under it; m carries the proposer's
		// signature over a piece count and digests. The signed description
		// takes the claim's place, and whoever made the claim, and whatever
		// was asked of them, is forgotten.
		*b = *newBody(m, b.started)
	}
	if b.msg != nil {
		return nil, nil
	}
	f.notePeer(b, from, have, have == nil)
	f.schedule(now, b)
	return f.out, nil
}

func newBody(m *Manifest, started time.Duration) *body {
	count := m.Pieces()
	return &body{
		manifest: m,
		pieces:   make([]*Piece, count),
		have:     NewBitmap(count),
		pending:  NewBitmap(count),
		started:  started,
	}
}

// OnHave handles a neighbour's updated advertisement for a body. One
// for a body this node does not know, or already holds whole, is
// dropped without allocating. So is one for a body of one piece, which
// has no partial possession to update: an update names a body by hash
// only, and a piece count the proposer did not sign is a claim of the
// neighbours that announced it, to be tried on them and nobody else.
func (f *Fetcher) OnHave(now time.Duration, from int, hash crypto.Digest, have Bitmap) []Action {
	f.out = f.out[:0]
	b := f.bodies[hash]
	if b == nil || b.msg != nil || len(b.pieces) == 1 {
		return nil
	}
	f.notePeer(b, from, have, have == nil)
	f.schedule(now, b)
	return f.out
}

// peer returns what neighbour id has told us about b, nil if nothing.
func (b *body) peer(id int) *peer {
	for i := range b.peers {
		if b.peers[i].id == id {
			return &b.peers[i]
		}
	}
	return nil
}

func (f *Fetcher) notePeer(b *body, id int, have Bitmap, all bool) {
	p := b.peer(id)
	if p == nil {
		b.peers = append(b.peers, peer{id: id, have: NewBitmap(len(b.pieces))})
		p = &b.peers[len(b.peers)-1]
	}
	p.all = p.all || all
	p.have.merge(have)
}

// OnPiece handles a piece arriving from a peer. Only a piece this node
// asked that peer for is looked at; it is stored, and may be served
// onward, only after it matched the manifest (or, for a one-piece body,
// the announced block hash).
func (f *Fetcher) OnPiece(now time.Duration, from int, pc *Piece) ([]Action, error) {
	f.out = f.out[:0]
	b := f.bodies[pc.blockHash]
	fi := -1
	if b != nil {
		for i := range b.flights {
			if b.flights[i].index == pc.index && b.flights[i].peer == from {
				fi = i
				break
			}
		}
	}
	if fi < 0 {
		f.m.Duplicate.Inc()
		return nil, ErrUnsolicited
	}
	f.land(b, fi)
	src := b.peer(from)
	if b.have.Has(pc.index) {
		// Timed out, re-assigned, and both copies came.
		f.m.Duplicate.Inc()
		f.schedule(now, b)
		return f.out, nil
	}

	err := pc.check(len(b.pieces))
	if err == nil && len(b.pieces) > 1 && pc.Digest() != b.manifest.Digests[pc.index] {
		err = ErrForgedPiece
	}
	var msg *BlockMsg
	if err == nil {
		b.pieces[pc.index] = pc
		if b.held+1 == len(b.pieces) {
			msg = assemble(b.pieces)
			if !sameAnnounce(&msg.Announce, &b.manifest.Announce) || msg.Block.Hash() != pc.blockHash {
				if err = ErrBadAssembly; len(b.pieces) == 1 {
					// No manifest vouches for a one-piece body, so the fault
					// is the sender's as far as anyone can tell.
					err = ErrForgedPiece
				}
			}
		}
	}
	switch err {
	case nil:
	case ErrBadAssembly:
		// Every piece matched what the proposer signed and the whole does
		// not: the proposal is invalid, as if it had failed validation.
		f.m.Rejected.Inc()
		f.invalid[proposal{b.manifest.Announce.Round, b.manifest.Announce.Proposer}] = struct{}{}
		delete(f.bodies, pc.blockHash)
		return nil, err
	default:
		f.m.Rejected.Inc()
		b.pieces[pc.index] = nil
		src.bad = true
		f.schedule(now, b)
		return f.out, err
	}

	f.m.Received.Inc()
	src.stalled = false
	b.have.Set(pc.index)
	b.held++
	f.out = append(f.out, Action{Kind: ActAdvertise, Hash: pc.blockHash, Index: pc.index, First: b.held == 1})
	if msg != nil {
		b.msg = msg
		b.flights = nil
		f.out = append(f.out, Action{Kind: ActDeliver, Hash: pc.blockHash, Msg: msg, Started: b.started})
		return f.out, nil
	}
	f.schedule(now, b)
	return f.out, nil
}

// land removes flight i of b: its piece arrived.
func (f *Fetcher) land(b *body, i int) {
	if !b.flights[i].expired {
		f.release(b, i)
	}
	b.flights = append(b.flights[:i], b.flights[i+1:]...)
}

// release frees the window slot and the piece of flight i.
func (f *Fetcher) release(b *body, i int) {
	fl := b.flights[i]
	b.pending.clear(fl.index)
	b.peer(fl.peer).inflight--
}

// Tick re-assigns every request whose piece has not arrived by now.
func (f *Fetcher) Tick(now time.Duration) []Action {
	f.out = f.out[:0]
	for _, b := range f.sortedBodies() {
		expired := false
		for i := range b.flights {
			if fl := &b.flights[i]; !fl.expired && fl.deadline <= now {
				f.m.TimedOut.Inc()
				b.peer(fl.peer).stalled = true
				f.release(b, i)
				fl.expired, expired = true, true
			}
		}
		if expired {
			f.schedule(now, b)
		}
	}
	return f.out
}

// sortedBodies returns the bodies with requests in flight in a fixed
// order (map iteration would make the action order, and with it a
// simulation, differ between runs).
func (f *Fetcher) sortedBodies() []*body {
	var out []*body
	for _, b := range f.bodies {
		if len(b.flights) > 0 {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].manifest.Announce.BlockHash[:], out[j].manifest.Announce.BlockHash[:]) < 0
	})
	return out
}

// NextDeadline returns the earliest time a request in flight expires.
func (f *Fetcher) NextDeadline() (time.Duration, bool) {
	var at time.Duration
	found := false
	for _, b := range f.bodies {
		for _, fl := range b.flights {
			if !fl.expired && (!found || fl.deadline < at) {
				at, found = fl.deadline, true
			}
		}
	}
	return at, found
}

// schedule hands out requests for b's missing pieces: one per pass to
// each neighbour with room in its window, so the load spreads over every
// holder; for each, the piece fewest other neighbours hold (a rare piece
// is the one worth having to trade), ties broken by the node's own
// stream. A neighbour that let a request time out is only asked for
// what nobody else advertises (choose).
func (f *Fetcher) schedule(now time.Duration, b *body) {
	if b.msg != nil {
		return
	}
	if best, ok := f.best[b.manifest.Announce.Round]; ok && b.manifest.Announce.Priority.Less(best) {
		return // beaten: nothing further is requested
	}
	for progressed := true; progressed; {
		progressed = false
		for pi := range b.peers {
			p := &b.peers[pi]
			if p.bad || p.inflight >= FetchWindow {
				continue
			}
			idx := f.choose(b, p)
			if idx < 0 {
				continue
			}
			p.inflight++
			b.pending.Set(idx)
			b.flights = append(b.flights, flight{index: idx, peer: p.id, deadline: now + PieceTimeout})
			f.m.Requested.Inc()
			f.out = append(f.out, Action{Kind: ActRequest, Hash: b.manifest.Announce.BlockHash, Peer: p.id, Index: idx})
			progressed = true
		}
	}
}

// choose picks the piece to ask p for, or -1.
func (f *Fetcher) choose(b *body, p *peer) int {
	pick, pickHolders, ties := -1, 0, uint64(0)
	for i := range b.pieces {
		if b.have.Has(i) || b.pending.Has(i) || !p.has(i) {
			continue
		}
		holders := 0
		for j := range b.peers {
			if o := &b.peers[j]; o != p && !o.bad && !o.stalled && o.has(i) {
				holders++
			}
		}
		if p.stalled && holders > 0 {
			continue
		}
		switch {
		case pick < 0 || holders < pickHolders:
			pick, pickHolders, ties = i, holders, 1
		case holders == pickHolders:
			if ties++; f.next()%ties == 0 {
				pick = i
			}
		}
	}
	return pick
}

// Advance moves the fetcher to a round. The bodies of the round before
// that are held whole stay, to be served: a neighbour a few pieces
// behind when its peers' BA⋆ finished would otherwise find every source
// gone and wait out λ_block. Everything older, and every unfinished
// fetch, priority, invalid-proposer mark and announce record of earlier
// rounds, goes; a regular round also ends every §8.2 recovery round
// (ledger.RoundOver).
func (f *Fetcher) Advance(round uint64) {
	for h, b := range f.bodies {
		if r := b.manifest.Announce.Round; ledger.RoundOver(r+1, round) || (ledger.RoundOver(r, round) && b.msg == nil) {
			delete(f.bodies, h)
		}
	}
	for r := range f.best {
		if ledger.RoundOver(r, round) {
			delete(f.best, r)
		}
	}
	for k := range f.invalid {
		if ledger.RoundOver(k.round, round) {
			delete(f.invalid, k)
		}
	}
	for k := range f.announced {
		if ledger.RoundOver(k.round, round) {
			delete(f.announced, k)
		}
	}
}

// Bodies returns how many bodies the fetcher holds state for.
func (f *Fetcher) Bodies() int { return len(f.bodies) }

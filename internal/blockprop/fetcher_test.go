package blockprop

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/sortition"
)

// fetchProvider is the one Fast provider the fetcher tests' identities
// are registered with (it verifies by looking the signer up).
var fetchProvider = crypto.NewFast()

// bodyOf builds a proposal whose body is cut into the given number of
// pieces (a few transactions, the rest padding), with its manifest.
func bodyOf(t *testing.T, seedByte byte, pieces int) (*Proposal, *Manifest, []*Piece, crypto.Identity) {
	t.Helper()
	p := fetchProvider
	seed := crypto.HashBytes("fetch-seed", []byte{seedByte})
	for i := 0; i < 30; i++ {
		id := p.NewIdentity(crypto.SeedFromUint64(uint64(seedByte)*1000 + uint64(i)))
		b := &ledger.Block{Round: 1, Proposer: id.PublicKey(), Timestamp: time.Duration(seedByte)}
		for j := 0; j < 5; j++ {
			b.Txns = append(b.Txns, ledger.Transaction{From: id.PublicKey(), Amount: uint64(j), Nonce: uint64(j), Sig: make([]byte, 64)})
		}
		if pieces > 1 {
			b.PayloadPadding = pieces*PieceSize - b.WireSize()
		}
		prop := Propose(id, sortition.RoleProposer, seed, 1, testTau, testW, testTotal, b)
		if prop == nil {
			continue
		}
		m, ps := Split(id, &prop.Block)
		if len(ps) != pieces {
			t.Fatalf("body cut into %d pieces, want %d", len(ps), pieces)
		}
		return prop, m, ps, id
	}
	t.Fatal("no proposer")
	return nil, nil, nil, nil
}

func requests(acts []Action) []Action {
	var out []Action
	for _, a := range acts {
		if a.Kind == ActRequest {
			out = append(out, a)
		}
	}
	return out
}

func TestSplitAssembleRoundTrip(t *testing.T) {
	for _, pieces := range []int{1, 2, 4, 40} {
		prop, m, ps, _ := bodyOf(t, 1, pieces)
		if err := m.Verify(fetchProvider, pieces*PieceSize); err != nil {
			t.Fatalf("%d pieces: manifest rejected: %v", pieces, err)
		}
		total := 0
		for i, p := range ps {
			if err := p.check(len(ps)); err != nil {
				t.Fatalf("piece %d/%d: %v", i, pieces, err)
			}
			total += p.payloadSize()
		}
		if total != prop.Block.Block.WireSize() {
			t.Fatalf("%d pieces carry %d bytes of a %d-byte block", pieces, total, prop.Block.Block.WireSize())
		}
		got := assemble(ps)
		if got.Block.Hash() != prop.Block.AnnouncedHash() || !sameAnnounce(&got.Announce, &prop.Priority) {
			t.Fatalf("%d pieces do not assemble to the proposal", pieces)
		}
		if pieces > 1 && &got.Block.Txns[0] != &prop.Block.Block.Txns[0] {
			t.Fatal("pieces cut from one block were copied on assembly")
		}
	}
}

func TestManifestVerifyRejections(t *testing.T) {
	p := fetchProvider
	_, m, _, _ := bodyOf(t, 2, 4)
	if err := m.Verify(p, PieceSize); !errors.Is(err, ErrPieceCount) {
		t.Fatalf("4 pieces under a one-piece block size: %v, want ErrPieceCount", err)
	}
	bad := *m
	bad.Digests = append([]crypto.Digest(nil), m.Digests...)
	bad.Digests[2][0] ^= 1
	if err := bad.Verify(p, 4*PieceSize); !errors.Is(err, ErrManifest) {
		t.Fatalf("tampered digest: %v, want ErrManifest", err)
	}
	bad = *m
	bad.Digests = m.Digests[:1]
	if err := bad.Verify(p, 4*PieceSize); !errors.Is(err, ErrPieceCount) {
		t.Fatalf("one digest: %v, want ErrPieceCount", err)
	}
}

// TestFetcherProperty drives one fetcher through random schedules: six
// neighbours announce, advertise and answer its requests, and every
// answer may be delayed past its timeout, dropped, duplicated, or come
// unasked; time jumps; a better priority turns up; a seventh neighbour
// that has only seen the flooded priorities claims, whenever it likes,
// that a body is one piece, and answers nothing. Whatever the order,
// the fetcher never requests a piece it holds or has in flight, never
// has more than the window outstanding to one neighbour, never asks for
// what the neighbour did not advertise, requests nothing of a beaten
// body, delivers a body at most once and only as announced, and once the
// schedule turns fair delivers the winning body.
func TestFetcherProperty(t *testing.T) {
	hi, hiM, hiP, _ := bodyOf(t, 3, 7)
	lo, loM, loP, _ := bodyOf(t, 4, 3)
	if hi.Priority.Priority.Less(lo.Priority.Priority) {
		hi, hiM, hiP, lo, loM, loP = lo, loM, loP, hi, hiM, hiP
	}
	const claimant = 7 // the neighbour that claims bodies are one piece
	type asked struct {
		hash     crypto.Digest
		peer     int
		index    int
		deadline time.Duration
		expired  bool // timed out in the fetcher's eyes: re-assignable, still answerable
		landed   bool // answered once; the harness will answer it again (a duplicate)
		lost     bool // the harness will never answer it
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFetcher(0, nil)
		now := time.Duration(0)
		var open []asked                          // requests the harness may yet answer
		held := map[crypto.Digest]map[int]bool{}  // pieces the fetcher advertised
		adv := map[crypto.Digest]map[int]Bitmap{} // what each peer advertised, once it has (nil: everything)
		delivered := map[crypto.Digest]bool{}
		beaten := false
		bodies := map[crypto.Digest]struct {
			m  *Manifest
			ps []*Piece
		}{hi.Block.AnnouncedHash(): {hiM, hiP}, lo.Block.AnnouncedHash(): {loM, loP}}

		apply := func(acts []Action) {
			for _, a := range acts {
				switch a.Kind {
				case ActRequest:
					if beaten && a.Hash == lo.Block.AnnouncedHash() {
						t.Fatalf("seed %d: requested piece %d of a beaten body", seed, a.Index)
					}
					if held[a.Hash][a.Index] {
						t.Fatalf("seed %d: requested held piece %d", seed, a.Index)
					}
					if b, known := adv[a.Hash][a.Peer]; !known || b != nil && !b.Has(a.Index) {
						t.Fatalf("seed %d: asked peer %d for piece %d it never advertised", seed, a.Peer, a.Index)
					}
					toPeer := 0
					for _, o := range open {
						if o.hash != a.Hash || o.expired || o.landed {
							continue
						}
						if o.index == a.Index {
							t.Fatalf("seed %d: piece %d requested while in flight", seed, a.Index)
						}
						if o.peer == a.Peer {
							toPeer++
						}
					}
					if toPeer >= FetchWindow {
						t.Fatalf("seed %d: %d requests outstanding to peer %d", seed, toPeer+1, a.Peer)
					}
					open = append(open, asked{hash: a.Hash, peer: a.Peer, index: a.Index, deadline: now + PieceTimeout, lost: a.Peer == claimant})
				case ActAdvertise:
					if pc, _ := f.Serve(9, a.Hash, a.Index); pc == nil {
						t.Fatalf("seed %d: advertised piece %d it cannot serve", seed, a.Index)
					}
					if held[a.Hash] == nil {
						held[a.Hash] = map[int]bool{}
					}
					if a.First != (len(held[a.Hash]) == 0) {
						t.Fatalf("seed %d: First=%v with %d pieces advertised before", seed, a.First, len(held[a.Hash]))
					}
					held[a.Hash][a.Index] = true
				case ActDeliver:
					if delivered[a.Hash] || a.Msg.Block.Hash() != a.Hash || a.Msg.AnnouncedHash() != a.Hash {
						t.Fatalf("seed %d: delivered twice or not as announced", seed)
					}
					delivered[a.Hash] = true
				}
			}
		}
		announce := func(peer int, h crypto.Digest, all bool) {
			b := bodies[h]
			var have Bitmap
			if !all {
				have = NewBitmap(len(b.ps))
				for i := range b.ps {
					if rng.Intn(2) == 0 {
						have.Set(i)
					}
				}
			}
			if adv[h] == nil {
				adv[h] = map[int]Bitmap{}
			}
			if prev, known := adv[h][peer]; all || known && prev == nil {
				adv[h][peer] = nil
			} else {
				merged := NewBitmap(len(b.ps))
				merged.merge(prev)
				merged.merge(have)
				adv[h][peer] = merged
			}
			// An update follows its sender's announce, as on a link that
			// keeps order: never on an unsigned claim alone.
			held, known := f.Manifest(h)
			if known && len(held.Digests) > 0 && rng.Intn(2) == 0 {
				apply(f.OnHave(now, peer, h, have))
				return
			}
			acts, err := f.OnAnnounce(now, peer, b.m, have)
			if err != nil {
				t.Fatalf("seed %d: announce rejected: %v", seed, err)
			}
			if known && len(held.Digests) == 0 {
				// The signed manifest took the claim's place, and with it went
				// whatever had been asked of the claimant.
				kept := open[:0]
				for _, o := range open {
					if o.hash != h || o.peer != claimant {
						kept = append(kept, o)
					}
				}
				open = kept
			}
			apply(acts)
		}
		claim := func(h crypto.Digest) {
			held, known := f.Manifest(h)
			acts, err := f.OnAnnounce(now, claimant, &Manifest{Announce: bodies[h].m.Announce}, nil)
			switch {
			case known && len(held.Digests) > 0:
				if !errors.Is(err, ErrManifest) || len(acts) != 0 {
					t.Fatalf("seed %d: one-piece claim against a signed manifest: %v, %d actions", seed, err, len(acts))
				}
			case err != nil:
				t.Fatalf("seed %d: one-piece claim: %v", seed, err)
			default:
				if adv[h] == nil {
					adv[h] = map[int]Bitmap{}
				}
				adv[h][claimant] = nil
				apply(acts)
			}
		}
		answer := func(i int, again bool) {
			// Two requests to one peer for one piece (the first timed out)
			// are one kind of answer: the fetcher takes it for the older.
			for j := range open {
				if o := open[j]; !o.landed && o.hash == open[i].hash && o.peer == open[i].peer && o.index == open[i].index {
					i = j
					break
				}
			}
			o := open[i]
			if open[i].landed = true; !again {
				open = append(open[:i], open[i+1:]...)
			}
			acts, err := f.OnPiece(now, o.peer, bodies[o.hash].ps[o.index])
			switch {
			case err == nil && o.landed:
				t.Fatalf("seed %d: the same answer accepted twice", seed)
			case err != nil && (o.landed || delivered[o.hash]) && errors.Is(err, ErrUnsolicited):
			case err != nil:
				t.Fatalf("seed %d: genuine piece rejected: %v", seed, err)
			}
			apply(acts)
		}
		tick := func(d time.Duration) {
			now += d
			for i := range open {
				if open[i].deadline <= now {
					open[i].expired = true
				}
			}
			apply(f.Tick(now))
		}

		hashes := []crypto.Digest{hi.Block.AnnouncedHash(), lo.Block.AnnouncedHash()}
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(10); {
			case k < 2:
				announce(1+rng.Intn(6), hashes[rng.Intn(2)], rng.Intn(4) == 0)
			case k < 6 && len(open) > 0:
				i := rng.Intn(len(open))
				switch r := rng.Intn(6); {
				case open[i].lost:
				case r == 0:
					open[i].lost = true
				case r == 1: // duplicated: answered now and again later
					answer(i, true)
				default:
					answer(i, false)
				}
			case k == 6: // a piece nobody asked this peer for
				b := bodies[hashes[rng.Intn(2)]]
				peer, index := 1+rng.Intn(6), rng.Intn(len(b.ps))
				asked := false
				for _, o := range open {
					asked = asked || !o.landed && o.hash == b.m.Announce.BlockHash && o.peer == peer && o.index == index
				}
				if asked {
					break // that would be the answer, not an unasked piece
				}
				if _, err := f.OnPiece(now, peer, b.ps[index]); !errors.Is(err, ErrUnsolicited) {
					t.Fatalf("seed %d: unrequested piece: %v, want ErrUnsolicited", seed, err)
				}
			case k == 7:
				tick(time.Duration(rng.Intn(3000)) * time.Millisecond)
			case k == 8 && !beaten && rng.Intn(4) == 0:
				f.NoteBest(1, hi.Priority.Priority)
				beaten = true
			case k == 9:
				claim(hashes[rng.Intn(2)])
			}
			if f.Bodies() > 2 {
				t.Fatalf("seed %d: state for %d bodies with 2 announced", seed, f.Bodies())
			}
		}
		// The schedule turns fair: a whole holder, every answer arrives.
		f.NoteBest(1, hi.Priority.Priority)
		beaten = true
		announce(1, hashes[0], true)
		for guard := 0; !delivered[hashes[0]]; guard++ {
			if guard > 200 {
				t.Fatalf("seed %d: winning body not delivered under a fair schedule", seed)
			}
			if i := len(open) - 1; i >= 0 && !open[i].lost {
				answer(i, false)
			} else {
				tick(PieceTimeout)
			}
		}
		f.Advance(2)
		if f.Bodies() != len(delivered) {
			t.Fatalf("seed %d: %d bodies kept for serving a round later, %d assembled", seed, f.Bodies(), len(delivered))
		}
		f.Advance(3)
		if f.Bodies() != 0 {
			t.Fatalf("seed %d: %d bodies two rounds later", seed, f.Bodies())
		}
		if _, ok := f.NextDeadline(); ok {
			t.Fatalf("seed %d: a request outlived its round", seed)
		}
	}
}

// fetchOne announces a body from peer 1 and returns the fetcher's first
// request.
func fetchOne(t *testing.T, f *Fetcher, m *Manifest) Action {
	t.Helper()
	acts, err := f.OnAnnounce(0, 1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := requests(acts)
	if len(reqs) != FetchWindow {
		t.Fatalf("%d requests to a first announcer, want the window (%d)", len(reqs), FetchWindow)
	}
	return reqs[0]
}

func TestFetcherForgedPiece(t *testing.T) {
	_, m, ps, _ := bodyOf(t, 5, 4)
	f := NewFetcher(0, nil)
	req := fetchOne(t, f, m)
	forged := NewPiece(req.Hash, req.Index, 4, ps[req.Index].head, ps[req.Index].announce, nil, ps[req.Index].padding-1)
	acts, err := f.OnPiece(time.Second, 1, forged)
	if !errors.Is(err, ErrForgedPiece) {
		t.Fatalf("forged piece: %v, want ErrForgedPiece", err)
	}
	for _, a := range acts {
		if a.Kind == ActAdvertise || a.Kind == ActRequest && a.Peer == 1 {
			t.Fatalf("after a forged piece: action %+v", a)
		}
	}
	if pc, _ := f.Serve(2, req.Hash, req.Index); pc != nil {
		t.Fatal("forged piece is served")
	}
	if f.m.Rejected.Load() != 1 {
		t.Fatalf("rejected counter %d, want 1", f.m.Rejected.Load())
	}
	// The forger is not asked again; an honest holder is, for everything.
	acts, _ = f.OnAnnounce(2*time.Second, 2, m, nil)
	if reqs := requests(acts); len(reqs) == 0 || reqs[0].Peer != 2 {
		t.Fatalf("honest second holder not asked: %+v", acts)
	}
	if acts := f.OnHave(3*time.Second, 1, req.Hash, nil); len(requests(acts)) != 0 {
		t.Fatal("forger asked again")
	}
}

func TestFetcherPieceShapeErrors(t *testing.T) {
	_, m, ps, _ := bodyOf(t, 6, 4)
	check := func(name string, mutate func(p *Piece), want error) {
		t.Helper()
		f := NewFetcher(0, nil)
		req := fetchOne(t, f, m)
		p := *ps[req.Index]
		p.hasDigest = false
		mutate(&p)
		// The flight is keyed by the index asked for; a piece claiming
		// another index is simply not the answer.
		if _, err := f.OnPiece(0, 1, &p); !errors.Is(err, want) {
			t.Fatalf("%s: %v, want %v", name, err, want)
		}
		if f.Bodies() != 1 || f.m.Received.Load() != 0 {
			t.Fatalf("%s: piece stored", name)
		}
	}
	check("count differs from the manifest", func(p *Piece) { p.count = 5 }, ErrPieceCount)
	check("padding overflow", func(p *Piece) { p.padding = PieceSize + 1 }, ErrPieceOversize)
	check("negative padding", func(p *Piece) { p.padding = -1 }, ErrPieceOversize)
	check("header on the wrong piece", func(p *Piece) {
		if p.index == 0 {
			p.head = nil
		} else {
			p.head, p.announce = ps[0].head, ps[0].announce
		}
	}, ErrPieceHeader)
	check("index not the one asked for", func(p *Piece) { p.index = 9 }, ErrUnsolicited)

	// An index at or past the count can only come in a piece whose index
	// was asked for, which the fetcher never does; check() still refuses.
	if err := (&Piece{index: 4, count: 4}).check(4); !errors.Is(err, ErrPieceIndex) {
		t.Fatalf("index == count: %v, want ErrPieceIndex", err)
	}
}

func TestFetcherManifestThatDoesNotAssemble(t *testing.T) {
	prop, _, _, id := bodyOf(t, 7, 3)
	// The proposer signs a manifest over the pieces of a different block
	// than the one whose hash it announced.
	other := *prop.Block.Block
	other.Timestamp++
	m, ps := Split(id, &BlockMsg{Block: &other, Announce: prop.Priority})
	if err := m.Verify(fetchProvider, 3*PieceSize); err != nil {
		t.Fatal(err)
	}
	f := NewFetcher(0, nil)
	acts, _ := f.OnAnnounce(0, 1, m, nil)
	var err error
	for guard := 0; err == nil && guard < 10; guard++ {
		reqs := requests(acts)
		if len(reqs) == 0 {
			t.Fatal("fetch stalled")
		}
		acts, err = f.OnPiece(0, 1, ps[reqs[0].Index])
		for _, a := range acts {
			if a.Kind == ActDeliver {
				t.Fatal("delivered a body that is not the announced block")
			}
		}
	}
	if !errors.Is(err, ErrBadAssembly) {
		t.Fatalf("last piece: %v, want ErrBadAssembly", err)
	}
	if f.Bodies() != 0 {
		t.Fatal("invalid body kept")
	}
	// The proposer is not fetched from again this round, whatever it
	// announces; next round it is.
	prop2 := *prop
	prop2.Priority.BlockHash = other.Hash()
	m2, _ := Split(id, &BlockMsg{Block: &other, Announce: prop2.Priority})
	if acts, err := f.OnAnnounce(0, 2, m2, nil); !errors.Is(err, ErrBadAssembly) || len(acts) != 0 {
		t.Fatalf("second body of an invalid proposer: %v, %d actions", err, len(acts))
	}
	f.Advance(2)
	m2.Announce.Round = 2
	if _, err := f.OnAnnounce(0, 2, m2, nil); err != nil {
		t.Fatalf("the mark outlived the round: %v", err)
	}
}

func TestFetcherEquivocatorsTwoBodies(t *testing.T) {
	prop, m1, ps1, id := bodyOf(t, 8, 2)
	variant := func(dt time.Duration) (*Manifest, []*Piece) {
		alt := *prop.Block.Block
		alt.Timestamp += dt
		ann := prop.Priority
		ann.BlockHash = alt.Hash()
		return Split(id, &BlockMsg{Block: &alt, Announce: ann})
	}
	m2, ps2 := variant(1)
	m3, _ := variant(2)

	f := NewFetcher(0, nil)
	f.NoteBest(1, prop.Priority.Priority) // equal priority is not a beating
	delivered := 0
	for _, body := range []struct {
		m  *Manifest
		ps []*Piece
	}{{m1, ps1}, {m2, ps2}} {
		acts, err := f.OnAnnounce(0, 1, body.m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for guard := 0; guard < 10 && len(requests(acts)) > 0; guard++ {
			acts, err = f.OnPiece(0, 1, body.ps[requests(acts)[0].Index])
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range acts {
				if a.Kind == ActDeliver {
					delivered++
				}
			}
		}
	}
	if delivered != 2 {
		t.Fatalf("assembled %d of the equivocator's two bodies", delivered)
	}
	if _, err := f.OnAnnounce(0, 1, m3, nil); !errors.Is(err, ErrTooManyBodies) {
		t.Fatalf("third body of one proposer: %v, want ErrTooManyBodies", err)
	}
	// A second description of a hash already described is no source.
	conflicting := *m1
	conflicting.Digests = append([]crypto.Digest(nil), m2.Digests...)
	if _, err := f.OnAnnounce(0, 2, &conflicting, nil); !errors.Is(err, ErrManifest) {
		t.Fatalf("conflicting manifest: %v, want ErrManifest", err)
	}
}

func TestFetcherTimeoutReassignsThePieceNotTheBody(t *testing.T) {
	_, m, ps, _ := bodyOf(t, 9, 4)
	f := NewFetcher(0, nil)
	first := fetchOne(t, f, m) // peer 1 stays silent
	acts, _ := f.OnAnnounce(time.Second, 2, m, nil)
	second := requests(acts)[0]
	if second.Peer != 2 || second.Index == first.Index {
		t.Fatalf("second holder asked for %+v while %+v is in flight", second, first)
	}
	if got := requests(f.Tick(PieceTimeout - 1)); len(got) != 0 {
		t.Fatalf("re-assigned before the timeout: %+v", got)
	}
	// Peer 2 is busy with its own piece when peer 1's times out: the piece
	// waits for peer 2 rather than going back to the silent one.
	if got := requests(f.Tick(PieceTimeout)); len(got) != 0 {
		t.Fatalf("timed-out piece given to %+v", got)
	}
	if f.m.TimedOut.Load() != 1 {
		t.Fatalf("timed-out counter %d, want 1", f.m.TimedOut.Load())
	}
	acts, err := f.OnPiece(PieceTimeout, 2, ps[second.Index])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range requests(acts) {
		if r.Peer == 1 {
			t.Fatalf("silent holder asked again while another advertises everything: %+v", r)
		}
	}
	// The late piece is still the answer to a request, and is kept.
	if _, err := f.OnPiece(PieceTimeout+time.Second, 1, ps[first.Index]); err != nil {
		t.Fatalf("late piece: %v", err)
	}
	if pc, _ := f.Serve(2, first.Hash, first.Index); pc == nil {
		t.Fatal("late piece dropped")
	}
}

// TestFetcherOnePieceClaimDoesNotPinTheBody: a neighbour that has seen
// only the flooded priority message announces a multi-piece body as one
// piece, which Manifest.Verify cannot refuse (nothing the proposer signed
// says otherwise), before any honest holder has. The claim must not shut
// out the holders that later announce the body with its signed manifest.
func TestFetcherOnePieceClaimDoesNotPinTheBody(t *testing.T) {
	_, m, ps, _ := bodyOf(t, 10, 4)
	hash := m.Announce.BlockHash
	claim := &Manifest{Announce: m.Announce}
	if err := claim.Verify(fetchProvider, 4*PieceSize); err != nil {
		t.Fatalf("the unsigned one-piece form is refused outright: %v (then this test is moot)", err)
	}
	f := NewFetcher(0, nil)
	acts, err := f.OnAnnounce(time.Second, 9, claim, nil)
	if reqs := requests(acts); err != nil || len(reqs) != 1 || reqs[0].Peer != 9 {
		t.Fatalf("one-piece claim: %v, %+v", err, acts)
	}
	// An update names the body by hash only: under an unsigned claim it
	// makes its sender no source (it would be asked for a piece 0 of 1).
	if acts := f.OnHave(time.Second, 1, hash, nil); len(acts) != 0 {
		t.Fatalf("update under an unsigned claim: %+v", acts)
	}

	// Three honest holders announce the signed manifest. All are used.
	asked := map[int]int{}
	for peer := 1; peer <= 3; peer++ {
		acts, err := f.OnAnnounce(2*time.Second, peer, m, nil)
		if err != nil {
			t.Fatalf("honest holder %d refused after the claim: %v", peer, err)
		}
		for _, r := range requests(acts) {
			if r.Peer == 9 {
				t.Fatalf("claimant asked under the signed manifest: %+v", r)
			}
			asked[r.Peer] = r.Index
		}
	}
	if len(asked) != 3 {
		t.Fatalf("asked %d of 3 honest holders", len(asked))
	}
	// What the claimant was asked is forgotten, and the claim is now just
	// a second description of a hash already described.
	if _, err := f.OnPiece(2*time.Second, 9, ps[0]); !errors.Is(err, ErrUnsolicited) {
		t.Fatalf("claimant's answer after the switch: %v, want ErrUnsolicited", err)
	}
	if acts, err := f.OnAnnounce(2*time.Second, 9, claim, nil); !errors.Is(err, ErrManifest) || len(acts) != 0 {
		t.Fatalf("claim against the signed manifest: %v, %d actions", err, len(acts))
	}
	if acts := f.Tick(time.Second + PieceTimeout); len(acts) != 0 {
		t.Fatalf("the claimant's request still times out: %+v", acts)
	}

	var got *Action
	for guard := 0; got == nil && guard < 10; guard++ {
		for peer, index := range asked {
			delete(asked, peer)
			acts, err := f.OnPiece(3*time.Second, peer, ps[index])
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range acts {
				switch a.Kind {
				case ActRequest:
					asked[a.Peer] = a.Index
				case ActDeliver:
					got = &acts[i]
				}
			}
			break
		}
	}
	if got == nil || got.Msg.Block.Hash() != hash {
		t.Fatal("body not assembled from the honest holders")
	}
	if got.Started != time.Second {
		t.Fatalf("fetch started %v, want the first announce (1s)", got.Started)
	}

	// The other way round nothing moves: a one-piece body that has matched
	// its announced hash is not displaced by a signed manifest for it (only
	// its proposer could make one, and pays with its own proposal).
	prop, one, onePs, id := bodyOf(t, 11, 1)
	f = NewFetcher(0, nil)
	fetchOne(t, f, one)
	if _, err := f.OnPiece(0, 1, onePs[0]); err != nil {
		t.Fatal(err)
	}
	fat := *prop.Block.Block
	fat.PayloadPadding = 2 * PieceSize
	signed, _ := Split(id, &BlockMsg{Block: &fat, Announce: prop.Priority})
	if _, err := f.OnAnnounce(0, 2, signed, nil); !errors.Is(err, ErrManifest) {
		t.Fatalf("signed manifest for an assembled one-piece body: %v, want ErrManifest", err)
	}
	if pc, _ := f.Serve(2, one.Announce.BlockHash, 0); pc != onePs[0] {
		t.Fatal("assembled body displaced")
	}
}

// TestSeedStripes: for any piece count and neighbourhood, the stripes a
// proposer offers are disjoint and cover the body, neighbours beyond the
// piece count are offered everything, and a neighbour is told the rest
// exactly once, on its request for the last piece of its stripe it had
// not asked for before: repeats, pieces outside the stripe and other
// neighbours' requests do not count towards it.
func TestSeedStripes(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		count := 2 + rng.Intn(7)
		prop, m, ps, _ := bodyOf(t, 12, count)
		hash := m.Announce.BlockHash
		peers := rng.Perm(12)[:1+rng.Intn(11)]

		f := NewFetcher(0, nil)
		if f.Seed(hash, peers) != nil {
			t.Fatal("stripes of a body not held")
		}
		f.Hold(m, ps, &prop.Block)
		offers := f.Seed(hash, peers)
		if len(peers) < 2 {
			if offers != nil {
				t.Fatalf("seed %d: stripes for one neighbour", seed)
			}
			continue
		}
		covered := NewBitmap(count)
		left := map[int]map[int]bool{}
		for k, peer := range peers {
			if offers[k] == nil {
				if k < count {
					t.Fatalf("seed %d: neighbour %d of %d offered everything with %d pieces", seed, k, len(peers), count)
				}
				continue
			}
			left[peer] = map[int]bool{}
			for i := 0; i < count; i++ {
				if offers[k].Has(i) {
					if covered.Has(i) {
						t.Fatalf("seed %d: piece %d in two stripes", seed, i)
					}
					covered.Set(i)
					left[peer][i] = true
				}
			}
			if len(left[peer]) == 0 {
				t.Fatalf("seed %d: empty stripe", seed)
			}
		}
		if covered.Len() != count {
			t.Fatalf("seed %d: stripes cover %d of %d pieces", seed, covered.Len(), count)
		}
		for step := 0; step < 40*count; step++ {
			peer, index := rng.Intn(13), rng.Intn(count+1)-1
			pc, lifted := f.Serve(peer, hash, index)
			if (pc != nil) != (index >= 0) || pc != nil && pc != ps[index] {
				t.Fatalf("seed %d: request for piece %d served %v", seed, index, pc)
			}
			want := left[peer][index] && len(left[peer]) == 1
			if delete(left[peer], index); lifted != want {
				t.Fatalf("seed %d: neighbour %d asking for piece %d: lifted=%v, want %v", seed, peer, index, lifted, want)
			}
		}
	}
	// A body of one piece is offered whole.
	prop, m, ps, _ := bodyOf(t, 13, 1)
	f := NewFetcher(0, nil)
	f.Hold(m, ps, &prop.Block)
	if f.Seed(m.Announce.BlockHash, []int{1, 2, 3}) != nil {
		t.Fatal("stripes of a one-piece body")
	}
}

// TestManifestSignedBytesFrozen pins what a proposer signs over a
// manifest, spelt out here byte for byte: the bytes are now built in a
// borrowed buffer, by the signer and the verifier alike, so a round trip
// alone would not notice both drifting together. Verified twice, around
// a smaller and a larger manifest, so a reused buffer is seen too.
func TestManifestSignedBytesFrozen(t *testing.T) {
	_, m4, _, id4 := bodyOf(t, 7, 4)
	_, m2, _, id2 := bodyOf(t, 8, 2)
	for _, c := range []struct {
		m  *Manifest
		id crypto.Identity
	}{{m4, id4}, {m2, id2}, {m4, id4}} {
		frozen := append([]byte("algorand.manifest"), c.m.Announce.BlockHash[:]...)
		for _, d := range c.m.Digests {
			frozen = append(frozen, d[:]...)
		}
		if !fetchProvider.VerifySig(c.id.PublicKey(), frozen, c.m.Sig) {
			t.Fatalf("Split's signature over %d digests does not verify over tag || hash || digests", len(c.m.Digests))
		}
		resigned := *c.m
		resigned.Sig = c.id.Sign(frozen)
		if err := resigned.Verify(fetchProvider, len(c.m.Digests)*PieceSize); err != nil {
			t.Fatalf("a signature over tag || hash || digests is refused: %v", err)
		}
	}
}

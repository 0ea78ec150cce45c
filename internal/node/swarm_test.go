package node

// White-box tests of the node's side of block swarming: the proposer's
// striped first pass, bounded fetch state, the one-peer-at-a-time
// committed-block fallback, and the allocation guards.

import (
	"math/rand"
	"testing"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/network"
	"algorand/internal/sortition"
	"algorand/internal/vtime"
)

// bigProposal is makeProposal with the body padded to the given number
// of pieces.
func (r *handlerRig) bigProposal(t *testing.T, idx, pieces int) *blockprop.Proposal {
	t.Helper()
	plain := r.makeProposal(t, idx)
	b := *plain.Block.Block
	b.PayloadPadding = pieces*blockprop.PieceSize - b.WireSize()
	prop := blockprop.Propose(r.ids[idx], sortition.RoleProposer, r.ctx.Seed, 1,
		r.node.cfg.Params.TauProposer, 100, r.ctx.TotalWeight, &b)
	if prop == nil {
		t.Fatal("identity not selected; raise tau")
	}
	return prop
}

// TestSeedStripesThenLifts: the proposer offers a multi-piece body to its
// neighbours in disjoint stripes that together cover it, and tells a
// neighbour the rest once that neighbour has asked for all of its own.
func TestSeedStripesThenLifts(t *testing.T) {
	r := newHandlerRig(t, 8)
	prop := r.bigProposal(t, 0, 6)
	h := prop.Block.AnnouncedHash()
	peers := r.net.Neighbors(0)
	if len(peers) < 2 {
		t.Fatal("rig topology gives node 0 fewer than two neighbours")
	}

	stripes := map[int]blockprop.Bitmap{}
	lifted := map[int]bool{}
	for _, peer := range peers {
		peer := peer
		r.net.SetHandler(peer, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			switch msg := m.(type) {
			case *BlockAnnounce:
				stripes[peer] = msg.Have
			case *BlockHave:
				lifted[peer] = msg.Have == nil && msg.Hash == h
			}
			return network.Verdict{}
		}))
	}
	r.sim.Spawn("driver", func(p *vtime.Proc) {
		r.node.seed(r.node.HoldProposal(&prop.Block))
		p.Sleep(time.Second)
		// The first neighbour asks for its whole stripe, the second for all
		// but one piece of its own, and for the first of them again and
		// again: it is distinct pieces that count. The one it still owes is
		// asked for by the first neighbour instead, which is served to the
		// first neighbour and counts for nobody's stripe but its own.
		for k, peer := range peers[:2] {
			asked := 0
			for i := 0; i < 6; i++ {
				switch {
				case !stripes[peer].Has(i):
				case k == 1 && asked == stripes[peer].Len()-1:
					r.net.Unicast(peers[0], 0, &PieceRequest{Hash: h, Index: i})
				default:
					asked++
					r.net.Unicast(peer, 0, &PieceRequest{Hash: h, Index: i})
					if k == 1 && asked == 1 {
						r.net.Unicast(peer, 0, &PieceRequest{Hash: h, Index: i})
						r.net.Unicast(peer, 0, &PieceRequest{Hash: h, Index: i})
					}
				}
			}
		}
		p.Sleep(5 * time.Second)
	})
	r.sim.Run(time.Minute)

	covered := blockprop.NewBitmap(6)
	for _, peer := range peers {
		s, ok := stripes[peer]
		if !ok {
			t.Fatalf("neighbour %d got no announce", peer)
		}
		for i := 0; i < 6; i++ {
			if s.Has(i) {
				if covered.Has(i) {
					t.Fatalf("piece %d is in two stripes", i)
				}
				covered.Set(i)
			}
		}
	}
	if covered.Len() != 6 {
		t.Fatalf("stripes cover %d of 6 pieces", covered.Len())
	}
	if !lifted[peers[0]] {
		t.Fatal("a neighbour that asked for its whole stripe was not told the rest")
	}
	if lifted[peers[1]] {
		t.Fatal("a neighbour still owing a piece of its stripe was told the rest")
	}
}

// TestFetchStateBounded: whatever announces, pieces and timeouts a round
// brought, two rounds later the node holds no fetch state for it, and a
// round later only bodies it can serve whole. Requests whose body never
// arrives (a beaten proposal, a silent announcer) used to stay forever.
func TestFetchStateBounded(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newHandlerRig(t, 6)
		type held struct {
			ann    *BlockAnnounce
			pieces []*blockprop.Piece
		}
		var bodies []held
		for idx := 1; idx <= 3; idx++ {
			prop := r.bigProposal(t, idx, 2+rng.Intn(3))
			m, ps := blockprop.Split(r.ids[idx], &prop.Block)
			bodies = append(bodies, held{&BlockAnnounce{Manifest: *m}, ps})
		}
		// Peers answer a request, or stay silent, at random.
		for peer := 1; peer < 6; peer++ {
			peer := peer
			r.net.SetHandler(peer, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
				req, ok := m.(*PieceRequest)
				if !ok || rng.Intn(3) == 0 {
					return network.Verdict{}
				}
				for _, b := range bodies {
					if b.ann.Manifest.Announce.BlockHash == req.Hash {
						r.net.Unicast(peer, 0, &BlockPiece{P: b.pieces[req.Index]})
					}
				}
				return network.Verdict{}
			}))
		}
		r.sim.Spawn("driver", func(p *vtime.Proc) {
			for step := 0; step < 12; step++ {
				b := bodies[rng.Intn(len(bodies))]
				a, from := *b.ann, 1+rng.Intn(5)
				if rng.Intn(2) == 0 {
					a.Have = blockprop.NewBitmap(len(b.pieces))
					a.Have.Set(rng.Intn(len(b.pieces)))
				}
				r.net.Unicast(from, 0, &a)
				p.Sleep(time.Duration(rng.Intn(4000)) * time.Millisecond)
			}
			p.Sleep(3 * blockprop.PieceTimeout)
		})
		r.sim.Run(5 * time.Minute)
		if r.node.fetch.Bodies() == 0 {
			t.Fatalf("seed %d: the schedule left no fetch state to bound", seed)
		}

		l := r.node.Ledger()
		complete := 0
		for _, b := range bodies {
			// An assembled body is registered with the ledger as a proposal.
			if _, ok := l.BlockOfHash(b.ann.Manifest.Announce.BlockHash); ok {
				complete++
			}
		}
		for round, want := range []int{complete, 0} {
			if err := l.Commit(l.NextEmptyBlock(), nil); err != nil {
				t.Fatal(err)
			}
			r.node.setContext(agreement.NewContext(l))
			if got := r.node.fetch.Bodies(); got != want {
				t.Fatalf("seed %d: %d bodies %d round(s) later, want %d", seed, got, round+1, want)
			}
			if _, inFlight := r.node.fetch.NextDeadline(); inFlight {
				t.Fatalf("seed %d: requests in flight %d round(s) later", seed, round+1)
			}
		}
	}
}

// TestResolveBlockAsksOnePeerAtATime: a node missing the agreed block
// asks one neighbour for it, and the next only when that one has had
// λ_step. Asking all of them at once brought one whole body per
// neighbour down the same link.
func TestResolveBlockAsksOnePeerAtATime(t *testing.T) {
	r := newHandlerRig(t, 6)
	prop := r.bigProposal(t, 1, 4)
	block, h := prop.Block.Block, prop.Block.AnnouncedHash()
	peers := r.net.Neighbors(0)
	if len(peers) < 3 {
		t.Fatal("rig topology gives node 0 fewer than three neighbours")
	}
	silent := peers[0] // asked first, never answers
	requests := 0
	for _, peer := range peers {
		peer := peer
		r.net.SetHandler(peer, network.HandlerFunc(func(from int, m network.Message) network.Verdict {
			if req, ok := m.(*BlockRequest); ok && req.Hash == h {
				requests++
				if peer != silent {
					r.net.Unicast(peer, 0, &BlockFill{Block: block})
				}
			}
			return network.Verdict{}
		}))
	}
	var got *ledger.Block
	var ok bool
	var took time.Duration
	r.sim.Spawn("resolver", func(p *vtime.Proc) {
		r.node.proc = p
		got, ok = r.node.resolveBlock(r.ctx, h)
		took = p.Now()
	})
	r.sim.Run(10 * time.Minute)

	if !ok || got.Hash() != h {
		t.Fatal("agreed block not resolved")
	}
	if requests != 2 {
		t.Fatalf("%d peers asked, want the silent one and the next", requests)
	}
	fill := int64((&BlockFill{Block: block}).WireSize())
	if recv := r.net.NodeStats(0).BytesReceived; recv < fill || recv >= 2*fill {
		t.Fatalf("%d bytes came down for one missing %d-byte block", recv, fill)
	}
	if step := r.node.cfg.Params.LambdaStep; took < step || took > 2*step {
		t.Fatalf("resolved after %v; the silent peer should cost one λ_step (%v)", took, step)
	}
}

// TestAllocBudgetSwarmNoOps guards the messages a swarm produces most of
// and acts on least: a piece that was not asked for (or arrives twice),
// and an advertisement for a body already assembled, cost nothing.
func TestAllocBudgetSwarmNoOps(t *testing.T) {
	r := newHandlerRig(t, 5)
	prop := r.bigProposal(t, 1, 3)
	m, pieces := blockprop.Split(r.ids[1], &prop.Block)
	h := prop.Block.AnnouncedHash()

	unknown := &BlockPiece{P: pieces[1]}
	if got := testing.AllocsPerRun(50, func() { r.node.handleMessage(1, unknown) }); got != 0 {
		t.Errorf("piece of a body nobody announced: %.0f allocations, want 0", got)
	}

	// Fetch the body whole from node 1.
	r.node.handleMessage(1, &BlockAnnounce{Manifest: *m})
	assembled := func() bool { _, ok := r.node.Ledger().BlockOfHash(h); return ok }
	for guard := 0; !assembled(); guard++ {
		if guard > 10 {
			t.Fatal("body not assembled")
		}
		for _, p := range pieces {
			r.node.handleMessage(1, &BlockPiece{P: p})
		}
	}
	if r.node.propInbox(1).Len() != 2 {
		t.Fatalf("waiter saw %d arrivals, want the priority and the assembled block", r.node.propInbox(1).Len())
	}

	again := &BlockPiece{P: pieces[2]}
	if got := testing.AllocsPerRun(50, func() { r.node.handleMessage(1, again) }); got != 0 {
		t.Errorf("second copy of a held piece: %.0f allocations, want 0", got)
	}
	have := &BlockHave{Round: 1, Hash: h, Have: blockprop.Bitmap{3}}
	if got := testing.AllocsPerRun(50, func() { r.node.handleMessage(2, have) }); got != 0 {
		t.Errorf("advertisement for an assembled body: %.0f allocations, want 0", got)
	}
	stranger := &BlockHave{Round: 1, Hash: crypto.Digest{42}, Have: blockprop.Bitmap{3}}
	if got := testing.AllocsPerRun(50, func() { r.node.handleMessage(2, stranger) }); got != 0 {
		t.Errorf("advertisement for an unknown body: %.0f allocations, want 0", got)
	}
	snap := r.node.Metrics().Snapshot()
	if got := snap["algorand_blockprop_pieces_duplicate_total"].Value; got < 100 {
		t.Errorf("duplicate counter %v after 100+ unasked pieces", got)
	}
	if got := snap["algorand_blockprop_pieces_received_total"].Value; got != 3 {
		t.Errorf("received counter %v, want 3", got)
	}
}

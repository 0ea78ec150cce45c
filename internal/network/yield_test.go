package network

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"algorand/internal/vtime"
)

// piece is a Reply the size of a block piece; note is any other message,
// vote-sized. Neither is relayed. Their n keeps each a distinct pointer.
type piece struct{ n int }

func (m *piece) WireSize() int { return 256 << 10 }
func (m *piece) Reply()        {}

type note struct{ n int }

func (m *note) WireSize() int { return 300 }

// txTime is what a link of bps takes to send n bytes.
func txTime(n int, bps int64) time.Duration {
	return time.Duration(float64(n*8) / float64(bps) * float64(time.Second))
}

// arrivals records what endpoint at is handed, in order, with the time.
type arrivals struct {
	ms []Message
	at []time.Duration
}

func listenAt(nw *Network, sim *vtime.Sim, at int) *arrivals {
	a := new(arrivals)
	nw.SetHandler(at, HandlerFunc(func(_ int, m Message) Verdict {
		a.ms, a.at = append(a.ms, m), append(a.at, sim.Now())
		return Verdict{}
	}))
	return a
}

// index is where m lies in what was handed over, or -1.
func (a *arrivals) index(m Message) int { return slices.Index(a.ms, m) }

// TestRepliesYield pins the link rule: on an uplink and on a downlink, a
// message that is not a Reply waits only for the reply in progress, replies
// keep their order among themselves, no byte is sent for free, and a
// schedule without replies keeps the single queue's timeline exactly.
func TestRepliesYield(t *testing.T) {
	pieceTx, noteTx := txTime(256<<10, PaperLinkBps), txTime(300, PaperLinkBps)
	cases := []struct {
		name string
		run  func(t *testing.T, queued int)
	}{
		{"uplink: a note leaves once the piece in progress ends", func(t *testing.T, queued int) {
			// Every piece and then the note leave 0 at once for 1: the note
			// follows piece 0 on 0's uplink, and on 1's downlink, where it
			// arrives while piece 0 is coming in.
			sim, cfg := vtime.New(), defaults(DefaultConfig())
			cfg.jitter = 0
			nw := newNetwork(sim, cfg, 2)
			got := listenAt(nw, sim, 1)
			for i := range queued {
				nw.Unicast(0, 1, &piece{i})
			}
			n := &note{}
			nw.Unicast(0, 1, n)
			sim.Run(0)
			want := 2*pieceTx + CityLatency(0, 1) + noteTx
			if i := got.index(n); i != 1 || got.at[i] != want {
				t.Fatalf("the note was handled %dth at %v, want 1st (after piece 0) at %v", i, got.at[max(i, 0)], want)
			}
		}},
		{"downlink: a note arriving behind queued pieces waits for the one in progress", func(t *testing.T, queued int) {
			// Endpoints NumCities apart share a city. Each of `queued` of
			// them sends 0 a piece at once, so the pieces queue on 0's
			// downlink; a note sent halfway into the second piece time
			// arrives while piece 0 is coming in.
			sim, cfg := vtime.New(), defaults(DefaultConfig())
			cfg.jitter = 0
			nw := newNetwork(sim, cfg, (queued+2)*NumCities)
			got := listenAt(nw, sim, 0)
			for i := 1; i <= queued; i++ {
				nw.Unicast(i*NumCities, 0, &piece{i})
			}
			n := &note{}
			sim.After(pieceTx+pieceTx/2, func() { nw.Unicast((queued+1)*NumCities, 0, n) })
			sim.Run(0)
			want := 2*pieceTx + CityLatency(0, 0) + noteTx
			if i := got.index(n); i != 1 || got.at[i] != want {
				t.Fatalf("the note was handled %dth at %v, want 1st (after piece 0) at %v", i, got.at[max(i, 0)], want)
			}
		}},
		{"replies keep their order among themselves", func(t *testing.T, queued int) {
			sim, cfg := vtime.New(), defaults(DefaultConfig())
			cfg.jitter = 0
			nw := newNetwork(sim, cfg, 2)
			got := listenAt(nw, sim, 1)
			var sent []Message
			for i := range queued {
				p := &piece{i}
				sent = append(sent, p)
				nw.Unicast(0, 1, p)
				nw.Unicast(0, 1, &note{i})
			}
			sim.Run(0)
			var replies []Message
			for _, m := range got.ms {
				if _, ok := m.(Reply); ok {
					replies = append(replies, m)
				}
			}
			if !slices.Equal(replies, sent) {
				t.Fatal("replies were handed over out of the order they were sent")
			}
		}},
		{"a link's busy time is its bytes over its rate", func(t *testing.T, queued int) {
			// Messages of both classes and many sizes join a link that never
			// drains, a piece first: it goes idle when it has sent every byte.
			rng := rand.New(rand.NewSource(int64(queued)))
			l := &link{bps: PaperLinkBps}
			busy := pieceTx
			now := l.transmit(0, 0, 256<<10, true) / 2
			for range 20 * queued {
				size := 100 + rng.Intn(256<<10)
				busy += txTime(size, l.bps)
				l.transmit(now, now, size, rng.Intn(3) == 0)
				now += time.Duration(rng.Int63n(int64(pieceTx) / 8))
				if now >= l.free {
					t.Fatalf("the link drained at %v: the schedule does not test what it means to", l.free)
				}
			}
			if l.free != busy || l.gossipFree > l.free {
				t.Fatalf("the link is free at %v (its gossip at %v), want its busy time %v", l.free, l.gossipFree, busy)
			}
		}},
		{"a schedule without replies keeps the single queue's timeline", func(t *testing.T, queued int) {
			// Downlink-style reservations, ready at times ahead of the clock,
			// against the one FIFO the link was before it had classes.
			rng := rand.New(rand.NewSource(int64(queued)))
			l := &link{bps: PaperLinkBps}
			var now, free time.Duration
			for range 50 * queued {
				now += time.Duration(rng.Int63n(int64(pieceTx)))
				at := now + time.Duration(rng.Int63n(int64(pieceTx)))
				size := 100 + rng.Intn(256<<10)
				free = max(at, free) + txTime(size, l.bps)
				if got := l.transmit(now, at, size, false); got != free {
					t.Fatalf("a message ready at %v is sent by %v, want %v", at, got, free)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, queued := range []int{1, 4, 16} {
				tc.run(t, queued)
			}
		})
	}
}

// TestAllocBudgetRepliesQueued: with pieces queued on both links, sending
// another round of them and a note, and delivering all of it, allocates
// nothing once the rings of replies have grown.
func TestAllocBudgetRepliesQueued(t *testing.T) {
	sim, cfg := vtime.New(), defaults(DefaultConfig())
	cfg.jitter = 0
	nw := newNetwork(sim, cfg, 2)
	listenAt(nw, sim, 1)
	pieces, n := make([]*piece, 16), &note{}
	for i := range pieces {
		pieces[i] = &piece{i}
	}
	burst := func() {
		for _, p := range pieces {
			nw.Unicast(0, 1, p)
		}
		nw.Unicast(0, 1, n)
		nw.Unicast(0, 1, n)
		sim.Run(0)
	}
	burst()
	got := listenAt(nw, sim, 1)
	got.ms, got.at = make([]Message, 0, 1024), make([]time.Duration, 0, 1024)
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Errorf("sending and delivering 16 pieces and two notes: %.0f allocations, want 0", allocs)
	}
	if i := got.index(n); i != 1 {
		t.Fatalf("the note was handled %dth of a burst, want 1st: the pieces did not queue", i)
	}
}

package network

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/vtime"
)

// oracle is the duplicate suppression and §8.4 relay budget as every
// endpoint used to keep them for itself: two generations of a map from
// message ID to "processed" and of a map from LimitKey to relays made,
// per endpoint, all rotated at the same instant. It is frozen here as the
// reference the shared per-message records are held against.
//
// It runs on a Network of its own that it uses for transport only: every
// hop travels as a unicast under an ID of its own, so that network's
// suppression never fires and every arrival reaches the oracle, which
// then decides by its maps. It sends in the order Network sends and
// queues one event where Network queues one, so under the same seeds the
// two runs draw the same jitter, reserve the same links and interleave
// the same way.
type oracle struct {
	nw         *Network
	ttl        time.Duration
	lastRotate time.Duration
	eps        []oracleEndpoint
	handler    func(from, to int, m Message) Verdict
	hops       uint64
}

type oracleEndpoint struct {
	seen, seenOld       map[crypto.Digest]bool
	limitSeen, limitOld map[LimitKey]int
	msgs, dups          int64
}

// hop is one transfer of the oracle's: the message, under an ID no other
// transfer has.
type hop struct {
	m Message
	n uint64
}

func (h *hop) WireSize() int { return h.m.WireSize() }
func (h *hop) ID() (d crypto.Digest) {
	binary.BigEndian.PutUint64(d[:], h.n)
	return d
}
func (h *hop) LimitKey() LimitKey { return LimitKey{} }

func newOracle(sim *vtime.Sim, cfg Config, n int, handler func(from, to int, m Message) Verdict) *oracle {
	o := &oracle{nw: New(sim, cfg, n), ttl: cfg.SeenTTL, eps: make([]oracleEndpoint, n), handler: handler}
	for i := range o.eps {
		i := i
		o.eps[i].seen, o.eps[i].limitSeen = map[crypto.Digest]bool{}, map[LimitKey]int{}
		o.nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			o.deliver(from, i, m.(*hop).m)
			return Verdict{}
		}))
	}
	return o
}

func (o *oracle) maybeRotate() {
	if now := o.nw.sim.Now(); o.ttl > 0 && now-o.lastRotate >= o.ttl {
		o.lastRotate = now
		for i := range o.eps {
			ep := &o.eps[i]
			ep.seenOld, ep.seen = ep.seen, map[crypto.Digest]bool{}
			ep.limitOld, ep.limitSeen = ep.limitSeen, map[LimitKey]int{}
		}
	}
}

func (o *oracle) unicast(from, to int, m Message) {
	o.hops++
	o.nw.Unicast(from, to, &hop{m: m, n: o.hops})
}

func (o *oracle) relay(from, skip int, m Message) {
	for _, peer := range o.nw.Neighbors(from) {
		if peer != skip {
			o.unicast(from, peer, m)
		}
	}
}

func (o *oracle) gossip(origin int, m Message) {
	o.maybeRotate()
	ep := &o.eps[origin]
	ep.seen[m.ID()] = true
	if k := m.LimitKey(); k != (LimitKey{}) {
		ep.limitSeen[k]++
	}
	o.relay(origin, -1, m)
}

func (o *oracle) deliver(from, to int, m Message) {
	o.maybeRotate()
	ep := &o.eps[to]
	id := m.ID()
	if ep.seen[id] || ep.seenOld[id] {
		ep.dups++
		return
	}
	ep.seen[id] = true
	ep.msgs++
	if !o.handler(from, to, m).Relay {
		return
	}
	if k := m.LimitKey(); k != (LimitKey{}) {
		limit := 1
		if mr, ok := m.(MultiRelay); ok {
			limit = mr.RelayLimit()
		}
		if ep.limitSeen[k]+ep.limitOld[k] >= limit {
			return
		}
		ep.limitSeen[k]++
	}
	o.nw.sim.After(0, func() { o.relay(to, from, m) })
}

// dedupRig builds the side under test on sim: the network its faults are
// installed on, and its Gossip and Unicast. handler is what every endpoint
// does with a first delivery.
type dedupRig func(sim *vtime.Sim, cfg Config, handler func(from, to int, m Message) Verdict) (nw *Network, gossip func(int, Message), unicast func(int, int, Message))

// arrival is one first delivery as a handler saw it.
type arrival struct {
	at       time.Duration
	from, to int
	size     int
}

// dedupSchedule drives one random schedule against gossip/unicast (the
// network's own or the oracle's) and returns what the handlers saw.
// Everything random about it comes from seed, so two calls make the same
// calls at the same instants.
func dedupSchedule(seed int64, n int, ttl time.Duration, build dedupRig) (*Network, []arrival) {
	sim := vtime.New()
	cfg := DefaultConfig()
	cfg.SeenTTL = ttl
	cfg.Seed = seed
	var log []arrival
	var nw *Network
	nw, gossip, unicast := build(sim, cfg, func(from, to int, m Message) Verdict {
		log = append(log, arrival{sim.Now(), from, to, m.WireSize()})
		// One endpoint in eleven finds one message in three invalid, and
		// nobody relays the small ones.
		return Verdict{Relay: m.WireSize() > 100 && (to%11 != 3 || m.WireSize()%3 != 0)}
	})
	rng := rand.New(rand.NewSource(seed))
	nw.SeedFaults(seed)
	// Transfers held past one rotation and past two. One released after two
	// is new to everybody and floods again, so the adversary stops
	// capturing after a while, or the schedule would never end.
	early := func(now time.Duration) bool { return now < 6*ttl }
	nw.AddLimboFault(LimboFault{Active: early, HoldProb: 0.04, HoldFor: ttl + ttl/4, HoldJitter: ttl / 2})
	nw.AddLimboFault(LimboFault{Active: early, HoldProb: 0.03, HoldFor: 2*ttl + ttl/4, HoldJitter: ttl})
	nw.AddLinkFault(LinkFault{LossProb: 0.02})
	cut := 10 + rng.Intn(n-20)
	nw.AddPartition(func(a, b int) bool {
		now := sim.Now()
		return now > ttl/2 && now < ttl && (a < cut) != (b < cut)
	})

	size := 100
	next := func(key LimitKey) *testMsg {
		size++
		return &testMsg{id: crypto.HashBytes("dedup", []byte(fmt.Sprint(seed, size))), size: size, limit: key}
	}
	sim.Spawn("schedule", func(p *vtime.Proc) {
		var sent []Message
		for step := 0; step < 16; step++ {
			p.Sleep(time.Duration(rng.Int63n(int64(ttl) / 4)))
			origin := rng.Intn(n)
			switch rng.Intn(8) {
			case 0: // a plain message
				sent = append(sent, next(LimitKey{}))
				gossip(origin, sent[len(sent)-1])
			case 1: // two votes under one §8.4 key: the second is relayed by nobody who relayed the first
				key := LimitKey{Kind: 'v', Sender: [8]byte{byte(step)}, Round: uint64(seed), Step: 1}
				a, b := next(key), next(key)
				sent = append(sent, a, b)
				gossip(origin, a)
				p.Sleep(time.Duration(rng.Int63n(int64(ttl))))
				gossip(origin, b)
			case 2: // three announcements under one key with a budget of two
				key := LimitKey{Kind: 'p', Sender: [8]byte{byte(step)}, Round: uint64(seed)}
				for i := 0; i < 3; i++ {
					m := &multiMsg{*next(key)}
					sent = append(sent, m)
					gossip((origin+i)%n, m)
				}
			case 3: // one message, sealed twice, from two origins
				m := next(LimitKey{})
				sent = append(sent, m)
				gossip(origin, m)
				p.Sleep(time.Duration(rng.Int63n(int64(ttl) / 8)))
				gossip(rng.Intn(n), m)
			case 4: // a unicast, and the same one again
				m := next(LimitKey{})
				to := rng.Intn(n)
				unicast(origin, to, m)
				unicast(origin, to, m)
				unicast(origin, rng.Intn(n), m)
			case 5: // more small messages in one generation than a slab holds records, every third twice
				for j := 0; j < slabRecords+50; j++ {
					m := &testMsg{id: crypto.HashBytes("dedup.small", []byte(fmt.Sprint(seed, step, j))), size: 40}
					for k := 0; k <= j%3/2; k++ {
						unicast(origin, (origin+1+j%(n-1))%n, m)
					}
				}
			default: // something sent before, again: within a TTL, after one, after two
				if len(sent) > 0 {
					gossip(origin, sent[rng.Intn(len(sent))])
				}
			}
		}
	})
	sim.Run(time.Hour)
	return nw, log
}

// TestDedupMatchesPerEndpointModel: one dedup record and one array of
// relay counts per message, shared by all endpoints, decide every delivery
// as a pair of maps per endpoint did. Random schedules over 70 endpoints
// (a bitset of two words) of everything that reaches those decisions;
// every first delivery (who, from whom, when) and every per-endpoint
// counter must equal the oracle's. A relay decided differently shows in
// the relayer's BytesSent, a duplicate in DupsDropped.
func TestDedupMatchesPerEndpointModel(t *testing.T) {
	const n, ttl = 70, 4 * time.Second
	// 400 schedules, 8 s; under the race detector, which runs them sixteen
	// times slower, as many of them as half a minute holds.
	seeds, deadline := 400, time.Now().Add(30*time.Second)
	var deliveries, dups, limbo int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if seed > 40 && time.Now().After(deadline) {
			seeds = int(seed) - 1
			break
		}
		var model *oracle
		want, wantLog := dedupSchedule(seed, n, ttl, func(sim *vtime.Sim, cfg Config, h func(from, to int, m Message) Verdict) (*Network, func(int, Message), func(int, int, Message)) {
			model = newOracle(sim, cfg, n, h)
			return model.nw, model.gossip, model.unicast
		})
		got, gotLog := dedupSchedule(seed, n, ttl, func(sim *vtime.Sim, cfg Config, h func(from, to int, m Message) Verdict) (*Network, func(int, Message), func(int, int, Message)) {
			nw := New(sim, cfg, n)
			for i := 0; i < n; i++ {
				i := i
				nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict { return h(from, i, m) }))
			}
			return nw, nw.Gossip, nw.Unicast
		})
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: %d first deliveries, the per-endpoint model makes %d", seed, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: first delivery %d is %+v, the per-endpoint model's is %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		for i := 0; i < n; i++ {
			g, w := got.NodeStats(i), want.NodeStats(i)
			w.MsgsReceived, w.DupsDropped = model.eps[i].msgs, model.eps[i].dups
			if g != w {
				t.Fatalf("seed %d, endpoint %d: counters %+v, the per-endpoint model's %+v", seed, i, g, w)
			}
			dups += g.DupsDropped
		}
		if got.TotalLimbo() != want.TotalLimbo() || got.TotalLost() != want.TotalLost() || got.TotalBytes() != want.TotalBytes() {
			t.Fatalf("seed %d: limbo/lost/bytes %d/%d/%d, the model's %d/%d/%d", seed,
				got.TotalLimbo(), got.TotalLost(), got.TotalBytes(), want.TotalLimbo(), want.TotalLost(), want.TotalBytes())
		}
		deliveries += got.TotalMsgs()
		limbo += got.TotalLimbo()
	}
	t.Logf("%d schedules: %d first deliveries, %d duplicates, %d transfers through limbo", seeds, deliveries, dups, limbo)
	if dups < deliveries || limbo < int64(seeds)*20 {
		t.Fatal("the schedules did not exercise duplicates and late releases")
	}
}

// TestRotationForgetsAfterTwoGenerations is the retried-round case of
// Config.SeenTTL's comment. The relay budget is keyed by (sender, round,
// step): within a TTL a second vote under a spent key reaches the
// origin's neighbours and no further, and so it must; but a retry of a
// failed round votes under the same keys, and if they were never
// forgotten its fresh votes would never be relayed and the round would
// wedge. Two rotations on, the key and the ID are both new again.
func TestRotationForgetsAfterTwoGenerations(t *testing.T) {
	const n = 70
	sim := vtime.New()
	cfg := DefaultConfig()
	nw := New(sim, cfg, n)
	reached := make(map[int]int) // wire size → endpoints that handled it
	for i := 0; i < n; i++ {
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			reached[m.WireSize()]++
			return Verdict{Relay: true}
		}))
	}
	key := LimitKey{Kind: 'v', Sender: [8]byte{7}, Round: 3, Step: 2}
	vote := func(size int) *testMsg {
		return &testMsg{id: crypto.HashBytes("retry", []byte{byte(size)}), size: size, limit: key}
	}
	first, second, retry := vote(301), vote(302), vote(303)
	direct := len(nw.Neighbors(5))
	sim.Spawn("rounds", func(p *vtime.Proc) {
		nw.Gossip(5, first)
		p.Sleep(10 * time.Second)
		nw.Gossip(5, second)
		p.Sleep(10 * time.Second)
		if reached[301] != n-1 || reached[302] != direct {
			t.Errorf("first vote reached %d of %d, a second under its key %d (the origin has %d neighbours)", reached[301], n-1, reached[302], direct)
		}
		// One rotation on, both are still remembered: the old generation.
		p.Sleep(cfg.SeenTTL)
		nw.Gossip(5, first)
		nw.Gossip(9, vote(304))
		p.Sleep(10 * time.Second)
		if reached[301] != n-1 || reached[304] != len(nw.Neighbors(9)) {
			t.Errorf("a generation on: the first vote was handled %d times (want %d), a new vote under its key reached %d (want its origin's %d neighbours)",
				reached[301], n-1, reached[304], len(nw.Neighbors(9)))
		}
		// Two rotations on (traffic drives them), the failed attempt is
		// forgotten: the retry's vote floods, and the old vote's ID is new
		// again to the neighbours, who find its key spent by the retry.
		p.Sleep(cfg.SeenTTL)
		nw.Gossip(0, msg("tick", 50))
		p.Sleep(cfg.SeenTTL)
		nw.Gossip(5, retry)
		nw.Gossip(5, first)
		p.Sleep(10 * time.Second)
		if reached[303] != n-1 {
			t.Errorf("the retried round's vote reached %d of %d: its key was never forgotten", reached[303], n-1)
		}
		if reached[301] != n-1+direct {
			t.Errorf("the first vote, gossiped again two generations on, was handled %d times in all, want %d: its ID was never forgotten", reached[301], n-1+direct)
		}
	})
	sim.Run(time.Hour)
	if len(nw.old.seen)+len(nw.cur.seen) > 3 {
		t.Errorf("%d + %d records live after the last flood, want the last three messages'", len(nw.cur.seen), len(nw.old.seen))
	}
}

// TestAllocBudgetFlood: what a flooded message costs the network does not
// grow with the endpoints it reaches. One record and one array of relay
// counts serve all 64; there is no entry per endpoint, and a duplicate
// delivery — most deliveries — allocates nothing.
func TestAllocBudgetFlood(t *testing.T) {
	const n = 64
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), n)
	installRecorders(nw, 0)
	votes := make([]*testMsg, 9)
	for i := range votes {
		votes[i] = msg(fmt.Sprint("flood-", i), 300)
		votes[i].limit = LimitKey{Kind: 'v', Sender: [8]byte{byte(i)}, Round: 1, Step: 1}
	}
	flood := func(m Message) {
		nw.Gossip(0, m)
		sim.Run(0)
	}
	flood(votes[0]) // the slabs, the transfer records, the event heap
	var before, after runtime.MemStats
	sent, got := nw.TotalBytes(), nw.TotalMsgs()
	runtime.ReadMemStats(&before)
	for _, m := range votes[1:] {
		flood(m)
	}
	runtime.ReadMemStats(&after)
	floods := int64(len(votes) - 1)
	transfers, first := (nw.TotalBytes()-sent)/300/floods, (nw.TotalMsgs()-got)/floods
	perFlood := int64(after.TotalAlloc-before.TotalAlloc) / floods
	t.Logf("a flood: %d transfers, %d first deliveries, %d bytes allocated", transfers, first, perFlood)
	if first != n-1 || transfers < 6*n {
		t.Fatalf("a flood made %d first deliveries in %d transfers, want all %d endpoints and a flood's duplicates", first, transfers, n-1)
	}
	// An envelope, two map entries, 8 bytes of bits, 64 of counts, and a
	// share of a map's growth. An entry per endpoint in each of two maps
	// was over 4 KB.
	if perFlood > 1024 {
		t.Errorf("a flood over %d endpoints allocated %d bytes, want under 1024: something is kept per endpoint again", n, perFlood)
	}
	env := seal(votes[1])
	if got := testing.AllocsPerRun(100, func() { nw.deliver(0, 1, env) }); got != 0 {
		t.Errorf("duplicate delivery: %.0f allocations, want 0", got)
	}
}

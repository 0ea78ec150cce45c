package network

import (
	"fmt"
	"math"
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
// hop travels as a unicast of a message that is not Flooded, so that
// network's suppression never sees it and every arrival reaches the
// oracle, which then decides by its maps. It sends in the order Network sends and
// queues one event where Network queues one, so under the same seeds the
// two runs draw the same jitter, reserve the same links and interleave
// the same way.
type oracle struct {
	nw         *Network
	ttl        time.Duration
	lastRotate time.Duration
	eps        []oracleEndpoint
	handler    func(from, to int, m Message) Verdict
}

type oracleEndpoint struct {
	seen, seenOld       map[crypto.Digest]bool
	limitSeen, limitOld map[LimitKey]int
	msgs, dups          int64
}

// hop is one transfer of the oracle's: the message, with no ID of its own.
type hop struct{ m Message }

func (h *hop) WireSize() int { return h.m.WireSize() }

func newOracle(sim *vtime.Sim, cfg settings, n int, handler func(from, to int, m Message) Verdict) *oracle {
	o := &oracle{nw: newNetwork(sim, cfg, n), ttl: cfg.seenTTL, eps: make([]oracleEndpoint, n), handler: handler}
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
	o.nw.Unicast(from, to, &hop{m: m})
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
	f := m.(Flooded)
	ep.seen[f.ID()] = true
	ep.limitSeen[f.LimitKey()]++
	o.relay(origin, -1, m)
}

func (o *oracle) deliver(from, to int, m Message) {
	o.maybeRotate()
	ep := &o.eps[to]
	f := m.(Flooded)
	id := f.ID()
	if ep.seen[id] || ep.seenOld[id] {
		ep.dups++
		return
	}
	ep.seen[id] = true
	ep.msgs++
	if !o.handler(from, to, m).Relay {
		return
	}
	k := f.LimitKey()
	if ep.limitSeen[k]+ep.limitOld[k] >= f.RelayLimit() {
		return
	}
	ep.limitSeen[k]++
	o.nw.sim.After(0, func() { o.relay(to, from, m) })
}

// dedupRig builds the side under test on sim: the network its faults are
// installed on, and its Gossip and Unicast. handler is what every endpoint
// does with a first delivery.
type dedupRig func(sim *vtime.Sim, cfg settings, handler func(from, to int, m Message) Verdict) (nw *Network, gossip func(int, Message), unicast func(int, int, Message))

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
	cfg := defaults(DefaultConfig())
	cfg.seenTTL = ttl
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

// matchModel runs schedule on the per-endpoint model and on the network,
// each on an n-endpoint network of its own, fails t (the messages headed
// by label) on the first first delivery, counter or total that differs,
// and returns the network.
func matchModel(t *testing.T, label string, n int, schedule func(dedupRig) (*Network, []arrival)) *Network {
	t.Helper()
	var model *oracle
	want, wantLog := schedule(func(sim *vtime.Sim, cfg settings, h func(from, to int, m Message) Verdict) (*Network, func(int, Message), func(int, int, Message)) {
		model = newOracle(sim, cfg, n, h)
		return model.nw, model.gossip, model.unicast
	})
	got, gotLog := schedule(func(sim *vtime.Sim, cfg settings, h func(from, to int, m Message) Verdict) (*Network, func(int, Message), func(int, int, Message)) {
		nw := newNetwork(sim, cfg, n)
		for i := 0; i < n; i++ {
			i := i
			nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict { return h(from, i, m) }))
		}
		return nw, nw.Gossip, nw.Unicast
	})
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%s: %d first deliveries, the per-endpoint model makes %d", label, len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("%s: first delivery %d is %+v, the per-endpoint model's is %+v", label, i, gotLog[i], wantLog[i])
		}
	}
	for i := 0; i < n; i++ {
		g, w := got.NodeStats(i), want.NodeStats(i)
		w.MsgsReceived, w.DupsDropped = model.eps[i].msgs, model.eps[i].dups
		if g != w {
			t.Fatalf("%s, endpoint %d: counters %+v, the per-endpoint model's %+v", label, i, g, w)
		}
	}
	if got.TotalLimbo() != want.TotalLimbo() || got.TotalLost() != want.TotalLost() || got.TotalBytes() != want.TotalBytes() {
		t.Fatalf("%s: limbo/lost/bytes %d/%d/%d, the model's %d/%d/%d", label,
			got.TotalLimbo(), got.TotalLost(), got.TotalBytes(), want.TotalLimbo(), want.TotalLost(), want.TotalBytes())
	}
	return got
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
		got := matchModel(t, fmt.Sprint("seed ", seed), n, func(build dedupRig) (*Network, []arrival) {
			return dedupSchedule(seed, n, ttl, build)
		})
		for i := 0; i < n; i++ {
			dups += got.NodeStats(i).DupsDropped
		}
		deliveries += got.TotalMsgs()
		limbo += got.TotalLimbo()
	}
	t.Logf("%d schedules: %d first deliveries, %d duplicates, %d transfers through limbo", seeds, deliveries, dups, limbo)
	if dups < deliveries || limbo < int64(seeds)*20 {
		t.Fatal("the schedules did not exercise duplicates and late releases")
	}
}

// TestRotationForgetsAfterTwoGenerations: the records are what SeenTTL
// bounds. TestTransportContract's "seen TTL" case checks, on both
// transports, that a vote's ID and relay budget are remembered for a TTL
// and forgotten two TTLs on, which is what keeps a retried round's votes
// relayed; here the network's own records show it: two rotations on, a
// generation holds nothing of the floods before them.
func TestRotationForgetsAfterTwoGenerations(t *testing.T) {
	const n = 70
	sim := vtime.New()
	nw := New(sim, DefaultConfig(), n)
	installRecorders(nw, 0)
	key := LimitKey{Kind: 'v', Sender: [8]byte{7}, Round: 3, Step: 2}
	vote := func(size int) *testMsg {
		return &testMsg{id: crypto.HashBytes("retry", []byte{byte(size)}), size: size, limit: key}
	}
	sim.Spawn("rounds", func(p *vtime.Proc) {
		nw.Gossip(5, vote(301))
		nw.Gossip(9, vote(302))
		p.Sleep(SeenTTL)
		nw.Gossip(0, msg("tick", 50))
		p.Sleep(SeenTTL)
		nw.Gossip(5, vote(303))
	})
	sim.Run(time.Hour)
	if seen, relays := len(nw.old.seen)+len(nw.cur.seen), len(nw.old.relays)+len(nw.cur.relays); seen != 2 || relays != 2 {
		t.Errorf("%d IDs and %d relay budgets live after the last flood, want the tick's and the last vote's: 2 and 2", seen, relays)
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
	// Two map entries, 8 bytes of bits, 64 of counts, and a share of a
	// map's growth; the envelope is the first flood's, recycled. An entry
	// per endpoint in each of two maps was over 4 KB.
	if perFlood > 1024 {
		t.Errorf("a flood over %d endpoints allocated %d bytes, want under 1024: something is kept per endpoint again", n, perFlood)
	}
	env := nw.seal(votes[1])
	if got := testing.AllocsPerRun(100, func() { nw.deliver(0, 1, env) }); got != 0 {
		t.Errorf("duplicate delivery: %.0f allocations, want 0", got)
	}
}

// TestAllocBudgetRotation: rotation recycles the generation it forgets.
// The third generation is the first one emptied and made current again:
// carrying the traffic the first carried, it allocates no map or slab
// storage, and it knows nothing the first knew, so the same floods are
// first deliveries again.
func TestAllocBudgetRotation(t *testing.T) {
	const n, votes = 64, slabRecords + 44 // a slab and part of another
	sim := vtime.New()
	cfg := defaults(DefaultConfig())
	cfg.seenTTL = math.MaxInt64 // the test rotates
	nw := newNetwork(sim, cfg, n)
	installRecorders(nw, 0)
	msgs := make([]*testMsg, votes)
	for i := range msgs {
		msgs[i] = msg(fmt.Sprint("rotation-", i), 300)
		msgs[i].limit = LimitKey{Kind: 'v', Sender: [8]byte{byte(i), byte(i >> 8)}, Round: 1, Step: 1}
	}
	traffic := func() (first int64, bytes uint64) {
		var before, after runtime.MemStats
		got := nw.TotalMsgs()
		runtime.ReadMemStats(&before)
		for _, m := range msgs {
			nw.Gossip(0, m)
			sim.Run(0)
		}
		runtime.ReadMemStats(&after)
		return nw.TotalMsgs() - got, after.TotalAlloc - before.TotalAlloc
	}
	first, firstBytes := traffic()
	nw.rotate()
	second, secondBytes := traffic() // all duplicates: the old generation remembers
	nw.rotate()
	third, thirdBytes := traffic()
	t.Logf("%d floods: %d/%d/%d first deliveries, %d/%d/%d bytes allocated in generations 1/2/3",
		votes, first, second, third, firstBytes, secondBytes, thirdBytes)
	if first != votes*(n-1) || second != 0 || third != first {
		t.Fatalf("first deliveries %d/%d/%d, want %d, 0 and %d: a recycled generation remembers what it knew", first, second, third, votes*(n-1), votes*(n-1))
	}
	if firstBytes < 16<<10 {
		t.Fatalf("the first generation allocated %d bytes: the traffic did not grow its maps and slabs", firstBytes)
	}
	if thirdBytes > 512 {
		t.Errorf("the third generation allocated %d bytes, want none of the first's %d: its maps or slabs were not recycled", thirdBytes, firstBytes)
	}
}

// TestEnvelopeOutlivesItsTransfers: an envelope goes back to the pool only
// when nothing holds it any more. A transfer held in limbo across two
// rotations, while more than a thousand other messages are sealed and
// released, still carries its own message; and a handler that sends from
// inside a delivery, as a node answers a piece request, does not change
// what that delivery relays. Both schedules also run on the per-endpoint
// model, whose every first delivery and counter they must match.
func TestEnvelopeOutlivesItsTransfers(t *testing.T) {
	const n, ttl = 20, 4 * time.Second
	setup := func(build dedupRig, handle func(from, to int, m Message)) (*vtime.Sim, *Network, func(int, Message), func(int, int, Message), *[]arrival) {
		sim := vtime.New()
		cfg := defaults(DefaultConfig())
		cfg.seenTTL = ttl
		log := new([]arrival)
		nw, gossip, unicast := build(sim, cfg, func(from, to int, m Message) Verdict {
			*log = append(*log, arrival{sim.Now(), from, to, m.WireSize()})
			handle(from, to, m)
			return Verdict{Relay: m.WireSize() > 100}
		})
		return sim, nw, gossip, unicast, log
	}

	t.Run("held in limbo", func(t *testing.T) {
		held := &testMsg{id: crypto.HashBytes("held", nil), size: 77} // delivered, not relayed
		const release = 2*ttl + ttl/2
		var sealed int
		var delivered []Message
		var arrivals []arrival
		nw := matchModel(t, "held in limbo", n, func(build dedupRig) (*Network, []arrival) {
			sealed, delivered = 0, nil
			sim, nw, gossip, unicast, log := setup(build, func(from, to int, m Message) {
				if m.WireSize() == held.size {
					delivered = append(delivered, m)
				}
			})
			nw.AddLimboFault(LimboFault{
				Match:    func(from, to int) bool { return from == 0 && to == 1 },
				Active:   func(now time.Duration) bool { return now == 0 },
				HoldProb: 1, HoldFor: release,
			})
			rng := rand.New(rand.NewSource(1))
			sim.Spawn("schedule", func(p *vtime.Proc) {
				unicast(0, 1, held)
				for step := 0; sim.Now() < release; step++ {
					p.Sleep(ttl / 64)
					for j := 0; j < 8; j++ {
						from := rng.Intn(n)
						m := &testMsg{id: crypto.HashBytes("churn", []byte(fmt.Sprint(step, j))), size: 40 + j}
						unicast(from, (from+1+rng.Intn(n-1))%n, m)
						sealed++
					}
					if step%8 == 0 {
						gossip(rng.Intn(n), &testMsg{id: crypto.HashBytes("churn.flood", []byte(fmt.Sprint(step))), size: 200 + step})
						sealed++
					}
				}
			})
			sim.Run(time.Hour)
			arrivals = *log
			return nw, arrivals
		})
		var at time.Duration
		for _, a := range arrivals {
			if a.size == held.size {
				at = a.at
			}
		}
		if sealed <= 1000 || nw.stamp < 3 || nw.TotalLimbo() != 1 {
			t.Fatalf("%d messages sealed, %d rotations, %d transfers held: want over 1000, at least two and one", sealed, nw.stamp-1, nw.TotalLimbo())
		}
		if len(delivered) != 1 || delivered[0] != Message(held) || delivered[0].(Flooded).ID() != held.id || at < release {
			t.Fatalf("the held transfer delivered %v at %v, want the held message itself once, at %v or later", delivered, at, release)
		}
	})

	t.Run("sending from a handler", func(t *testing.T) {
		outer := &testMsg{id: crypto.HashBytes("outer", nil), size: 500}
		var reached int
		matchModel(t, "sending from a handler", n, func(build dedupRig) (*Network, []arrival) {
			reached = 0
			var gossip func(int, Message)
			var unicast func(int, int, Message)
			sim, nw, g, u, log := setup(build, func(from, to int, m Message) {
				if m != Message(outer) {
					return
				}
				reached++
				// A reply to the sender and an announcement of one's own,
				// both sealed while the outer delivery runs.
				unicast(to, from, &testMsg{id: crypto.HashBytes("reply", []byte{byte(to)}), size: 40})
				gossip(to, &testMsg{id: crypto.HashBytes("note", []byte{byte(to)}), size: 60})
			})
			gossip, unicast = g, u
			// Unicast, so that its first delivery is its envelope's only holder.
			sim.Spawn("origin", func(p *vtime.Proc) { unicast(0, 1, outer) })
			sim.Run(time.Hour)
			return nw, *log
		})
		if reached != n {
			t.Fatalf("the outer message reached %d of %d endpoints: a delivery relayed what its handler sent", reached, n)
		}
	})
}

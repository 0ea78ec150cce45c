package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/vtime"
)

// deliveryTrace runs one seeded schedule and returns a digest of the order
// its transfers ran in. Every transfer that runs is one event of the
// simulation, numbered by Sim.EventCount, and the digest takes in, with the
// event's number and time, everything an event reveals: each send (from,
// to) — a relay is its burst of sends — and each first delivery (from, to,
// message ID); a duplicate delivery reveals nothing but the number it
// takes, which moves every later one. It ends with every endpoint's
// counters. Odd seeds give each endpoint a NIC of its own, even ones put
// four on a VM's shared NIC.
func deliveryTrace(seed int64) (string, *Network) {
	const n = 40
	sim := vtime.New()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.SeenTTL = 20 * time.Second
	if seed%2 == 0 {
		cfg.ProcsPerVM, cfg.VMBps = 4, 40_000_000
	}
	nw := New(sim, cfg, n)
	h := sha256.New()
	put := func(vals ...int64) {
		for _, v := range vals {
			h.Write(binary.BigEndian.AppendUint64(nil, uint64(v)))
		}
	}
	event := func(kind byte, from, to int) {
		put(int64(kind), int64(sim.Now()), int64(sim.EventCount), int64(from), int64(to))
	}
	for i := 0; i < n; i++ {
		nw.SetHandler(i, HandlerFunc(func(from int, m Message) Verdict {
			event('d', from, i)
			id := m.ID()
			h.Write(id[:])
			// Verification costs vary with the message and the node, and a
			// few nodes find a few messages invalid.
			size := m.WireSize()
			return Verdict{Relay: size%7 != 0 || i%5 != 0, CPU: time.Duration(size%13+i%3) * 40 * time.Microsecond}
		}))
	}
	nw.SeedFaults(seed)
	nw.AddPartition(func(from, to int) bool {
		event('s', from, to)
		return false
	})
	nw.AddLinkFault(LinkFault{
		Match:    func(from, to int) bool { return (from+to)%3 == 0 },
		LossProb: 0.05, ExtraDelay: 3 * time.Millisecond, ExtraJitter: 20 * time.Millisecond,
	})
	nw.AddLimboFault(LimboFault{
		Active:   func(now time.Duration) bool { return now < 5*time.Second },
		HoldProb: 0.03, HoldFor: 2 * time.Second, HoldJitter: time.Second,
	})

	rng := rand.New(rand.NewSource(seed))
	sim.Spawn("schedule", func(p *vtime.Proc) {
		for step := 0; step < 40; step++ {
			p.Sleep(time.Duration(rng.Int63n(int64(200 * time.Millisecond))))
			// Bursts at one instant; a vote, a block piece or a batch.
			for burst := rng.Intn(4); burst >= 0; burst-- {
				size := []int{300, 1 + rng.Intn(4096), 64 << 10}[rng.Intn(3)]
				m := &testMsg{id: crypto.HashBytes("trace", []byte(fmt.Sprint(seed, step, burst))), size: size}
				if rng.Intn(3) == 0 {
					m.limit = LimitKey{Kind: 'v', Sender: [8]byte{byte(rng.Intn(4))}, Round: uint64(step / 8), Step: 1}
				}
				switch origin := rng.Intn(n); rng.Intn(5) {
				case 0:
					nw.Unicast(origin, rng.Intn(n), m)
				case 1:
					nw.Gossip(origin, &multiMsg{*m})
				default:
					nw.Gossip(origin, m)
				}
			}
		}
	})
	sim.Run(time.Hour)
	for i := 0; i < n; i++ {
		st := nw.NodeStats(i)
		put(st.BytesSent, st.BytesReceived, st.MsgsReceived, st.DupsDropped, st.MsgsLost, int64(st.CPUUsed))
	}
	put(nw.TotalBytes(), nw.TotalMsgs(), nw.TotalLost(), nw.TotalLimbo(), int64(sim.EventCount))
	return hex.EncodeToString(h.Sum(nil)[:12]), nw
}

// TestDeliveryTraceMatchesParent: the transfers run in the order they ran
// in when every one of them was an event on the queue. The digests were
// taken from that implementation (540486d) and are pinned here; they cover
// jitter, shared VM links, link-fault loss, delay and jitter, limbo
// releases out of a link's order, and relays held back by modeled CPU.
func TestDeliveryTraceMatchesParent(t *testing.T) {
	want := map[int64]string{
		1:  "d7e8ac091a77d157977184d7",
		2:  "52424802c97a35faedda4629",
		3:  "686a5b8b0ca6f20ec3654cad",
		4:  "025a8973089265341838afb5",
		5:  "c262a87bdbb334454bedf732",
		6:  "2b093cf2ba4ff3f123c37886",
		7:  "d73556ffd93169e0e6a659a1",
		8:  "ffa2cf34bc44e28e50a58464",
		9:  "8378a51cd4c53e5d2179f281",
		10: "893b15dbbdc43979e597093a",
		11: "10e82df377960089c6c0105a",
		12: "878fd08045dbf396db1a5537",
	}
	var msgs, dups, lost, limbo int64
	for seed := int64(1); seed <= int64(len(want)); seed++ {
		got, nw := deliveryTrace(seed)
		if got != want[seed] {
			t.Errorf("seed %d: delivery trace %s, the queue-per-event implementation's %s", seed, got, want[seed])
		}
		msgs, lost, limbo = msgs+nw.TotalMsgs(), lost+nw.TotalLost(), limbo+nw.TotalLimbo()
		dups += int64(nw.totalDups.Load())
	}
	t.Logf("%d schedules: %d first deliveries, %d duplicates, %d transfers lost, %d through limbo", len(want), msgs, dups, lost, limbo)
	if dups < msgs || lost == 0 || limbo == 0 {
		t.Fatal("the schedules did not exercise duplicates, loss and limbo")
	}
}

package node

import (
	"fmt"
	"testing"
	"time"

	"algorand/internal/network"
	"algorand/internal/params"
)

// The catch-up machine's table tests: each drives the machine from a
// start state through a list of inputs, without vtime or a network, and
// checks every action list it returns.

const testInterval = time.Hour

var testPeers = []int{4, 7, 9}

// in is one input to the machine and what it must answer.
type in struct {
	name string
	v    view
	feed func(m *catchup, v view) []cuAct
	want []cuAct
}

func at(now time.Duration, head uint64) view {
	return view{now: now, head: head, peers: testPeers, budget: 2 * time.Hour}
}

// testParams have 1 MB blocks; the rows below run a machine made for
// them, as node.New makes it.
var testParams = params.Default()

func testMachine(snapshots bool) catchup {
	return newCatchup(testInterval, snapshots, roundWireTime(testParams))
}

func chainAsk(peer int, from uint64, now time.Duration) []cuAct {
	return askFor(peer, from, ChainAsk(testParams), now)
}

// reask is a fork re-ask from past the last final block: it asks at least
// as many blocks as a chain ask, and reaches a round past the head.
func reask(peer int, from, head uint64, now time.Duration) []cuAct {
	return askFor(peer, from, max(ChainAsk(testParams), int(head+2-from)), now)
}

func askFor(peer int, from uint64, blocks int, now time.Duration) []cuAct {
	wait := replyWait + time.Duration(blocks)*roundWireTime(testParams)
	return []cuAct{{Kind: cuAskChain, Peer: peer, Round: from, Blocks: blocks}, {Kind: cuWait, At: now + wait}}
}

func snapAsk(peer int, head uint64, now time.Duration) []cuAct {
	return []cuAct{{Kind: cuAskSnapshot, Peer: peer, Round: head}, {Kind: cuWait, At: now + replyWait}}
}

var (
	live    = []cuAct{{Kind: cuLive}}
	retry   = []cuAct{{Kind: cuLive, Retry: true}}
	stop    = []cuAct{{Kind: cuStop}}
	adopt   = []cuAct{{Kind: cuAdoptFork}}
	recover = []cuAct{{Kind: cuRecover}}
	check   = []cuAct{{Kind: cuRecover, IfForked: true}}
)

func sleepTo(t time.Duration) []cuAct   { return []cuAct{{Kind: cuSleep, At: t, Checkpoint: true}} }
func backoffTo(t time.Duration) []cuAct { return []cuAct{{Kind: cuSleep, At: t}} }

func elapsed(m *catchup, v view) []cuAct   { return m.Elapsed(v) }
func roundDone(m *catchup, v view) []cuAct { return m.RoundDone(v) }
func roundFail(m *catchup, v view) []cuAct { return m.RoundFailed(v) }
func recovered(m *catchup, v view) []cuAct { return m.Recovered(v) }
func reply(applied int) func(*catchup, view) []cuAct {
	return func(m *catchup, v view) []cuAct { return m.ChainReply(v, applied, false) }
}
func conflict(m *catchup, v view) []cuAct { return m.ChainReply(v, 0, true) }
func adopted(ok bool) func(*catchup, view) []cuAct {
	return func(m *catchup, v view) []cuAct { return m.Adopted(v, ok) }
}
func snapshot(ok bool) func(*catchup, view) []cuAct {
	return func(m *catchup, v view) []cuAct { return m.SnapshotReply(v, ok) }
}
func halt(m *catchup, v view) []cuAct { m.Halt(); return m.Elapsed(v) }

func drive(t *testing.T, m *catchup, steps []in) {
	t.Helper()
	for i, s := range steps {
		got := s.feed(m, s.v)
		if !sameActs(got, s.want) {
			t.Fatalf("step %d (%s): got %+v, want %+v", i, s.name, got, s.want)
		}
	}
}

func sameActs(a, b []cuAct) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func start(v view, want []cuAct, f func(*catchup, view) []cuAct) in {
	return in{name: "start", v: v, feed: f, want: want}
}

func rejoinFor(budget time.Duration) func(*catchup, view) []cuAct {
	return func(m *catchup, v view) []cuAct { return m.Rejoin(v, budget) }
}

func liveStart(m *catchup, v view) []cuAct { return m.Live(v) }

func TestCatchupMachine(t *testing.T) {
	s := time.Second
	cases := []struct {
		name      string
		snapshots bool
		steps     []in
		stage     stage
	}{
		{name: "live start runs rounds and looks at each new checkpoint", stage: stageLive, steps: []in{
			start(at(0, 0), live, liveStart),
			{"round", at(10*s, 1), roundDone, live},
			{"checkpoint", at(testInterval+s, 2), roundDone, check},
			{"recovered", at(testInterval+3*s, 2), recovered, live},
			{"same window", at(testInterval+20*s, 3), roundDone, live},
			{"done", view{now: testInterval + 30*s, head: 4, done: true}, roundDone, stop},
		}},
		{name: "rejoin asks the peers in turn and goes live once the chain stalls", stage: stageLive, steps: []in{
			start(at(100*s, 20), chainAsk(4, 21, 100*s), rejoinFor(2*time.Minute)),
			{"applied", at(101*s, 34), reply(14), chainAsk(7, 35, 101*s)},
			{"nothing new", at(102*s, 34), reply(0), chainAsk(9, 35, 102*s)},
			{"timeout", at(106*s, 34), elapsed, chainAsk(4, 35, 106*s)},
			{"timeout", at(110*s, 34), elapsed, chainAsk(7, 35, 110*s)},
			{"timeout", at(114*s, 34), elapsed, chainAsk(9, 35, 114*s)},
			{"timeout", at(118*s, 34), elapsed, chainAsk(4, 35, 118*s)},
			// The sixth ask in a row that brought nothing: 2 × 3 peers.
			{"stall", at(122*s, 34), elapsed, live},
			{"round", at(130*s, 35), roundDone, live},
		}},
		{name: "rejoin goes to the main loop after a failed round past its budget", stage: stageLive, steps: []in{
			start(at(0, 5), chainAsk(4, 6, 0), rejoinFor(time.Minute)),
			{"applied", at(s, 9), reply(4), chainAsk(7, 10, s)},
			{"deadline", at(61*s, 9), elapsed, live},
			// Past the budget: the main loop.
			{"failed late", at(70*s, 9), roundFail, retry},
		}},
		{name: "rejoin syncs again after a failed round", stage: stagePeerChain, steps: []in{
			start(at(0, 5), chainAsk(4, 6, 0), rejoinFor(time.Minute)),
			{"applied", at(s, 9), reply(4), chainAsk(7, 10, s)},
			{"stalls", at(2*s, 9), reply(0), chainAsk(9, 10, 2*s)},
			{"stalls", at(3*s, 9), reply(0), chainAsk(4, 10, 3*s)},
			{"stalls", at(4*s, 9), reply(0), chainAsk(7, 10, 4*s)},
			{"stalls", at(5*s, 9), reply(0), chainAsk(9, 10, 5*s)},
			{"stalls", at(6*s, 9), reply(0), chainAsk(4, 10, 6*s)},
			{"stall", at(7*s, 9), reply(0), live},
			{"failed", at(20*s, 9), roundFail, chainAsk(4, 10, 20*s)},
		}},
		{name: "a rejoin cycle that syncs nothing and fails its round ends the rejoin", stage: stageLive, steps: []in{
			start(at(0, 5), chainAsk(4, 6, 0), rejoinFor(time.Minute)),
			{"nothing", at(s, 5), reply(0), chainAsk(7, 6, s)},
			{"deadline", at(61*s, 5), elapsed, live},
			{"failed", at(62*s, 5), roundFail, retry},
		}},
		// A rejoining node that gives up on a fork sleeps to the checkpoint
		// and recovers, as a behind node does.
		{name: "one fork re-ask from past the last final block", stage: stageLive, steps: []in{
			start(at(0, 30), chainAsk(4, 31, 0), rejoinFor(time.Minute)),
			{"conflict", at(s, 30), conflict, adopt},
			{"not adopted", view{now: s, head: 30, final: 25, peers: testPeers}, adopted(false), reask(7, 26, 30, s)},
			{"conflict again", at(2*s, 30), conflict, adopt},
			{"gives up", at(2*s, 30), adopted(false), sleepTo(testInterval)},
			{"slept", at(testInterval, 30), elapsed, recover},
			{"recovered", at(testInterval+5*time.Minute, 31), recovered, check},
			{"recovered", at(testInterval+5*time.Minute+s, 31), recovered, live},
		}},
		{name: "a rejoin that advanced and then gives up on a fork sleeps to the checkpoint", stage: stageLive, steps: []in{
			start(at(0, 30), chainAsk(4, 31, 0), rejoinFor(time.Minute)),
			{"applied", at(s, 33), reply(3), chainAsk(7, 34, s)},
			{"conflict", at(2*s, 33), conflict, adopt},
			{"not adopted", view{now: 2 * s, head: 33, final: 25, peers: testPeers}, adopted(false), reask(9, 26, 33, 2*s)},
			{"conflict again", at(3*s, 33), conflict, adopt},
			{"gives up", at(3*s, 33), adopted(false), sleepTo(testInterval)},
			{"slept", at(testInterval, 33), elapsed, check},
			{"recovered", at(testInterval+s, 33), recovered, live},
		}},
		{name: "an adopted fork resets the stalls", stage: stagePeerChain, steps: []in{
			start(at(0, 30), chainAsk(4, 31, 0), rejoinFor(time.Minute)),
			{"nothing", at(s, 30), reply(0), chainAsk(7, 31, s)},
			{"nothing", at(2*s, 30), reply(0), chainAsk(9, 31, 2*s)},
			{"nothing", at(3*s, 30), reply(0), chainAsk(4, 31, 3*s)},
			{"nothing", at(4*s, 30), reply(0), chainAsk(7, 31, 4*s)},
			{"conflict", at(5*s, 30), conflict, adopt},
			{"adopted", at(5*s, 33), adopted(true), chainAsk(9, 34, 5*s)},
			{"nothing", at(6*s, 33), reply(0), chainAsk(4, 34, 6*s)},
		}},
		{name: "snapshot first, with backoff, then the chain past the attempts' time", snapshots: true, stage: stageLive, steps: []in{
			start(at(0, 0), snapAsk(4, 0, 0), rejoinFor(10*s)),
			{"no reply", at(2*s, 0), elapsed, backoffTo(2*s + 500*time.Millisecond)},
			{"backoff", at(2*s+500*time.Millisecond, 0), elapsed, snapAsk(7, 0, 2*s+500*time.Millisecond)},
			{"stale", at(3*s, 0), snapshot(false), backoffTo(4 * s)},
			{"backoff", at(4*s, 0), elapsed, snapAsk(9, 0, 4*s)},
			{"no reply", at(6*s, 0), elapsed, chainAsk(4, 1, 6*s)},
			// The deadline moved by the six seconds the snapshot took.
			{"timeout", at(15*s, 0), elapsed, chainAsk(7, 1, 15*s)},
			{"deadline", at(16*s, 0), elapsed, live},
		}},
		{name: "an adopted snapshot ends the attempts", snapshots: true, stage: stagePeerChain, steps: []in{
			start(at(0, 0), snapAsk(4, 0, 0), rejoinFor(time.Minute)),
			{"adopted", at(s, 16), snapshot(true), chainAsk(4, 17, s)},
		}},
		{name: "a node holding a round asks for no snapshot", snapshots: true, stage: stagePeerChain, steps: []in{
			start(at(0, 3), chainAsk(4, 4, 0), rejoinFor(time.Minute)),
		}},
		{name: "behind: bites while they advance, then a sleep to the checkpoint", stage: stageLive, steps: []in{
			start(at(0, 0), live, liveStart),
			{"failed", at(100*s, 10), roundFail, chainAsk(4, 11, 100*s)},
			{"applied", at(101*s, 14), reply(4), chainAsk(7, 15, 101*s)},
			{"bite over", at(110*s, 14), elapsed, chainAsk(4, 15, 110*s)},
			{"nothing", at(111*s, 14), reply(0), chainAsk(7, 15, 111*s)},
			{"bite over", at(120*s, 14), elapsed, sleepTo(testInterval)},
			{"slept", at(testInterval, 14), elapsed, check},
			{"recovered", at(testInterval, 14), recovered, retry},
		}},
		{name: "behind without the sleep when a round ends before the checkpoint", stage: stageLive, steps: []in{
			start(at(0, 0), live, liveStart),
			{"failed", at(100*s, 10), roundFail, chainAsk(4, 11, 100*s)},
			{"applied", view{now: 101 * s, head: 14, peers: testPeers, budget: time.Minute}, reply(4), chainAsk(7, 15, 101*s)},
			{"bite over", view{now: 111 * s, head: 14, peers: testPeers, budget: time.Minute}, elapsed, chainAsk(4, 15, 111*s)},
			{"bite over", view{now: 121 * s, head: 14, peers: testPeers, budget: time.Minute}, elapsed, retry},
		}},
		{name: "behind and stuck: sleep to the checkpoint and recover", stage: stagePeerChain, steps: []in{
			start(at(0, 0), live, liveStart),
			{"failed", at(100*s, 10), roundFail, chainAsk(4, 11, 100*s)},
			{"bite over", at(110*s, 10), elapsed, sleepTo(testInterval)},
			{"slept", at(testInterval, 10), elapsed, recover},
			{"recovered", at(testInterval+5*time.Minute, 12), recovered, check},
		}},
		{name: "a halted node asks no further and stops", stage: stagePeerChain, steps: []in{
			start(at(0, 0), live, liveStart),
			{"failed", at(100*s, 10), roundFail, chainAsk(4, 11, 100*s)},
			{"halted", at(102*s, 10), halt, sleepTo(testInterval)},
			{"slept", at(testInterval, 10), elapsed, stop},
		}},
		{name: "a halted node's failed round ends its process", stage: stageLive, steps: []in{
			start(at(0, 0), live, liveStart),
			{"failed", at(100*s, 10), func(m *catchup, v view) []cuAct { m.Halt(); return m.RoundFailed(v) }, stop},
		}},
		{name: "no peers: a rejoin and a behind node sleep to recovery", stage: stageLive, steps: []in{
			start(view{now: 0, head: 3}, sleepTo(testInterval), rejoinFor(time.Minute)),
			start(view{now: 0, head: 3}, live, liveStart),
			{"failed", view{now: 10 * s, head: 3}, roundFail, sleepTo(testInterval)},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := testMachine(c.snapshots)
			drive(t, &m, c.steps)
			if m.stage != c.stage {
				t.Errorf("stage %d, want %d", m.stage, c.stage)
			}
		})
	}
	// A chain ask asks for the most blocks whose transfer on the paper's
	// link fits replyWait, at least one, and waits for replyWait and their
	// transfer.
	for _, size := range []int{1 << 20, 10 << 20} {
		t.Run(fmt.Sprintf("a chain ask at %d MB blocks asks for what its wait carries", size>>20), func(t *testing.T) {
			p := testParams
			p.BlockSize = size
			perRound := time.Duration(float64(size*8) / network.PaperLinkBps * float64(time.Second))
			want := max(1, int(replyWait/perRound))
			m := newCatchup(testInterval, false, roundWireTime(p))
			acts := m.Rejoin(at(100*time.Second, 20), time.Minute)
			if len(acts) != 2 || acts[0].Kind != cuAskChain || acts[1].Kind != cuWait {
				t.Fatalf("rejoin start: %+v, want a chain ask and its wait", acts)
			}
			if acts[0].Blocks != want {
				t.Errorf("asks for %d blocks of %d bytes, want %d: the most whose %v each fit %v", acts[0].Blocks, size, want, perRound, replyWait)
			}
			if wait, need := acts[1].At-100*time.Second, replyWait+time.Duration(acts[0].Blocks)*perRound; wait < need {
				t.Errorf("waits %v for %d blocks, want at least %v", wait, acts[0].Blocks, need)
			}
			// A fork re-ask from past a last final block more than an ask's
			// blocks below the head reaches a round past the head, which a
			// branch must be certified to for the node to adopt it.
			m.ChainReply(at(101*time.Second, 20), 0, true)
			final := uint64(20 - want - 2)
			acts = m.Adopted(view{now: 101 * time.Second, head: 20, final: final, peers: testPeers}, false)
			if len(acts) != 2 || acts[0].Kind != cuAskChain || acts[0].Round != final+1 {
				t.Fatalf("re-ask: %+v, want a chain ask from %d", acts, final+1)
			}
			if last := acts[0].Round + uint64(acts[0].Blocks) - 1; last < 21 {
				t.Errorf("re-ask from %d reaches round %d, want 21, a round past the head", acts[0].Round, last)
			}
			if wait, need := acts[1].At-101*time.Second, replyWait+time.Duration(acts[0].Blocks)*perRound; wait < need {
				t.Errorf("re-ask waits %v for %d blocks, want at least %v", wait, acts[0].Blocks, need)
			}
		})
	}
	// A block size of 0 or less (algorand-sim -blocksize 0) sizes an ask of
	// the most blocks, with a wait no shorter than replyWait.
	for _, size := range []int{0, -1} {
		p := testParams
		p.BlockSize = size
		m := newCatchup(testInterval, false, roundWireTime(p))
		acts := m.Rejoin(at(0, 20), time.Minute)
		if ChainAsk(p) != 32 || len(acts) != 2 || acts[0].Blocks != 32 || acts[1].At < replyWait {
			t.Errorf("block size %d: ChainAsk %d, start %+v; want 32 blocks and a wait of at least %v", size, ChainAsk(p), acts, replyWait)
		}
	}
}

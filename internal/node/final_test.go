package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"algorand/internal/agreement"
	"algorand/internal/blockprop"
	"algorand/internal/node"
	"algorand/internal/sim"
	"algorand/internal/vtime"
)

// Archive record kinds (the first payload byte, internal/ledger/diskstore).
const (
	recPut       = 1
	recCert      = 2
	recReconcile = 3
)

// recordKinds counts the records of each kind in a closed archive's
// segments.
func recordKinds(t *testing.T, dir string) map[byte]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		offs, _ := walRecords(t, data)
		for _, off := range offs {
			kinds[data[off+12]]++
		}
	}
	return kinds
}

// TestNextRoundStartsAtCommit: a round ends at its commit, and the next
// starts there, while its §7.4 final step counts on. The final step then
// attaches the round's one certificate, final, to the ledger and
// journals it: the archive holds each round as one put record, with no
// certificate, and one cert record.
func TestNextRoundStartsAtCommit(t *testing.T) {
	const rounds = 4
	cfg := sim.DefaultConfig(10, rounds)
	fastParams(&cfg)
	cfg.DataDir = t.TempDir()
	c := sim.NewCluster(cfg)
	c.Run()
	if err := c.CloseArchives(); err != nil {
		t.Fatal(err)
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	counted := false
	for i, n := range c.Nodes {
		if len(n.Stats) != rounds {
			t.Fatalf("node %d: %d rounds, want %d", i, len(n.Stats), rounds)
		}
		for k, st := range n.Stats {
			if k > 0 && st.Start != n.Stats[k-1].End {
				t.Fatalf("node %d: round %d started at %v, round %d committed at %v",
					i, st.Round, st.Start, st.Round-1, n.Stats[k-1].End)
			}
			if !st.Final || st.Finalized < st.End {
				t.Fatalf("node %d: round %d final %v at %v, committed at %v", i, st.Round, st.Final, st.Finalized, st.End)
			}
			counted = counted || st.Finalized > st.End
			cert, ok := n.Ledger().CertificateAt(st.Round)
			if !ok || !cert.Final || cert.Step != agreement.StepFinal {
				t.Fatalf("node %d: round %d certificate %v (held %v), want the final step's", i, st.Round, cert, ok)
			}
		}
		kinds := recordKinds(t, filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", i)))
		if kinds[recPut] != rounds || kinds[recCert] != rounds || kinds[recReconcile] != 0 {
			t.Fatalf("node %d's archive: %d put, %d cert, %d reconcile records, want %d, %d, 0",
				i, kinds[recPut], kinds[recCert], kinds[recReconcile], rounds, rounds)
		}
		ds, err := c.OpenArchiveOffline(i)
		if err != nil {
			t.Fatal(err)
		}
		for r := uint64(1); r <= rounds; r++ {
			if cert, ok := ds.Recovered().Cert(r); !ok || !cert.Final {
				t.Fatalf("node %d's archive: round %d certificate %v (held %v), want final", i, r, cert, ok)
			}
		}
		ds.Close()
	}
	if !counted {
		t.Fatal("every final step ended at its commit: none counted after it")
	}
}

// TestTentativeRoundDoesNotHoldTheNext: a round whose BinaryBA⋆
// concludes after step 1 gets no final-step votes, so its final step
// waits out λ_step. That wait is no longer the next round's: the next
// round starts at the commit, the final step times out behind it, and
// the round keeps the concluding step's certificate.
func TestTentativeRoundDoesNotHoldTheNext(t *testing.T) {
	const rounds = 3
	cfg := sim.DefaultConfig(16, rounds)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	for _, n := range c.Nodes {
		// Selected, says nothing: every round agrees on the empty block,
		// which BinaryBA⋆ concludes in its second step.
		n.Misbehave = func(*node.Node, *blockprop.Proposal) {}
	}
	c.Run()
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	lambda := cfg.Params.LambdaStep
	for i, n := range c.Nodes {
		if len(n.Stats) != rounds {
			t.Fatalf("node %d: %d rounds, want %d", i, len(n.Stats), rounds)
		}
		for k, st := range n.Stats {
			if st.BinarySteps < 2 || !st.Empty || st.Final {
				t.Fatalf("node %d: round %d concluded in %d steps (empty %v, final %v), want a tentative empty round",
					i, st.Round, st.BinarySteps, st.Empty, st.Final)
			}
			if st.Finalized != st.End+lambda {
				t.Fatalf("node %d: round %d final step ended at %v, want λ_step after its commit at %v", i, st.Round, st.Finalized, st.End)
			}
			if k+1 < len(n.Stats) && n.Stats[k+1].Start != st.End {
				t.Fatalf("node %d: round %d started at %v, not at round %d's commit %v", i, st.Round+1, n.Stats[k+1].Start, st.Round, st.End)
			}
			cert, ok := n.Ledger().CertificateAt(st.Round)
			if !ok || cert.Final || cert.Step != agreement.WireStepOfBinary(st.BinarySteps) {
				t.Fatalf("node %d: round %d certificate %v (held %v), want the concluding step %d's",
					i, st.Round, cert, ok, agreement.WireStepOfBinary(st.BinarySteps))
			}
		}
	}
}

// TestNodeEndsAfterItsLastFinalStep: a node that stops at StopAfterRound
// is done only once its last round's final step has ended, so every
// round it ran is final and certified when the run is read.
func TestNodeEndsAfterItsLastFinalStep(t *testing.T) {
	const rounds = 3
	cfg := sim.DefaultConfig(10, rounds)
	fastParams(&cfg)
	c := sim.NewCluster(cfg)
	doneAt := make([]time.Duration, len(c.Nodes))
	c.Sim.Spawn("done-watch", func(p *vtime.Proc) {
		for left := len(c.Nodes); left > 0; p.Sleep(time.Millisecond) {
			for i, n := range c.Nodes {
				if doneAt[i] == 0 && n.Done() {
					doneAt[i], left = p.Now(), left-1
				}
			}
		}
	})
	c.Run()
	lingered := false
	for i, n := range c.Nodes {
		last := n.Stats[len(n.Stats)-1]
		if last.Round != rounds || last.Finalized == 0 || doneAt[i] < last.Finalized {
			t.Fatalf("node %d done at %v, its round %d final step ended at %v", i, doneAt[i], last.Round, last.Finalized)
		}
		lingered = lingered || last.Finalized > last.End
		for _, st := range n.Stats {
			cert, ok := n.Ledger().CertificateAt(st.Round)
			if !st.Final || !ok || !cert.Final {
				t.Fatalf("node %d: round %d final %v, certificate %v (held %v)", i, st.Round, st.Final, cert, ok)
			}
		}
	}
	if !lingered {
		t.Fatal("every last final step ended at its commit: no node outlived its last round")
	}
}

// TestHaltWithFinalStepOpen: a node halted while a round's final step
// counts journals nothing after the halt, so the round is on its disk
// without a certificate. Its restart replays the archive up to the round
// before (RestoreFromArchive stops at a round it cannot verify), and
// takes that round, certified, from its peers.
func TestHaltWithFinalStepOpen(t *testing.T) {
	const victim, haltAt = 3, 3
	cfg := sim.DefaultConfig(16, 8)
	fastParams(&cfg)
	cfg.DataDir = t.TempDir()
	c := sim.NewCluster(cfg)

	var open bool
	var appendsAtHalt, appendsAtRestart int
	var restored uint64
	var restartErr error
	c.Sim.Spawn("halt-at-commit", func(p *vtime.Proc) {
		for c.Nodes[victim].Ledger().ChainLength() < haltAt {
			p.Sleep(time.Millisecond)
		}
		c.CrashNode(victim)
		_, certified := c.Nodes[victim].Ledger().CertificateAt(haltAt)
		open = !certified
		appendsAtHalt = c.Archive(victim).Stats().Appends
		p.Sleep(3 * cfg.Params.LambdaStep) // the open final step's timer fires meanwhile
		appendsAtRestart = c.Archive(victim).Stats().Appends
		_, restored, restartErr = c.RestartNode(victim, 10*time.Minute)
	})
	c.Run()

	if !open {
		t.Fatalf("round %d's final step had ended when the node halted: test premise broken", haltAt)
	}
	if appendsAtRestart != appendsAtHalt {
		t.Fatalf("the halted node journaled %d records after its halt", appendsAtRestart-appendsAtHalt)
	}
	if restartErr != nil {
		t.Fatalf("restart: %v", restartErr)
	}
	if restored != haltAt-1 {
		t.Fatalf("restart replayed %d rounds from disk, want %d: it stops at the uncertified round", restored, haltAt-1)
	}
	if err := c.AgreementCheck(); err != nil {
		t.Fatal(err)
	}
	repl, ref := c.Nodes[victim].Ledger(), c.Nodes[0].Ledger()
	if repl.HeadHash() != ref.HeadHash() {
		t.Fatalf("replacement head round %d, the network's %d", repl.ChainLength(), ref.ChainLength())
	}
	if err := c.CloseArchives(); err != nil {
		t.Fatal(err)
	}
	ds, err := c.OpenArchiveOffline(victim)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, ok := ds.Recovered().Cert(haltAt); !ok {
		t.Fatalf("the replacement's archive holds no certificate for round %d", haltAt)
	}
}

package experiments

import (
	"testing"
	"time"
)

// The experiment tests assert the *shape* claims of the paper's
// evaluation (who wins, what is flat, what grows — see EXPERIMENTS.md),
// not absolute numbers, each at the smallest scale that shows the shape:
// the sweeps themselves run from cmd/experiments. All runs are
// deterministic given their seeds.

// halfScale runs the 100-user experiments at 50 users.
var halfScale = Scale{Users: 0.5, Rounds: 3}

func TestFigure3OperatingPoint(t *testing.T) {
	pts := Figure3([]float64{0.80})
	if len(pts) != 1 {
		t.Fatal("missing point")
	}
	if pts[0].Tau < 1200 || pts[0].Tau > 2600 {
		t.Fatalf("τ(h=0.8) = %d, paper picks 2000", pts[0].Tau)
	}
}

func TestFigure5LatencyFlat(t *testing.T) {
	// 50 → 200 users; cmd/experiments -run figure5 and -run nodecost
	// carry the curve on to 400 and beyond.
	pts := Figure5(Scale{Users: 1, Rounds: 3}, []int{50, 200})
	var min, max time.Duration
	for i, p := range pts {
		if p.Latency.N == 0 {
			t.Fatalf("users=%d: no data", p.Users)
		}
		if p.Latency.Median > time.Minute {
			t.Fatalf("users=%d: median %v exceeds a minute", p.Users, p.Latency.Median)
		}
		if i == 0 || p.Latency.Median < min {
			min = p.Latency.Median
		}
		if p.Latency.Median > max {
			max = p.Latency.Median
		}
	}
	// Near-constant latency: medians within 2x across a 4x user range.
	if max > 2*min {
		t.Fatalf("latency not flat: min median %v, max median %v", min, max)
	}
}

func TestFigure6SharedVMSlower(t *testing.T) {
	scale := Scale{Users: 1, Rounds: 3}
	users := []int{50}
	dedicated := Figure5(scale, users)
	shared := Figure6(scale, users, 10)
	if shared[0].Latency.Median <= dedicated[0].Latency.Median {
		t.Fatalf("shared-VM median %v not slower than dedicated %v",
			shared[0].Latency.Median, dedicated[0].Latency.Median)
	}
}

func TestFigure7Shape(t *testing.T) {
	// A body pulled in pieces from many holders arrives inside the
	// λ_priority+λ_stepvar window up to about 8 MB, so the second size is
	// one that outgrows it.
	pts := Figure7(halfScale, []int{1 << 20, 16 << 20})
	// Block proposal time grows substantially with block size...
	first := pts[0].Phases.BlockProposal.Median
	last := pts[len(pts)-1].Phases.BlockProposal.Median
	if last <= first {
		t.Fatalf("proposal time did not grow with block size: %v -> %v", first, last)
	}
	// ...while BA⋆ stays bounded near the paper's ~12s at every size
	// (the paper's own 10 MB point keeps BA⋆ at 12s while proposal
	// dominates the round).
	var baMin, baMax time.Duration = time.Hour, 0
	for _, p := range pts {
		ba := p.Phases.BAWithoutFinal.Median
		if ba > 13*time.Second {
			t.Fatalf("BA⋆ median %v at %d bytes exceeds the paper's ~12s regime", ba, p.BlockSize)
		}
		if ba < baMin {
			baMin = ba
		}
		if ba > baMax {
			baMax = ba
		}
	}
	// Proposal growth must dominate any BA⋆ drift.
	if last-first < baMax-baMin {
		t.Fatalf("proposal growth (%v) does not dominate BA⋆ drift (%v)",
			last-first, baMax-baMin)
	}
}

func TestFigure8AttackTolerated(t *testing.T) {
	pts := Figure8(halfScale, []float64{0, 0.20})
	honest, attacked := pts[0], pts[1]
	if attacked.Latency.N == 0 {
		t.Fatal("no completed rounds under attack")
	}
	// The paper's figure: latency under 20% malicious users stays in the
	// same regime (small constant factor), and safety holds (checked by
	// Figure8 itself via AgreementCheck).
	if attacked.Latency.Median > 4*honest.Latency.Median {
		t.Fatalf("attack inflated latency too much: %v vs %v",
			attacked.Latency.Median, honest.Latency.Median)
	}
}

func TestThroughputBeatsBitcoin(t *testing.T) {
	rows := ThroughputVsBitcoin(halfScale, []int{2 << 20})
	var algoBest, btc float64
	for _, r := range rows {
		switch r.System {
		case "algorand":
			if r.MBytesPerHour > algoBest {
				algoBest = r.MBytesPerHour
			}
		case "bitcoin":
			btc = r.MBytesPerHour
		}
	}
	if btc < 4 || btc > 8 {
		t.Fatalf("bitcoin baseline %v MB/h, expected ≈6", btc)
	}
	// Paper: 327 MB/h at 2 MB blocks (≈50x Bitcoin); at simulation scale
	// the factor should still be large.
	if algoBest < 20*btc {
		t.Fatalf("algorand %v MB/h not ≫ bitcoin %v MB/h", algoBest, btc)
	}
}

func TestCostsMatchPaperShape(t *testing.T) {
	rep := Costs(halfScale)
	// Certificate ≈ 300 KB (§10.3).
	if rep.CertificateKB < 250 || rep.CertificateKB > 450 {
		t.Fatalf("certificate %v KB, paper ~300", rep.CertificateKB)
	}
	if rep.BandwidthMbps <= 0 {
		t.Fatal("no bandwidth recorded")
	}
	if rep.CPUCoreFraction <= 0 || rep.CPUCoreFraction > 1 {
		t.Fatalf("CPU fraction %v implausible", rep.CPUCoreFraction)
	}
	if rep.StorageKBPerBlockSharded <= 0 {
		t.Fatal("no sharded storage recorded")
	}
}

func TestTimeoutParametersValidated(t *testing.T) {
	rep := TimeoutValidation(halfScale)
	// §10.5: BA⋆ steps complete well under λ_step = 20s.
	if rep.StepTimes.Median >= 20*time.Second {
		t.Fatalf("median step time %v not under λ_step", rep.StepTimes.Median)
	}
	// Priority propagation well under λ_priority = 5s (paper: ~1s).
	if rep.PriorityPropagation.N == 0 || rep.PriorityPropagation.Median >= 5*time.Second {
		t.Fatalf("priority propagation %v not under λ_priority", rep.PriorityPropagation.Median)
	}
	// Most steps should not time out in the honest case.
	if rep.TimeoutFraction > 0.40 {
		t.Fatalf("timeout fraction %v too high", rep.TimeoutFraction)
	}
}

func TestStepCountsCommonCase(t *testing.T) {
	rep := StepCounts(halfScale, 0)
	total := 0
	for _, c := range rep.Histogram {
		total += c
	}
	if total == 0 {
		t.Fatal("no rounds measured")
	}
	// With honest proposers, BA⋆ concludes in one binary step nearly
	// always (the paper's "4 interactive steps" common case).
	if rep.Histogram[1]*10 < total*9 {
		t.Fatalf("binary-step histogram not dominated by 1: %v", rep.Histogram)
	}
}

func TestCoinAttackAblation(t *testing.T) {
	res := RunCoinAblation(6, 42)
	t.Log(res.Summary())
	// Without the coin the adversary keeps the network split until
	// MaxSteps nearly always; with the coin it converges quickly.
	if res.StuckWithout < len(res.WithoutCoin)/2 {
		t.Fatalf("vote-splitting attack ineffective without coin: %d/%d stuck — harness broken?",
			res.StuckWithout, len(res.WithoutCoin))
	}
	if res.StuckWith > len(res.WithCoin)/3 {
		t.Fatalf("common coin failed to rescue: %d/%d stuck", res.StuckWith, len(res.WithCoin))
	}
	if mean(res.WithCoin) >= mean(res.WithoutCoin) {
		t.Fatalf("coin did not reduce steps: %.1f vs %.1f", mean(res.WithCoin), mean(res.WithoutCoin))
	}
}

func TestAblationPriorityGossip(t *testing.T) {
	res := AblatePriorityGossip(halfScale)
	if res.Ablated.Latency.N == 0 {
		t.Fatal("ablated run produced no data")
	}
	// Liveness must survive without the optimization; we expect the
	// block-proposal path to consume at least as much bandwidth.
	if res.ExtraBytesFraction < 0.9 {
		t.Fatalf("unexpected byte reduction without priority gossip: %.2f", res.ExtraBytesFraction)
	}
}

func TestAblationEquivocationPolicy(t *testing.T) {
	res := AblateEquivocationDiscard(halfScale)
	if res.Ablated.Latency.N == 0 || res.Baseline.Latency.N == 0 {
		t.Fatal("missing data")
	}
	// Both policies preserve agreement (checked inside); the discard
	// policy should not be slower than keep-first.
	if res.Baseline.Latency.Median > res.Ablated.Latency.Median*3 {
		t.Fatalf("discard-both dramatically slower: %v vs %v",
			res.Baseline.Latency.Median, res.Ablated.Latency.Median)
	}
}

func TestAblationVoteNext3(t *testing.T) {
	res := AblateVoteNext3(halfScale)
	if res.Ablated.Latency.N == 0 {
		t.Fatal("missing data")
	}
	// The protocol still works overall (agreement asserted inside); the
	// point of the bench is the latency/empty-rate comparison recorded
	// in EXPERIMENTS.md.
}

package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"algorand/internal/metrics"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestRecordAndQuery(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 0)

	tr.Record(1, PhasePropose, 0, 0, 100*time.Millisecond)
	tr.Record(1, PhaseBAStep, 1, 100*time.Millisecond, 150*time.Millisecond)
	tr.Record(1, PhaseBAStep, 2, 150*time.Millisecond, 250*time.Millisecond)
	tr.Record(1, PhaseCommit, 0, 250*time.Millisecond, 260*time.Millisecond)
	tr.Record(1, PhasePersist, 0, 260*time.Millisecond, 300*time.Millisecond)

	rounds := tr.Rounds()
	if len(rounds) != 1 || rounds[0].Round != 1 || len(rounds[0].Spans) != 5 {
		t.Fatalf("rounds = %+v", rounds)
	}

	ba1, ba2 := rounds[0].Spans[1], rounds[0].Spans[2]
	if ba1.Phase != PhaseBAStep || ba1.Step != 1 || ba1.Duration() != 50*time.Millisecond ||
		ba2.Phase != PhaseBAStep || ba2.Step != 2 || ba2.Duration() != 100*time.Millisecond {
		t.Fatalf("ba spans = %+v, %+v", ba1, ba2)
	}

	// commit-to-persist: start of commit to end of persist.
	c2p := tr.ChainedDurations(PhaseCommit, PhasePersist)
	if len(c2p) != 1 || c2p[0] != 50*time.Millisecond {
		t.Fatalf("commit-to-persist = %v", c2p)
	}
	// Rounds missing either endpoint are skipped.
	tr.Record(2, PhaseCommit, 0, 0, time.Millisecond)
	if got := tr.ChainedDurations(PhaseCommit, PhasePersist); len(got) != 1 {
		t.Fatalf("chained with missing persist = %v", got)
	}
}

func TestRingEviction(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 4)
	for r := uint64(1); r <= 10; r++ {
		tr.Record(r, PhaseRound, 0, 0, time.Second)
	}
	rounds := tr.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("retained %d rounds, want 4", len(rounds))
	}
	if rounds[0].Round != 7 || rounds[3].Round != 10 {
		t.Fatalf("retained rounds %d..%d, want 7..10", rounds[0].Round, rounds[3].Round)
	}
}

func TestRegisterMetricsTee(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 0)
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)

	tr.Record(1, PhaseCommit, 0, 0, 10*time.Millisecond)
	tr.Record(2, PhaseCommit, 0, 0, 20*time.Millisecond)

	h := reg.Histogram(metrics.Name("algorand_trace_phase_seconds", "phase", "commit"), "", nil)
	if h.Count() != 2 {
		t.Fatalf("teed histogram count = %d, want 2", h.Count())
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `algorand_trace_phase_seconds_count{phase="commit"} 2`) {
		t.Fatalf("exposition missing teed series:\n%s", b.String())
	}
}

func TestJSONExport(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 0)
	tr.Record(3, PhaseBAStep, 4, 0, time.Second)

	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back []RoundTrace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Round != 3 || back[0].Spans[0].Step != 4 {
		t.Fatalf("round-trip = %+v", back)
	}
}

func TestStringDigest(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 0)
	if s := tr.String(); !strings.Contains(s, "no rounds") {
		t.Fatalf("empty digest = %q", s)
	}
	tr.Record(5, PhasePropose, 0, 0, 40*time.Millisecond)
	tr.Record(5, PhaseBAStep, 2, 40*time.Millisecond, 90*time.Millisecond)
	s := tr.String()
	if !strings.Contains(s, "round 5:") || !strings.Contains(s, "ba_step[2]=50ms") {
		t.Fatalf("digest = %q", s)
	}
}

// TestConcurrentRecord races recorders against readers; meaningful
// under -race.
func TestConcurrentRecord(t *testing.T) {
	clk := &fakeClock{}
	tr := New(clk.Now, 64)
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := uint64(w*500 + i)
				tr.Record(r, PhaseRound, 0, 0, time.Duration(i)*time.Microsecond)
				tr.Record(r, PhaseCommit, 0, 0, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = tr.Rounds()
			_ = tr.String()
			_ = tr.ChainedDurations(PhaseRound, PhaseCommit)
		}
	}()
	wg.Wait()
	<-done

	h := reg.Histogram(metrics.Name("algorand_trace_phase_seconds", "phase", "round"), "", nil)
	if h.Count() != 8*500 {
		t.Fatalf("teed round count = %d, want %d", h.Count(), 8*500)
	}
	if got := len(tr.Rounds()); got != 64 {
		t.Fatalf("retained %d rounds, want 64 (ring cap)", got)
	}
}

// Package trace records per-round span timelines for the node: every
// phase a round passes through — sortition/assembly, proposal wait,
// each BA⋆ step, certification, commit, persist — as a (start, end)
// span on the node's clock, which is virtual time under the simulator
// and wall time in real deployments.
//
// The motivation is the same as internal/metrics: the paper's claims
// are about *where the time goes* (Figure 7 decomposes a round into
// proposal, BA⋆ and final confirmation; §10.2's pipelining argument is
// entirely about which phases could overlap), and the CADP-style formal work on
// BA⋆ models rounds as sequences of timed steps. A per-round,
// per-phase event record is the substrate both need: experiments and
// the perf ledger (bench/) pull percentile tables out of it, and an
// operator can diff a slow round against a healthy one span by span.
//
// A Tracer is cheap and bounded: recording is one mutex-guarded append
// (rounds arrive at human timescales — hundreds of spans per second at
// the very most), memory is capped by a ring of the most recent rounds,
// and aggregate per-phase histograms can be teed into a
// metrics.Registry so long-horizon percentiles survive ring eviction.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"algorand/internal/metrics"
)

// Phase names one stage of a round's lifecycle. The canonical sequence
// is Sortition → Propose → BAStep* → Certify → Commit → Persist,
// though empty or recovered rounds may skip stages.
type Phase string

const (
	// PhaseSortition covers proposer sortition plus block assembly (the
	// work a would-be proposer does before gossiping anything).
	PhaseSortition Phase = "sortition"
	// PhasePropose covers waiting for block proposals (§6): from round
	// start until the highest-priority block is in hand.
	PhasePropose Phase = "propose"
	// PhaseBAStep is one BA⋆ vote-counting step (reduction, binary, or
	// final); the span's Step field carries the wire step number.
	PhaseBAStep Phase = "ba_step"
	// PhaseCertify covers BA⋆'s conclusion to the commit: the agreed
	// block in hand, from a peer if the node lacks it (§7.1). The §7.4
	// final step that makes the round's certificate final counts after
	// the commit, and shows as its ba_step span.
	PhaseCertify Phase = "certify"
	// PhaseCommit covers applying the agreed block to the ledger.
	PhaseCommit Phase = "commit"
	// PhasePersist covers journaling the commit to the durable archive.
	PhasePersist Phase = "persist"
	// PhaseRound covers the whole round, start to committed.
	PhaseRound Phase = "round"
	// PhaseAssemble covers proposer block assembly alone (a sub-span of
	// sortition, reported separately because block assembly is the
	// txflow pipeline's hand-off point).
	PhaseAssemble Phase = "assemble"
	// PhaseBlockFetch covers pulling one proposed body (§6): from the
	// first neighbour's announce until its pieces are assembled and match
	// the announced hash. It lies inside PhasePropose and separates
	// waiting for a body from waiting out λ_priority.
	PhaseBlockFetch Phase = "block_fetch"
)

// Span is one timed phase of one round.
type Span struct {
	Phase Phase         `json:"phase"`
	Step  uint64        `json:"step,omitempty"` // BA⋆ wire step for ba_step spans
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// RoundTrace is the recorded timeline of one round.
type RoundTrace struct {
	Round uint64 `json:"round"`
	Spans []Span `json:"spans"`
}

// Tracer collects round traces on a caller-supplied clock. All methods
// are safe for concurrent use: in a real deployment the scheduler
// records while another goroutine (a harness, an operator's tooling)
// reads the rounds.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Duration
	wall    func() time.Duration
	cap     int
	order   []uint64 // ring of round numbers, oldest first
	rounds  map[uint64]*RoundTrace
	byPhase map[Phase]*metrics.Histogram
}

// New creates a tracer on the given clock keeping at most capRounds
// round traces (0 means a default of 1024). The clock must be safe to
// call from any goroutine that records.
func New(now func() time.Duration, capRounds int) *Tracer {
	if capRounds <= 0 {
		capRounds = 1024
	}
	epoch := time.Now()
	return &Tracer{
		now:     now,
		wall:    func() time.Duration { return time.Since(epoch) },
		cap:     capRounds,
		rounds:  make(map[uint64]*RoundTrace),
		byPhase: make(map[Phase]*metrics.Histogram),
	}
}

// WallNow reads the tracer's wall clock. Synchronous compute phases
// (block assembly, commit, persist) cost zero *virtual* time — the
// simulator only advances the clock for modeled waits — so recording
// them on the round clock collapses every span to 0. Spans recorded on
// WallNow instead measure real CPU time at microsecond resolution,
// making sub-millisecond phases visible in the percentile digests.
// Under a real deployment's wall-clock tracer the two clocks coincide.
func (t *Tracer) WallNow() time.Duration { return t.wall() }

// RegisterMetrics tees every recorded span into per-phase duration
// histograms (algorand_trace_phase_seconds{phase="..."}) in r, so
// long-horizon percentiles survive the trace ring's eviction.
func (t *Tracer) RegisterMetrics(r *metrics.Registry) {
	// Register before taking t.mu so the registry lock is never
	// acquired while a tracer lock is held.
	hists := make(map[Phase]*metrics.Histogram)
	for _, ph := range []Phase{PhaseSortition, PhaseAssemble, PhasePropose, PhaseBlockFetch, PhaseBAStep, PhaseCertify, PhaseCommit, PhasePersist, PhaseRound} {
		hists[ph] = r.Histogram(
			metrics.Name("algorand_trace_phase_seconds", "phase", string(ph)),
			"per-round phase latency by trace phase", nil)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for ph, h := range hists {
		t.byPhase[ph] = h
	}
}

// Record adds a completed span to a round's trace.
func (t *Tracer) Record(round uint64, phase Phase, step uint64, start, end time.Duration) {
	if end < start {
		end = start
	}
	t.mu.Lock()
	rt, ok := t.rounds[round]
	if !ok {
		rt = &RoundTrace{Round: round}
		t.rounds[round] = rt
		t.order = append(t.order, round)
		if len(t.order) > t.cap {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.rounds, evict)
		}
	}
	rt.Spans = append(rt.Spans, Span{Phase: phase, Step: step, Start: start, End: end})
	h := t.byPhase[phase]
	t.mu.Unlock()
	if h != nil {
		h.ObserveDuration(end - start)
	}
}

// Rounds returns a copy of every retained round trace, ordered by
// round.
func (t *Tracer) Rounds() []RoundTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RoundTrace, 0, len(t.order))
	for _, r := range t.order {
		rt := t.rounds[r]
		cp := RoundTrace{Round: rt.Round, Spans: append([]Span(nil), rt.Spans...)}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// ChainedDurations returns, per retained round, the time from the
// start of the first `from` span to the end of the last `to` span —
// e.g. commit-to-persist latency — skipping rounds missing either.
func (t *Tracer) ChainedDurations(from, to Phase) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, r := range t.order {
		var start, end time.Duration
		haveStart, haveEnd := false, false
		for _, s := range t.rounds[r].Spans {
			if s.Phase == from && (!haveStart || s.Start < start) {
				start, haveStart = s.Start, true
			}
			if s.Phase == to && (!haveEnd || s.End > end) {
				end, haveEnd = s.End, true
			}
		}
		if haveStart && haveEnd && end >= start {
			out = append(out, end-start)
		}
	}
	return out
}

// MarshalJSON exports the retained traces as a JSON array of rounds.
func (t *Tracer) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Rounds())
}

// String renders a compact one-line-per-round digest for operators.
func (t *Tracer) String() string {
	rounds := t.Rounds()
	if len(rounds) == 0 {
		return "trace: no rounds recorded"
	}
	var out string
	for _, rt := range rounds {
		out += fmt.Sprintf("round %d:", rt.Round)
		for _, s := range rt.Spans {
			if s.Phase == PhaseBAStep {
				out += fmt.Sprintf(" %s[%d]=%v", s.Phase, s.Step, s.Duration().Round(time.Millisecond))
			} else {
				out += fmt.Sprintf(" %s=%v", s.Phase, s.Duration().Round(time.Millisecond))
			}
		}
		out += "\n"
	}
	return out
}

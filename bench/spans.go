package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one request share Ref (workload/rep/round).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Ref     string  `json:"ref"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, which is how the untraced run calls the
// same code.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under parent (0 = none) and returns its id.
func (l *spanLog) begin(parent int, name, ref string) int {
	if l == nil {
		return 0
	}
	now := float64(time.Since(l.epoch)) / float64(time.Microsecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Ref: ref, StartUS: now})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := float64(time.Since(l.epoch)) / float64(time.Microsecond)
	l.mu.Lock()
	l.spans[id-1].EndUS = now
	l.mu.Unlock()
}

// spanTotals is the per-name digest written beside the raw spans: how
// often a call was made, its total time, and its self time (total minus
// the part its child spans cover).
type spanTotals struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (l *spanLog) totals() []spanTotals {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	childUS := make([]float64, len(l.spans)+1)
	for _, s := range l.spans {
		childUS[s.Parent] += s.EndUS - s.StartUS
	}
	byName := make(map[string]*spanTotals)
	for _, s := range l.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.EndUS - s.StartUS
		t.Calls++
		t.TotalUS += d
		t.SelfUS += d - childUS[s.ID]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalUS > out[j].TotalUS })
	return out
}

// ref renders a span reference.
func ref(workload string, rep int, round uint64) string {
	return fmt.Sprintf("%s/%d/%d", workload, rep, round)
}

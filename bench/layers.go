package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"algorand/internal/crypto"
	"algorand/internal/ledger"
	"algorand/internal/metrics"
	"algorand/internal/node"
	"algorand/internal/trace"
	"algorand/internal/txflow"
)

// run is everything one execution of a workload produced.
type run struct {
	e2e   map[string]float64 // end-to-end metrics by name
	layer map[string]float64 // per-layer read-outs by name
	// attempted/failed count the workload's operations (payments).
	attempted, failed int
	// samples records how many observations stand behind each pooled
	// timing, printed beside it.
	samples map[string]int
	// cpu is the process CPU spent inside the measured phase.
	cpu time.Duration
	// dump is what the traced run writes next to its spans: the
	// program's own round spans and registry snapshots.
	dump map[string]any
}

func newRun() *run {
	return &run{
		e2e:     make(map[string]float64),
		layer:   make(map[string]float64),
		samples: make(map[string]int),
		dump:    make(map[string]any),
	}
}

// meter brackets a workload's run phase: process CPU, allocation, GC
// cycles, peak RSS and — for the traced pass — the CPU profile behind the
// cpu_share rows.
type meter struct {
	prof *bytes.Buffer // nil when not profiling
	ms0  runtime.MemStats
	cpu0 time.Duration
}

func startMeter(profile bool) (*meter, error) {
	m := &meter{}
	if profile {
		m.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			return nil, fmt.Errorf("starting the CPU profile: %w", err)
		}
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	return m, nil
}

// stop ends the phase and books what it cost to r, per round committed.
func (m *meter) stop(r *run, rounds uint64) error {
	r.cpu = processCPU() - m.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.e2e["alloc_mb_per_round"] = float64(ms1.TotalAlloc-m.ms0.TotalAlloc) / (1 << 20) / float64(rounds)
	r.layer["runtime.cpu_s_per_round"] = r.cpu.Seconds() / float64(rounds)
	r.layer["runtime.gc_cycles"] = float64(ms1.NumGC - m.ms0.NumGC)
	if m.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return cpuShares(m.prof.Bytes(), r.layer)
}

// roundEnds indexes a node's round ends by round.
func roundEnds(stats []node.RoundStat) map[uint64]time.Duration {
	ends := make(map[uint64]time.Duration, len(stats))
	for _, st := range stats {
		ends[st.Round] = st.End
	}
	return ends
}

// nodeView is the exported surface of one live node after a run: what
// the program already publishes, read from outside.
type nodeView struct {
	id     int
	stats  []node.RoundStat
	tracer *trace.Tracer
	reg    *metrics.Registry
}

// counter reads a counter out of a registry snapshot.
func counter(s metrics.Snapshot, name string) float64 { return s[name].Value }

// roundTimings fills the end-to-end round metrics and the per-layer
// read-outs that come from RoundStat, the node tracers and the node
// registries, pooled over the given live nodes and rounds from..to.
// wallClock says the nodes ran on wall-clock schedulers.
func roundTimings(r *run, views []nodeView, from, to uint64, wallClock bool) {
	var round, prio, wait, baTotal, finalStep []time.Duration
	final := 0
	for _, v := range views {
		for _, st := range v.stats {
			if st.Round < from || st.Round > to || st.End == 0 {
				continue
			}
			round = append(round, st.End-st.Start)
			if st.PriorityLearned >= st.Start {
				prio = append(prio, st.PriorityLearned-st.Start)
			}
			wait = append(wait, st.ProposalDone-st.Start)
			baTotal = append(baTotal, st.BinaryDone-st.ProposalDone)
			finalStep = append(finalStep, st.End-st.BinaryDone)
			if st.Final && !st.Empty {
				final++
			}
		}
	}
	attempted := len(views) * int(to-from+1)
	r.e2e["round_p50_s"] = quantile(seconds(round), 0.5)
	r.layer["node.round_p90_s"] = quantile(seconds(round), 0.9)
	r.e2e["final_round_share"] = ratio(float64(final), float64(attempted))
	r.samples["round"] = len(round)

	r.layer["blockprop.priority_learned_p50_s"] = median(seconds(prio))
	r.layer["blockprop.proposal_wait_p50_s"] = quantile(seconds(wait), 0.5)
	r.layer["blockprop.proposal_wait_p90_s"] = quantile(seconds(wait), 0.9)
	r.layer["agreement.ba_total_p50_s"] = median(seconds(baTotal))
	r.layer["agreement.final_step_p50_s"] = median(seconds(finalStep))

	// The program's own spans, pooled over nodes.
	phase := func(ph trace.Phase) []time.Duration {
		var out []time.Duration
		for _, v := range views {
			for _, rt := range v.tracer.Rounds() {
				if rt.Round < from || rt.Round > to {
					continue
				}
				for _, s := range rt.Spans {
					if s.Phase == ph {
						out = append(out, s.Duration())
					}
				}
			}
		}
		return out
	}
	steps := phase(trace.PhaseBAStep)
	r.layer["agreement.ba_step_p50_s"] = quantile(seconds(steps), 0.5)
	r.layer["agreement.ba_step_p90_s"] = quantile(seconds(steps), 0.9)
	r.samples["ba_step"] = len(steps)
	r.layer["node.sortition_us"] = median(micros(phase(trace.PhaseSortition)))
	r.layer["node.assemble_us"] = median(micros(phase(trace.PhaseAssemble)))
	r.layer["node.propose_p50_s"] = median(seconds(phase(trace.PhasePropose)))
	r.layer["node.certify_p50_s"] = median(seconds(phase(trace.PhaseCertify)))
	r.layer["node.commit_us"] = median(micros(phase(trace.PhaseCommit)))
	r.layer["node.persist_us"] = median(micros(phase(trace.PhasePersist)))
	var c2p []time.Duration
	for _, v := range views {
		c2p = append(c2p, v.tracer.ChainedDurations(trace.PhaseCommit, trace.PhasePersist)...)
	}
	r.layer["node.commit_to_persist_us"] = median(micros(c2p))
	// Layers ≈ round: the phases that follow one another on a node's
	// critical path, each at its median, over the median round. Commit
	// and persist are timed on the wall clock, so they lie on the round's
	// clock only under a wall-clock scheduler.
	covered := r.layer["node.propose_p50_s"] + r.layer["agreement.ba_total_p50_s"] +
		r.layer["node.certify_p50_s"]
	if wallClock {
		covered += (r.layer["node.commit_us"] + r.layer["node.persist_us"]) / 1e6
	}
	r.layer["node.phase_coverage"] = ratio(covered, r.e2e["round_p50_s"])

	// BA⋆ counters, summed over the nodes' registries.
	var stepsN, timeouts, counted, deduped float64
	snaps := make(map[int]metrics.Snapshot, len(views))
	for _, v := range views {
		s := v.reg.Snapshot()
		snaps[v.id] = s
		stepsN += counter(s, "algorand_ba_steps_total")
		timeouts += counter(s, "algorand_ba_step_timeouts_total")
		counted += counter(s, "algorand_ba_votes_counted_total")
		deduped += counter(s, "algorand_ba_votes_deduped_total")
	}
	nodeRounds := float64(len(views)) * float64(to)
	r.layer["agreement.steps_per_round"] = ratio(stepsN, nodeRounds)
	r.layer["agreement.step_timeout_share"] = ratio(timeouts, stepsN)
	r.layer["agreement.votes_counted_per_round"] = ratio(counted, nodeRounds)
	r.layer["agreement.votes_deduped_share"] = ratio(deduped, counted+deduped)

	r.dump["registry_node0"] = snaps[views[0].id]
	r.dump["round_spans_node0"] = views[0].tracer.Rounds()
}

// paymentMetrics walks node 0's chain and fills the payment metrics: a
// payment is confirmed at the end of the round that committed it on the
// node it was submitted to, which roundEnd reads on the load generator's
// clock (false if that node never closed the round: the payment then
// counts as failed). Throughput is the payload of rounds from..end,
// padding included, over window.
func paymentMetrics(r *run, l0 *ledger.Ledger, from uint64, sent map[crypto.Digest]sentTx, lateLimit, window time.Duration,
	roundEnd func(node int, rd uint64) (time.Duration, bool)) error {
	committed := make(map[crypto.Digest]bool, len(sent))
	var confirm []float64
	var payload int64
	late := 0
	for rd := uint64(1); rd <= l0.ChainLength(); rd++ {
		b, ok := l0.BlockAt(rd)
		if !ok {
			return fmt.Errorf("node 0 has no block at round %d", rd)
		}
		if rd >= from {
			payload += int64(len(b.Txns)*ledger.TxWireSize + b.PayloadPadding)
		}
		for i := range b.Txns {
			id := b.Txns[i].ID()
			s, ok := sent[id]
			if !ok || committed[id] {
				continue
			}
			committed[id] = true
			end, ok := roundEnd(s.node, rd)
			if !ok {
				continue
			}
			confirm = append(confirm, (end - s.due).Seconds())
			if end-s.due > lateLimit {
				late++
			}
		}
	}
	r.attempted = len(sent)
	r.failed = r.attempted - len(confirm)
	r.e2e["tx_confirm_p50_s"] = quantile(confirm, 0.5)
	r.layer["node.tx_confirm_p90_s"] = quantile(confirm, 0.9)
	r.e2e["committed_tx_share"] = ratio(float64(len(confirm)), float64(r.attempted))
	r.e2e["ontime_tx_share"] = ratio(float64(len(confirm)-late), float64(r.attempted))
	r.samples["tx_confirm"] = len(confirm)
	r.e2e["committed_mb_per_h"] = float64(payload) / (1 << 20) / window.Hours()
	return nil
}

// loadMetrics fills the load generator's own read-outs and txflow's, as
// node 0's pipeline counted them.
func loadMetrics(r *run, txPerSec float64, lateness []time.Duration, fs txflow.Stats) {
	r.layer["loadgen.offered_tx_per_s"] = txPerSec
	r.layer["loadgen.submitted"] = float64(r.attempted)
	r.layer["loadgen.lateness_p99_ms"] = quantile(seconds(lateness), 0.99) * 1e3
	r.layer["txflow.admitted_share"] = ratio(float64(fs.Admitted), float64(fs.Admitted+fs.Rejected()))
	r.layer["txflow.gossip_duplicate_share"] = ratio(float64(fs.Duplicate), float64(fs.Admitted+fs.Duplicate))
	r.layer["txflow.pending_at_end"] = float64(fs.Pending)
}

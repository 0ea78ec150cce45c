// experiments regenerates the paper's evaluation tables and figures
// (§10 and Figure 3) as TSV series on stdout. EXPERIMENTS.md records a
// reference run.
//
// Usage:
//
//	experiments -run all
//	experiments -run figure5 -users 2 -rounds 5
//	experiments -run nodecost -users 50,100,200,400,1000 -rounds 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"algorand/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment: figure3|figure5|figure6|figure7|figure8|throughput|costs|timeouts|steps|ablations|pipeline|coin|gateway|nodecost|all")
		users  = flag.String("users", "1", "user-count multiplier; for nodecost, the user counts to simulate, comma-separated")
		rounds = flag.Uint64("rounds", 3, "rounds per run")
	)
	flag.Parse()

	// nodecost measures the process, not the protocol: it is not part of
	// "all" and reads -users as a list of counts.
	if *run == "nodecost" {
		if err := nodeCost(*users, *rounds); err != nil {
			fmt.Fprintln(os.Stderr, "nodecost:", err)
			os.Exit(1)
		}
		return
	}
	mult, err := strconv.ParseFloat(*users, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-users %q is not a multiplier\n", *users)
		os.Exit(2)
	}
	scale := experiments.Scale{Users: mult, Rounds: *rounds}
	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	if want("figure3") {
		ran = true
		fmt.Println("# Figure 3: committee size vs honest fraction (violation <= 5e-9)")
		fmt.Println("h\ttau\tT")
		for _, p := range experiments.Figure3(experiments.DefaultFigure3Fractions()) {
			fmt.Printf("%.2f\t%d\t%.3f\n", p.HonestFraction, p.Tau, p.Threshold)
		}
		fmt.Println()
	}
	if want("figure5") {
		ran = true
		fmt.Println("# Figure 5: round latency vs users (dedicated bandwidth)")
		printLatency(experiments.Figure5(scale, experiments.DefaultFigure5Users()), "users")
	}
	if want("figure6") {
		ran = true
		fmt.Println("# Figure 6: round latency vs users (10 users share one VM NIC)")
		printLatency(experiments.Figure6(scale, experiments.DefaultFigure5Users(), 10), "users")
	}
	if want("figure7") {
		ran = true
		fmt.Println("# Figure 7: phase breakdown vs block size")
		fmt.Println("bytes\tproposal_med\tba_med\tfinal_med\ttotal_med")
		for _, p := range experiments.Figure7(scale, experiments.DefaultFigure7Sizes()) {
			fmt.Printf("%d\t%.2f\t%.2f\t%.2f\t%.2f\n", p.BlockSize,
				p.Phases.BlockProposal.Median.Seconds(),
				p.Phases.BAWithoutFinal.Median.Seconds(),
				p.Phases.FinalStep.Median.Seconds(),
				p.Phases.RoundCompletion.Median.Seconds())
		}
		fmt.Println()
	}
	if want("figure8") {
		ran = true
		fmt.Println("# Figure 8: round latency vs malicious fraction (equivocation attack)")
		printLatency(experiments.Figure8(scale, experiments.DefaultFigure8Fractions()), "malicious%")
	}
	if want("throughput") {
		ran = true
		fmt.Println("# Throughput vs Bitcoin (§10.2)")
		fmt.Println("system\tblock_bytes\tMB_per_hour\tconfirmation_med_s")
		for _, r := range experiments.ThroughputVsBitcoin(scale, []int{1 << 20, 2 << 20, 4 << 20}) {
			fmt.Printf("%s\t%d\t%.1f\t%.1f\n", r.System, r.BlockSize,
				r.MBytesPerHour, r.ConfLatencyMedian.Seconds())
		}
		fmt.Println()
	}
	if want("costs") {
		ran = true
		rep := experiments.Costs(scale)
		fmt.Println("# Costs (§10.3)")
		fmt.Printf("cpu_core_fraction_per_user\t%.4f\n", rep.CPUCoreFraction)
		fmt.Printf("bandwidth_mbps_per_user\t%.2f\n", rep.BandwidthMbps)
		fmt.Printf("certificate_kb\t%.0f\n", rep.CertificateKB)
		fmt.Printf("sharded_storage_kb_per_user_per_block\t%.1f\n", rep.StorageKBPerBlockSharded)
		fmt.Println()
	}
	if want("timeouts") {
		ran = true
		rep := experiments.TimeoutValidation(scale)
		fmt.Println("# Timeout validation (§10.5)")
		fmt.Printf("step_time\t%v\n", rep.StepTimes)
		fmt.Printf("completion_spread_p75_p25\t%v\n", rep.StepSpread)
		fmt.Printf("priority_propagation\t%v\n", rep.PriorityPropagation)
		fmt.Printf("timeout_fraction\t%.3f\n", rep.TimeoutFraction)
		fmt.Println()
	}
	if want("steps") {
		ran = true
		fmt.Println("# BinaryBA⋆ step counts (§4/§7 efficiency)")
		for _, mal := range []float64{0, 0.2} {
			rep := experiments.StepCounts(scale, mal)
			fmt.Printf("malicious=%.0f%%\thistogram=%v\tfinal_rate=%.2f\n",
				100*mal, rep.Histogram, rep.FinalRate)
		}
		fmt.Println()
	}
	if want("ablations") {
		ran = true
		fmt.Println("# Ablations (DESIGN.md)")
		for _, res := range []experiments.AblationResult{
			experiments.AblatePriorityGossip(scale),
			experiments.AblateVoteNext3(scale),
			experiments.AblateEquivocationDiscard(scale),
		} {
			fmt.Printf("%s\tbaseline_med=%.2fs\tablated_med=%.2fs\tbytes_ratio=%.2f\tempty: %.2f -> %.2f\n",
				res.Name,
				res.Baseline.Latency.Median.Seconds(), res.Ablated.Latency.Median.Seconds(),
				res.ExtraBytesFraction, res.Baseline.EmptyRate, res.Ablated.EmptyRate)
		}
		fmt.Println()
	}
	if want("pipeline") {
		ran = true
		res := experiments.PipelineThroughput(scale)
		fmt.Println("# Final-step pipelining (§10.2 optimization)")
		fmt.Printf("baseline_round_s\t%.2f\tfinal_rate\t%.2f\n",
			res.BaselineRoundTime.Seconds(), res.BaselineFinalRate)
		fmt.Printf("pipelined_round_s\t%.2f\tfinal_rate\t%.2f\tspeedup\t%.2fx\n",
			res.PipelinedRoundTime.Seconds(), res.PipelinedFinalRate, res.Speedup)
		fmt.Println()
	}
	if want("coin") {
		ran = true
		fmt.Println("# Common-coin ablation under the §7.4 vote-splitting adversary")
		res := experiments.RunCoinAblation(8, 42)
		fmt.Println(res.Summary())
		fmt.Println()
	}
	if want("gateway") {
		ran = true
		// 18 000 query sessions a virtual second is a million-plus over
		// the default run's ~65 s.
		rep := experiments.GatewayClientScale(scale, 100, 18000)
		fmt.Println("# Access tier: all client traffic through gateways vs direct submission")
		fmt.Printf("users\t%d\tgateways\t%d\trounds\t%d\toffered_tx_per_s\t%.0f\tquery_sessions_per_s\t%d\n",
			rep.Users, rep.Gateways, rep.Rounds, rep.OfferedTPS, rep.QuerySessionsPerSec)
		fmt.Printf("committed_txs\t%d\tMB_per_hour\t%.1f\tdirect_MB_per_hour\t%.1f\tratio\t%.2f\n",
			rep.CommittedTxs, rep.MBytesPerHour, rep.BaselineMBytesPerHour, rep.ThroughputRatio)
		fmt.Printf("client_sessions\t%d\tconsensus_client_sessions\t%d\tvirtual_s\t%.1f\n",
			rep.ClientSessions, rep.ConsensusClientSessions, rep.Elapsed.Seconds())
		fmt.Printf("load_driver\t%+v\n", rep.Workload)
		for i, st := range rep.GatewayStats {
			fmt.Printf("gateway_%d\tsessions=%d\tadmitted=%d\trouted=%d\tresent=%d\thead=%d\tpending=%d\tpending_bytes=%d\n",
				i, st.Sessions, st.Admitted, st.TxsRouted, st.Resent, st.HeadRound, st.Pending, st.PendingBytes)
		}
		fmt.Println()
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}

func printLatency(pts []experiments.LatencyPoint, xName string) {
	fmt.Printf("%s\tmin_s\tp25_s\tmed_s\tp75_s\tmax_s\tfinal_rate\tempty_rate\n", xName)
	for _, p := range pts {
		fmt.Printf("%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", p.Users,
			p.Latency.Min.Seconds(), p.Latency.P25.Seconds(), p.Latency.Median.Seconds(),
			p.Latency.P75.Seconds(), p.Latency.Max.Seconds(), p.FinalRate, p.EmptyRate)
	}
	fmt.Println()
}

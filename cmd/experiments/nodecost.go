package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"algorand/internal/experiments"
)

// nodeCost prints what simulating each of the given user counts costs
// this machine (ROADMAP item 3). Peak memory and CPU time belong to a
// process, so every count past the first runs in a fresh copy of this
// binary, whose one row is passed through.
func nodeCost(users string, rounds uint64) error {
	fmt.Println("# Simulator cost per node: the benchmark's sim-payments-1mb workload (τ 8/200/400, 1 MB blocks, 100 payments/s, seed 11) at N users")
	fmt.Println("users\trounds\tround_p50_s\tba_step_p50_s\tnet_mb_per_round\talloc_mb_per_round\tpeak_rss_mb\tcpu_s_per_round\tsetup_s\tfinal_rate")
	counts := strings.Split(users, ",")
	for _, field := range counts {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 2 {
			return fmt.Errorf("-users %q: want user counts, comma-separated", users)
		}
		if len(counts) == 1 {
			nodeCostRow(n, rounds)
			return nil
		}
		child := exec.Command(os.Args[0], "-run", "nodecost", "-users", strconv.Itoa(n), "-rounds", strconv.FormatUint(rounds, 10))
		child.Stderr = os.Stderr
		out, err := child.Output()
		if err != nil {
			// The table keeps the rows that fit; the one that did not is
			// named with what ended it (a kill by the kernel's OOM
			// handler reads "signal: killed").
			fmt.Printf("%d\t%d\tfailed: %v\n", n, rounds, err)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Println(lines[len(lines)-1])
	}
	return nil
}

// nodeCostRow runs one user count in this process and prints its row.
func nodeCostRow(n int, rounds uint64) {
	cpu0, _ := processUsage()
	p := experiments.NodeCost(n, rounds, 11)
	cpu, peakRSSMB := processUsage()
	fmt.Printf("%d\t%d\t%.2f\t%.3f\t%.1f\t%.1f\t%.0f\t%.2f\t%.4f\t%.2f\n", p.Users, p.Rounds,
		p.RoundP50S, p.BAStepP50S, p.NetBytesPerRound/(1<<20), p.AllocMBPerRound,
		peakRSSMB, (cpu-cpu0).Seconds()/float64(rounds), p.SetupS, p.FinalRate)
}

// processUsage is the user and system CPU time this process has used and
// its high-water resident set (getrusage; Linux counts ru_maxrss in KB).
// A failed call reads as zero.
func processUsage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

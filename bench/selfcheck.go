package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// virtualClock lists the end-to-end metrics that are read on the
// workload's scheduler clock or are counts: on a virtual-time workload
// two runs of one seed must agree on them exactly.
var virtualClock = map[string]bool{
	"round_p50_s": true, "tx_confirm_p50_s": true, "committed_mb_per_h": true, "committed_tx_share": true, "ontime_tx_share": true,
	"final_round_share": true,
}

// runChild runs one workload in a fresh process of this same binary and
// returns the result line it printed.
func runChild(o options, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", "0", "--out", o.outDir}
	if o.toy {
		args = append(args, "--toy")
	}
	cmd := exec.Command(exe, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: reading the result line: %w", workload, seed, err)
	}
	return &res, nil
}

// selfCheckSeeds is how many seeds each of the two sets runs: ten, as
// the acceptance check of the benchmark's bounds does, because quartiles
// of fewer values say little.
const selfCheckSeeds = 10

// verdict holds one end-to-end metric's two sets (a[i] and b[i] ran the
// same seed) against its bound. A metric fails when a virtual-time
// reading differs at all between two runs of one seed, when it reads 0,
// or when the sets' medians differ by more than the bound; it is
// unresolved when either set's own spread exceeds the bound, because a
// later difference of that size could not be told from noise.
func verdict(d metricDecl, virtual bool, a, b []float64) (text string, failed bool) {
	if virtual && virtualClock[d.name] {
		for i := range a {
			if a[i] != b[i] {
				return fmt.Sprintf("FAIL: virtual-time metric differs between two runs of one seed (%v, %v)", a[i], b[i]), true
			}
		}
	}
	ma, mb := median(a), median(b)
	switch {
	case ma == 0 || mb == 0:
		return "FAIL: an end-to-end metric must not read 0", true
	case math.Abs(mb-ma)/ma > d.bound:
		return "FAIL: medians differ beyond the bound", true
	case math.Max(quartileSpread(a), quartileSpread(b)) > d.bound:
		return "unresolved: spread exceeds the bound", false
	}
	return "ok", false
}

// selfCheck runs every workload (or the one named) in two sets back to
// back, each set one fresh process per seed on seeds seed, seed+1, …,
// prints per metric both medians, their difference, the larger of the
// two sets' spreads and the bound, and returns the exit code: non-zero
// if any metric failed its verdict.
func selfCheck(o options) int {
	started := time.Now()
	failed := false
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		wStart := time.Now()
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < selfCheckSeeds; i++ {
				res, err := runChild(o, w.name, o.seed+int64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%s clock, 2 sets of %d seeds from %d, %.0f s)\n", w.name, w.clock, selfCheckSeeds, o.seed, time.Since(wStart).Seconds())
		fmt.Printf("  %-20s %14s %14s %9s %9s %7s  %s\n", "metric", "set 1", "set 2", "diff", "spread", "bound", "verdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			text, bad := verdict(d, w.clock == "virtual", a, b)
			failed = failed || bad
			ma, mb := median(a), median(b)
			fmt.Printf("  %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %6.0f%%  %s\n", d.name, ma, mb,
				100*ratio(mb-ma, ma), 100*math.Max(quartileSpread(a), quartileSpread(b)), 100*d.bound, text)
		}
	}
	fmt.Printf("total %.0f s\n", time.Since(started).Seconds())
	if failed {
		return 1
	}
	return 0
}

// Command bench is the repository's one performance ledger: five
// workloads, nine end-to-end metrics and a per-layer budget, all
// measured from outside the program through the public functions of
// internal/* and the statistics it already exports. See README.md.
//
//	bash bench/run.sh --workload sim-payments-1mb --seed 11 --seconds 10 --trace 0
//
// prints, as the last line of standard output, one JSON object with the
// run's correctness verdict and metrics. Everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	toy      bool
	// outDir receives trace files and holds the run's scratch data.
	outDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	o.seed = defaultSeed
	flag.Func("seed", fmt.Sprintf("seed of the cluster and the load generator, any 64-bit integer (default %d; a claim must also hold from the hold-out seed %d)",
		defaultSeed, holdOutSeed), func(v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			// An unsigned 64-bit seed keeps its bits.
			var u uint64
			u, err = strconv.ParseUint(v, 10, 64)
			n = int64(u)
		}
		o.seed = n
		return err
	})
	flag.IntVar(&o.seconds, "seconds", 10, "measuring time the workload is sized for")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans and CPU profile")
	flag.BoolVar(&o.toy, "toy", false, "toy sizes (the smoke test's)")
	selfcheck := flag.Bool("selfcheck", false, "run two ten-seed sets of every workload (or of -workload) and hold them against the bounds")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	flag.Parse()
	o.trace = trace != 0

	if *selfcheck {
		os.Exit(selfCheck(o))
	}
	out, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.endToEnd}
	if o.trace {
		res.Metrics = out.perLayer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// outcome is what one invocation measured: the end-to-end metrics of
// the plain run and, when tracing, the per-layer metrics of the traced
// run that followed it.
type outcome struct {
	endToEnd, perLayer map[string]metric
	attempted, failed  int
}

// execute runs one workload as one invocation does: untraced for the
// end-to-end metrics, then — when tracing — once more with spans and a
// CPU profile, so the per-layer metrics come with the tracing overhead.
// A run that fails its correctness gate returns an error and no metrics.
func execute(o options) (*outcome, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	started := time.Now()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "tmp-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Probes go first, while the process is still small and quiet.
	var spans *spanLog
	var probes map[string]probeRow
	if o.trace {
		spans = newSpanLog()
		if probes, err = runProbes(o.seed, o.toy, filepath.Join(scratch, "probes"), spans); err != nil {
			return nil, err
		}
	}
	plain, err := runWorkload(o, filepath.Join(scratch, "plain"), nil, false)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: plain.attempted, failed: plain.failed}
	if out.endToEnd, err = declared(endToEnd, plain.e2e, o.workload); err != nil {
		return nil, err
	}
	if o.trace {
		runtime.GC()
		debug.FreeOSMemory()
		traced, err := runWorkload(o, filepath.Join(scratch, "traced"), spans, true)
		if err != nil {
			return nil, err
		}
		traced.layer["bench.trace_overhead_share"] = ratio((traced.cpu - plain.cpu).Seconds(), plain.cpu.Seconds())
		for name, row := range probes {
			traced.layer[name] = row.Value
		}
		if out.perLayer, err = declared(perLayer, traced.layer, o.workload); err != nil {
			return nil, err
		}
		if err := writeTrace(o, traced, probes, spans, started); err != nil {
			return nil, err
		}
	}
	report(o, plain, out, started)
	return out, nil
}

// declared renders exactly the declared metrics, with their units, and
// fails if the run left one of them out.
func declared(decls []metricDecl, values map[string]float64, workload string) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", workload, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// runWorkload dispatches on the workload's name. A traced invocation
// reports no end-to-end metric, so neither of its passes spends the
// set-up window: they build the deployment setupMinReps times and go on.
func runWorkload(o options, dir string, spans *spanLog, profile bool) (*run, error) {
	if o.workload == "realnet-loopback" {
		spec := realSpecFor(o.seconds, o.toy)
		if o.trace {
			spec.setupBudget = 0
		}
		return runRealnet(spec, o.seed, dir, spans, profile)
	}
	spec, ok := simSpecFor(o.workload, o.seconds, o.toy)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace {
		spec.setupBudget = 0
	}
	return runSim(spec, o.seed, dir, spans, profile)
}

// runRecord describes the machine and the run, so a number can be
// traced back to where it was taken.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Toy        bool    `json:"toy,omitempty"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	WallS      float64 `json:"wall_s"`
}

func newRunRecord(o options, started time.Time) runRecord {
	return runRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Toy: o.toy,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: os.Getenv("BENCH_COMMIT"), WallS: time.Since(started).Seconds(),
	}
}

// report prints the human-readable account of a run on standard error.
func report(o options, plain *run, out *outcome, started time.Time) {
	rec := newRunRecord(o, started)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d nproc=%d GOMAXPROCS=%d %s commit=%s wall=%.1fs\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.WallS)
	fmt.Fprintf(os.Stderr, "bench: samples: %d node-rounds, %d confirmed payments; %.4g CPU s per round\n",
		plain.samples["round"], plain.samples["tx_confirm"], plain.layer["runtime.cpu_s_per_round"])
	for _, d := range endToEnd {
		m := out.endToEnd[d.name]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	if out.perLayer == nil {
		return
	}
	for _, d := range perLayer {
		m := out.perLayer[d.name]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Run     runRecord           `json:"run"`
	Layer   map[string]float64  `json:"per_layer"`
	Probes  map[string]probeRow `json:"probes"`
	Totals  []spanTotals        `json:"span_totals"`
	Program map[string]any      `json:"program"`
	Spans   []span              `json:"spans"`
}

func writeTrace(o options, traced *run, probes map[string]probeRow, spans *spanLog, started time.Time) error {
	tf := traceFile{
		Run: newRunRecord(o, started), Layer: traced.layer, Probes: probes,
		Totals: spans.totals(), Program: traced.dump, Spans: spans.spans,
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace-"+o.workload+".json"), data, 0o644)
}

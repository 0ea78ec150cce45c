package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesDeclarations pins BENCHMARK.json to the tables the
// program emits from: same workloads with the same reasons, same metric
// names, units, directions and bounds, all within the contract's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := m.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming limits", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q [%s] breaks the naming limits or repeats", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s metric %q has direction %q", kind, d.name, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s metric %q: bound %v in BENCHMARK.json, %v in the program, want (0, 0.25]", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %q must not carry a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("setup_s [s, lower] must be an end-to-end metric")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// TestWorkloadsAtToySize runs every workload, plain and traced, at toy
// size (one after the other: a process has one CPU profiler): each
// passes its correctness gate, emits every declared metric
// once with its unit, reports no end-to-end metric as 0, splits its CPU
// profile into shares that sum to 1, and leaves a trace file.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: defaultSeed, seconds: 10, trace: true, toy: true, outDir: t.TempDir()}
			out, err := execute(o)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%d of %d payments failed", out.failed, out.attempted)
			}
			for _, d := range endToEnd {
				m, ok := out.endToEnd[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("end-to-end metric %s missing or in unit %q, want %q", d.name, m.Unit, d.unit)
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, m.Value)
				}
			}
			if len(out.endToEnd) != len(endToEnd) || len(out.perLayer) != len(perLayer) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
					len(out.endToEnd), len(out.perLayer), len(endToEnd), len(perLayer))
			}
			shares := 0.0
			for _, d := range perLayer {
				m, ok := out.perLayer[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s missing or in unit %q, want %q", d.name, m.Unit, d.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer metric %s = %v", d.name, m.Value)
				}
				if strings.HasSuffix(d.name, ".cpu_share") {
					shares += m.Value
				}
			}
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("cpu shares sum to %v, want 1 ± 0.02", shares)
			}
			if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestLayerOf pins the package → layer bucketing of the CPU profile.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"algorand/internal/ledger.(*Ledger).Commit":              "ledger",
		"algorand/internal/ledger/diskstore.(*Store).Append":     "diskstore",
		"algorand/internal/crypto/edwards.(*Point).ScalarMult":   "crypto",
		"algorand/internal/realnet/netfault.(*Conn).Read":        "realnet",
		"algorand/internal/binomial.Select":                      "sortition",
		"algorand/internal/blockprop.Propose":                    "other",
		"algorand/internal/cache.(*TwoGen[go.shape.string]).Get": "other",
		"crypto/internal/edwards25519/field.feMul":               "crypto",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithoutKeySmallFastStr": "runtime",
		"encoding/json.(*decodeState).object":                    "other",
		"main.runSim":                                            "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		sample []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},                                    // quartiles 2.75, 5.5, 8.25
		{[]float64{10, 10.5, 9.5, 11, 12, 10.2, 10.1, 9.9, 10.3, 30}, 0.12439024390243907}, // 9.975, 10.25, 11.25
		{[]float64{5, 1, 4, 2}, 1.1666666666666667},                                        // 1.25, 3, 4.75
		{[]float64{7, 7, 7, 7, 7}, 0},
	} {
		if got := quartileSpread(c.sample); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.sample, got, c.want)
		}
	}
}

// TestVerdict walks the self-check's verdicts: what fails, what is only
// unresolved, and that set-up time gets no exemption from either.
func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shifted := make([]float64, len(steady))
	nudged := append([]float64(nil), steady...)
	nudged[4] += 1e-9
	for i, v := range steady {
		shifted[i] = 1.3 * v
	}
	noisy := []float64{10, 14, 7, 10, 15, 6, 10, 13, 8, 10}
	lower := func(name string, bound float64) metricDecl {
		return metricDecl{name: name, unit: "s", better: "lower", bound: bound}
	}
	for _, c := range []struct {
		what    string
		d       metricDecl
		virtual bool
		a, b    []float64
		prefix  string
		failed  bool
	}{
		{"two equal sets", lower("round_p50_s", 0.25), true, steady, steady, "ok", false},
		{"a virtual-time reading that moved", lower("round_p50_s", 0.25), true, steady, nudged, "FAIL: virtual-time", true},
		{"the same on a wall clock", lower("round_p50_s", 0.25), false, steady, nudged, "ok", false},
		{"a wall metric of a virtual workload", lower("peak_rss_mb", 0.25), true, steady, nudged, "ok", false},
		{"medians apart beyond the bound", lower("peak_rss_mb", 0.25), false, steady, shifted, "FAIL: medians", true},
		{"medians apart within the bound", lower("peak_rss_mb", 0.35), false, steady, shifted, "ok", false},
		{"a spread beyond the bound", lower("peak_rss_mb", 0.25), false, noisy, noisy, "unresolved", false},
		{"set-up time spreading beyond its bound", lower("setup_s", 0.25), false, steady, noisy, "unresolved", false},
		{"a metric that reads 0", lower("peak_rss_mb", 0.25), false, make([]float64, 10), steady, "FAIL: an end-to-end metric must not read 0", true},
	} {
		text, failed := verdict(c.d, c.virtual, c.a, c.b)
		if !strings.HasPrefix(text, c.prefix) || failed != c.failed {
			t.Errorf("%s: verdict %q (failed %v), want %q… (failed %v)", c.what, text, failed, c.prefix, c.failed)
		}
	}
}

// TestProbeRefusalFailsTheProbe: a probe whose operation the layer
// refuses must not come back with a number.
func TestProbeRefusalFailsTheProbe(t *testing.T) {
	calls := 0
	_, err := timeOps(nil, func() error {
		if calls++; calls > 3 {
			return errRefused
		}
		return nil
	})
	if !errors.Is(err, errRefused) {
		t.Fatalf("timeOps returned %v, want the operation's refusal", err)
	}
}

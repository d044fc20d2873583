// Command perfbench is the repository benchmark: it drives the simulator
// and its HTTP service through their public functions, checks every
// output, and prints each end-to-end metric (or, with --trace 1, each
// per-layer metric) by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-up --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, every metric and how the
// layer metrics map onto the end-to-end ones.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// print order. BENCHMARK.json declares the same set (pinned by a test).
var endToEnd = []metricDef{
	{"sim_kips", "kinst/s"},
	{"run_cold_ms_p50", "ms"},
	{"op_ms_p50", "ms"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// metricLine is one measured value; note carries the sample count or the
// quantity's kind (simulated or host) for the human-readable listing.
type metricLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	reasons           []string
	metrics           []metricLine
	// spans is the traced run's span set, written out at exit.
	spans *tracer
}

// fail counts a failed or incorrect operation, keeping the first reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.reasons) < 8 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(name string, value float64, unit, note string) {
	o.metrics = append(o.metrics, metricLine{name, value, unit, note})
}

// runConfig is the benchmark's command line as the workloads see it.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// record rewrites this workload and seed's recorded digests
	// instead of checking them.
	record bool
}

// dur returns the measuring time, split evenly between the untraced and
// the traced half in a traced run.
func (rc runConfig) dur() time.Duration {
	d := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		d /= 2
	}
	return d
}

// rounds turns the untraced half's measuring time into a count of sweep
// rounds that each take about per on the reference host.
func (rc runConfig) rounds(per time.Duration) int {
	return max(1, int(math.Round(float64(rc.dur())/float64(per))))
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	run       func(ctx context.Context, rc runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"sweep-up", "the paper's design-study use: six Table 1 variants x {SPECint95, SPECfp95, TPC-C} on the detailed UP core", runSweepUp},
	{"smp-oltp", "TPC-C at 4P and 16P: the only workload where coherence, the snoop bus and DRAM contention work", runSMPOLTP},
	{"service-mix", "open-loop HTTP mix of run-cache hits, analytic estimates and cold sampled runs through a gateway", runServiceMix},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-up, smp-oltp or service-mix")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "measuring time in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
		record  = flag.Bool("record", false, "rewrite perfbench/digests.json for this workload and seed")
		trend   = flag.Bool("trend", false, "print the trend table of perfbench/history and exit")
	)
	flag.Parse()
	if *trend {
		if err := printTrend(os.Stdout, historyDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, record: *record}
	if err := run(wl, rc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func run(wl *workloadDef, rc runConfig) error {
	// A run never exceeds its measuring time by more than set-up and the
	// layer probes; the deadline only stops a hung simulation.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var prof bytes.Buffer
	if rc.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
	}
	out, err := wl.run(ctx, rc)
	if rc.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if rc.trace {
		if err := addProfileShares(out, prof.Bytes()); err != nil {
			return err
		}
		if out.spans != nil {
			path := fmt.Sprintf(".bench_build/perfbench/spans-%s-seed%d.jsonl", wl.name, rc.seed)
			if err := out.spans.write(path); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "spans: %s\n", path)
		}
	} else {
		out.add("peak_rss_mb", peakRSSMB(), "MiB", "host")
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	return emit(os.Stdout, out, want)
}

// addProfileShares folds the traced run's CPU profile by package into
// host.<group>_share metrics.
func addProfileShares(out *outcome, gz []byte) error {
	fold, other, err := foldProfile(gz)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(other))
	for n := range other {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return other[names[i]] > other[names[j]] })
	for _, n := range names[:min(len(names), 5)] {
		fmt.Printf("# host other: %-60s %8.3f s\n", n, float64(other[n])/1e9)
	}
	var total int64
	for _, v := range fold {
		total += v
	}
	for _, g := range profileGroups {
		share := 0.0
		if total > 0 {
			share = float64(fold[g]) / float64(total)
		}
		out.add("host."+g+"_share", share, "ratio", fmt.Sprintf("host CPU profile, %.2fs sampled", float64(total)/1e9))
	}
	return nil
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric in want order, with its unit and note, then
// the result line. A metric the run did not produce is a benchmark bug.
func emit(w *os.File, out *outcome, want []metricDef) error {
	byName := make(map[string]metricLine, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.name] = m
	}
	metrics := make(map[string]jsonMetric, len(want))
	var missing []string
	for _, d := range want {
		m, ok := byName[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if m.unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.unit, d.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %-8s %s\n", d.Name, m.value, d.Unit, m.note)
		metrics[d.Name] = jsonMetric{Value: m.value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, r := range out.reasons {
		fmt.Fprintln(w, "FAILED:", r)
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

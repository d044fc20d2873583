package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, program reports %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestCheckCatchesInjectedFaults proves the correctness check has teeth:
// the cache index-bit fault must fail sweep-up and the dropped-invalidation
// fault must fail smp-oltp at a seed with recorded digests, while the
// unfaulted runs pass.
func TestCheckCatchesInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full sweeps")
	}
	rc := runConfig{seed: 1, seconds: 0.001}
	for _, c := range []struct {
		name   string
		run    func(context.Context, runConfig) (*outcome, error)
		arm    func()
		disarm func()
	}{
		{"sweep-up", runSweepUp, func() { cache.InjectFault(cache.FaultIndexBits) }, func() { cache.InjectFault(cache.FaultNone) }},
		{"smp-oltp", runSMPOLTP, func() { coherence.InjectFault(coherence.FaultDropInvalidate) }, func() { coherence.InjectFault(coherence.FaultNone) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := loadDigests()
			if err != nil {
				t.Fatal(err)
			}
			pts := sweepUpPoints()
			if c.name == "smp-oltp" {
				pts = smpPoints()
			}
			if len(d.Runs[digestKey(c.name, rc.seed, schedule(pts))]) == 0 {
				t.Fatalf("no recorded digests for %s seed %d", c.name, rc.seed)
			}
			clean, err := c.run(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if clean.failed != 0 {
				t.Fatalf("unfaulted %s failed %d of %d: %v", c.name, clean.failed, clean.attempted, clean.reasons)
			}
			c.arm()
			faulty, err := c.run(context.Background(), rc)
			c.disarm()
			if err != nil {
				t.Fatal(err)
			}
			if faulty.failed == 0 {
				t.Fatalf("faulted %s passed every check", c.name)
			}
			t.Logf("faulted %s: %d of %d operations failed, first: %s", c.name, faulty.failed, faulty.attempted, faulty.reasons[0])
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
	}
	st := selfTimes(spans)
	if got := st["root"].Self; got != 40 { // 100 - |[10,60] ∪ [90,100]|
		t.Errorf("root self = %d, want 40", got)
	}
	if got := st["a"].Self; got != 30 {
		t.Errorf("a self = %d, want 30", got)
	}
}

func TestFoldProfile(t *testing.T) {
	for fn, want := range map[string]string{
		"sparc64v/internal/cpu.(*CPU).Tick":                        "cpu",
		"sparc64v/internal/sched.MapCtx[go.shape.struct {}].func1": "other",
		"sparc64v/internal/runcache.(*Cache).Get":                  "runcache",
		"net/http.(*conn).serve":                                   "net_http",
		"runtime.mallocgc":                                         "runtime",
		"encoding/json.(*decodeState).object":                      "json",
		"main.runSweep":                                            "other",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := range 1000 {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	fold, _, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range fold {
		total += v
	}
	if total <= 0 {
		t.Fatalf("folded profile is empty: %v (x=%d)", fold, x)
	}
}

package system

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func sources(p workload.Profile, n int, insts int) []trace.Source {
	gens := workload.NewMP(p, 42, n)
	out := make([]trace.Source, n)
	for i, g := range gens {
		out[i] = trace.NewLimitSource(g, insts)
	}
	return out
}

func runUP(t *testing.T, cfg config.Config, p workload.Profile, insts int) Report {
	t.Helper()
	cfg.WarmupInsts = uint64(insts / 5)
	sys, err := New(cfg, sources(p, 1, insts))
	if err != nil {
		t.Fatal(err)
	}
	if _, capped, _ := sys.RunContext(context.Background(), 50_000_000); capped {
		t.Fatalf("run hit the cycle cap: %v", sys.CPU(0))
	}
	return sys.Report(p.Name)
}

func TestNewValidates(t *testing.T) {
	cfg := config.Base()
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("New accepted 0 sources for 1 CPU")
	}
	cfg.CPUs = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestUPBaseSPECint(t *testing.T) {
	r := runUP(t, config.Base(), workload.SPECint95(), 40000)
	ipc := r.IPC()
	if ipc < 0.2 || ipc > 3.5 {
		t.Fatalf("SPECint95 IPC = %.3f out of plausible range", ipc)
	}
	if r.Committed == 0 || r.Cycles == 0 {
		t.Fatal("empty report")
	}
	if r.BranchFailureRate() <= 0 || r.BranchFailureRate() > 0.5 {
		t.Fatalf("branch failure rate = %.4f", r.BranchFailureRate())
	}
	if s := r.String(); !strings.Contains(s, "IPC=") {
		t.Errorf("report string: %q", s)
	}
}

func TestUPBaseTPCC(t *testing.T) {
	r := runUP(t, config.Base(), workload.TPCC(), 40000)
	if r.IPC() <= 0 {
		t.Fatal("zero IPC")
	}
	// TPC-C must show real L2 pressure (its data set is far beyond 2MB).
	if r.L2DemandMissRate() < 0.02 {
		t.Errorf("TPC-C L2 demand miss rate %.4f suspiciously low", r.L2DemandMissRate())
	}
	// And a much worse L1I story than SPEC.
	spec := runUP(t, config.Base(), workload.SPECint95(), 40000)
	if r.L1IMissRate() <= spec.L1IMissRate() {
		t.Errorf("TPC-C L1I miss %.4f not above SPECint95 %.4f",
			r.L1IMissRate(), spec.L1IMissRate())
	}
	if r.IPC() >= spec.IPC() {
		t.Errorf("TPC-C IPC %.3f not below SPECint95 %.3f", r.IPC(), spec.IPC())
	}
}

func TestPerfectLaddersImprove(t *testing.T) {
	base := runUP(t, config.Base(), workload.TPCC(), 30000)
	pl2 := runUP(t, config.Base().WithPerfect(config.Perfect{L2: true}),
		workload.TPCC(), 30000)
	pl1 := runUP(t, config.Base().WithPerfect(config.Perfect{L2: true, L1: true, TLB: true}),
		workload.TPCC(), 30000)
	pall := runUP(t, config.Base().WithPerfect(config.Perfect{L2: true, L1: true, TLB: true, Branch: true}),
		workload.TPCC(), 30000)
	if !(pall.IPC() >= pl1.IPC() && pl1.IPC() >= pl2.IPC() && pl2.IPC() > base.IPC()) {
		t.Errorf("perfect ladder not monotone: base=%.3f pL2=%.3f pL1=%.3f pAll=%.3f",
			base.IPC(), pl2.IPC(), pl1.IPC(), pall.IPC())
	}
}

func TestSMPRuns(t *testing.T) {
	cfg := config.Base().WithCPUs(4)
	cfg.WarmupInsts = 2000
	sys, err := New(cfg, sources(workload.TPCC16P(), 4, 15000))
	if err != nil {
		t.Fatal(err)
	}
	if _, capped, _ := sys.RunContext(context.Background(), 50_000_000); capped {
		t.Fatal("SMP run hit the cycle cap")
	}
	r := sys.Report("TPC-C(4P)")
	if len(r.CPUs) != 4 {
		t.Fatalf("report has %d CPUs", len(r.CPUs))
	}
	for i := range r.CPUs {
		if r.CPUs[i].Core.Committed == 0 {
			t.Errorf("CPU %d committed nothing", i)
		}
	}
	// Sharing must generate coherence traffic.
	if r.Coherence.CacheTransfers == 0 && r.Coherence.Invalidations == 0 {
		t.Errorf("no coherence activity in a shared-data SMP run: %+v", r.Coherence)
	}
}

func TestSMPCoherenceInvariantSpotCheck(t *testing.T) {
	cfg := config.Base().WithCPUs(2)
	cfg.WarmupInsts = 0
	sys, err := New(cfg, sources(workload.TPCC16P(), 2, 8000))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunContext(context.Background(), 20_000_000)
	// Spot-check shared-region lines for MOESI invariant violations.
	base := uint64(0x4000_0000_0000)
	for off := uint64(0); off < 1<<20; off += 4096 {
		if !sys.Controller().CheckCoherence(base + off) {
			t.Fatalf("coherence invariant violated at %#x", base+off)
		}
	}
}

func TestFlatMemoryFidelityDiffers(t *testing.T) {
	flat := config.Base()
	flat.Fidelity.FlatMemory = true
	flat.Fidelity.FlatMemoryCycles = 30
	flat.Fidelity.BusContention = false
	flat.Fidelity.CoherenceTiming = false
	rFlat := runUP(t, flat, workload.TPCC(), 25000)
	rFull := runUP(t, config.Base(), workload.TPCC(), 25000)
	// The flat 30-cycle memory hides the real L2-miss cost: it must report
	// clearly higher performance than the detailed model — the paper's
	// core argument for modeling the memory system in detail.
	if rFlat.IPC() <= rFull.IPC()*1.05 {
		t.Errorf("flat-memory IPC %.3f not clearly above detailed %.3f",
			rFlat.IPC(), rFull.IPC())
	}
}

// Determinism: identical runs produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	a := runUP(t, config.Base(), workload.SPECfp95(), 20000)
	b := runUP(t, config.Base(), workload.SPECfp95(), 20000)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/instrs",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

func TestPrefetchHelpsStreams(t *testing.T) {
	with := runUP(t, config.Base(), workload.SPECfp2000(), 30000)
	without := runUP(t, config.Base().WithoutPrefetch(), workload.SPECfp2000(), 30000)
	if with.IPC() <= without.IPC() {
		t.Errorf("prefetch IPC %.3f not above no-prefetch %.3f",
			with.IPC(), without.IPC())
	}
	if with.L2DemandMissRate() >= without.L2DemandMissRate() {
		t.Errorf("prefetch demand miss rate %.4f not below no-prefetch %.4f",
			with.L2DemandMissRate(), without.L2DemandMissRate())
	}
}

func TestSummaryJSON(t *testing.T) {
	r := runUP(t, config.Base(), workload.SPECint95(), 20000)
	s := r.Summary()
	if s.IPC <= 0 || s.CPI <= 0 || s.Committed == 0 {
		t.Fatalf("summary: %+v", s)
	}
	if len(s.PerCPU) != 1 {
		t.Fatalf("PerCPU: %d", len(s.PerCPU))
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ipc"`, `"l2_demand_miss_rate"`, `"per_cpu"`, `"stall_rs"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("JSON does not parse: %v", err)
	}
}

// TestRunContextCancellation covers the global cycle loop's cancellation
// point: a pre-cancelled context stops the run before any cycle, a mid-run
// cancel stops within one poll stride, and the partial report still
// snapshots consistently.
func TestRunContextCancellation(t *testing.T) {
	cfg := config.Base()
	sys, err := New(cfg, sources(workload.SPECint95(), 1, 200_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cycles, capped, cerr := sys.RunContext(ctx, 0)
	if !errors.Is(cerr, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v", cerr)
	}
	if cycles != 0 || capped {
		t.Fatalf("pre-cancelled run simulated %d cycles (capped=%v)", cycles, capped)
	}

	// Mid-run: a deadline that fires while the simulation is in flight.
	sys, err = New(cfg, sources(workload.SPECint95(), 1, 5_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	_, capped, cerr = sys.RunContext(ctx2, 0)
	if cerr != nil {
		if !errors.Is(cerr, context.DeadlineExceeded) {
			t.Fatalf("mid-run RunContext err = %v", cerr)
		}
		if capped {
			t.Fatal("cancelled run reported the cycle cap")
		}
		// The partial state must still be reportable.
		r := sys.Report("partial")
		if r.Cycles != sys.Cycle() {
			t.Fatalf("partial report cycles=%d, system at %d", r.Cycles, sys.Cycle())
		}
	}
	// (If the host finished 5M instructions inside 30ms, the run completing
	// with cerr == nil is also correct.)
}

// TestRunContextUncancelledMatchesRun guards determinism: a live context
// that never fires (the loop stops at every poll stride to check it) must
// simulate exactly the same machine as a context that cannot fire.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := config.Base()
	a, err := New(cfg, sources(workload.TPCC(), 1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, sources(workload.TPCC(), 1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	ca, cappedA, _ := a.RunContext(context.Background(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb, cappedB, cerr := b.RunContext(ctx, 0)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if ca != cb || cappedA != cappedB {
		t.Fatalf("Run (%d,%v) vs RunContext (%d,%v) diverge", ca, cappedA, cb, cappedB)
	}
	ra, rb := a.Report("x"), b.Report("x")
	if ra.String() != rb.String() {
		t.Fatalf("reports diverge:\n%s\n%s", ra.String(), rb.String())
	}
}

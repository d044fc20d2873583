package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func testOpt() RunOptions { return RunOptions{Insts: 60_000} }

func TestNewModelValidates(t *testing.T) {
	bad := config.Base()
	bad.CPUs = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("NewModel accepted invalid config")
	}
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Name != "sparc64v.base" {
		t.Errorf("Config().Name = %q", m.Config().Name)
	}
}

func TestRunDefaults(t *testing.T) {
	m, _ := NewModel(config.Base())
	r, err := m.RunContext(context.Background(), workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 || r.HitCap {
		t.Fatalf("bad report: %+v", r)
	}
	if r.Workload != "SPECint95" {
		t.Errorf("Workload = %q", r.Workload)
	}
}

func TestRunSourcesMismatch(t *testing.T) {
	m, _ := NewModel(config.Base().WithCPUs(2))
	_, err := m.RunSourcesContext(context.Background(), "x", []trace.Source{workload.New(workload.SPECint95(), 1, 0)}, testOpt())
	if err == nil {
		t.Fatal("RunSources accepted wrong source count")
	}
}

func TestBreakdownSharesSane(t *testing.T) {
	m, _ := NewModel(config.Base())
	br, err := m.BreakdownContext(context.Background(), workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	b := br.Breakdown
	if b.Core <= 0 || b.Sum() < 0.9 || b.Sum() > 1.1 {
		t.Fatalf("breakdown malformed: %+v (sum=%v)", b, b.Sum())
	}
	// Perfect-ization must be monotone in cycles.
	if !(br.Base.MeasuredCycles() >= br.PerfectL2.MeasuredCycles() &&
		br.PerfectL2.MeasuredCycles() >= br.PerfectL1.MeasuredCycles() &&
		br.PerfectL1.MeasuredCycles() >= br.PerfectAll.MeasuredCycles()) {
		t.Fatalf("perfect ladder not monotone: %d %d %d %d",
			br.Base.MeasuredCycles(), br.PerfectL2.MeasuredCycles(),
			br.PerfectL1.MeasuredCycles(), br.PerfectAll.MeasuredCycles())
	}
}

// The headline workload contrasts of Figure 7 must hold: TPC-C is
// dominated by L2-miss (sx) stalls; SPECfp95 by core execution; SPECint95
// spends far more on branches than SPECfp95.
func TestBreakdownWorkloadContrasts(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{Insts: 120_000}
	tpcc, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := m.BreakdownContext(context.Background(), workload.SPECfp95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ints, err := m.BreakdownContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if tpcc.Breakdown.SX < 0.25 {
		t.Errorf("TPC-C sx share %.2f too small", tpcc.Breakdown.SX)
	}
	if tpcc.Breakdown.SX <= ints.Breakdown.SX || tpcc.Breakdown.SX <= fp.Breakdown.SX {
		t.Error("TPC-C sx share not the largest")
	}
	if fp.Breakdown.Core < 0.55 {
		t.Errorf("SPECfp95 core share %.2f too small", fp.Breakdown.Core)
	}
	if ints.Breakdown.Branch < 3*fp.Breakdown.Branch {
		t.Errorf("SPECint95 branch share %.2f not ≫ SPECfp95 %.2f",
			ints.Breakdown.Branch, fp.Breakdown.Branch)
	}
}

func TestVersionsLadder(t *testing.T) {
	vs := Versions()
	if len(vs) != 8 {
		t.Fatalf("got %d versions", len(vs))
	}
	for i, v := range vs {
		if !strings.HasPrefix(v.Name, "v") || v.Detail == "" {
			t.Errorf("version %d malformed: %+v", i, v)
		}
		cfg := v.Apply(config.Base())
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", v.Name, err)
		}
	}
	// v1 is flat-memory; v8 is full fidelity.
	if !vs[0].Apply(config.Base()).Fidelity.FlatMemory {
		t.Error("v1 not flat memory")
	}
	v8 := vs[7].Apply(config.Base())
	if v8.Fidelity != config.FullFidelity() || !v8.CPU.SpecialDetailed {
		t.Error("v8 not full fidelity")
	}
	// v5 switches special-instruction modeling on.
	if vs[4].Apply(config.Base()).CPU.SpecialDetailed != true ||
		vs[3].Apply(config.Base()).CPU.SpecialDetailed != false {
		t.Error("v5 boundary wrong")
	}
}

// The ladder's defining property: estimates tighten (cycles grow) with
// fidelity, except the v5 correction which removes pessimism.
func TestVersionEstimatesTrend(t *testing.T) {
	opt := RunOptions{Insts: 80_000, Seed: 7}
	var cycles []uint64
	for _, v := range Versions() {
		m, err := NewModel(v.Apply(config.Base()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunContext(context.Background(), workload.SPECint2000(), opt)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		cycles = append(cycles, r.MeasuredCycles())
	}
	// v1 (flat, idealized) must estimate the highest performance.
	for i := 1; i < len(cycles); i++ {
		if cycles[0] > cycles[i] {
			t.Errorf("v1 cycles %d above v%d cycles %d", cycles[0], i+1, cycles[i])
		}
	}
	// v5 must run faster than v4 (pessimistic special penalty removed).
	if cycles[4] >= cycles[3] {
		t.Errorf("v5 cycles %d not below v4 %d", cycles[4], cycles[3])
	}
	// v8 (final) must be the slowest or near it.
	if cycles[7] < cycles[1] {
		t.Errorf("v8 cycles %d below v2 %d", cycles[7], cycles[1])
	}
}

func TestRunMany(t *testing.T) {
	m, _ := NewModel(config.Base())
	agg, err := m.RunManyContext(context.Background(), workload.SPECint95(), RunOptions{Insts: 30_000, Seed: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Reports) != 3 {
		t.Fatalf("reports: %d", len(agg.Reports))
	}
	if agg.MeanIPC <= 0 {
		t.Fatal("mean IPC not positive")
	}
	// Different seeds produce different samples (non-zero spread), but the
	// workload is statistically stable (spread well under the mean).
	if agg.StdIPC <= 0 || agg.StdIPC > agg.MeanIPC/4 {
		t.Errorf("IPC spread %.4f implausible for mean %.3f", agg.StdIPC, agg.MeanIPC)
	}
	// n < 1 clamps.
	one, err := m.RunManyContext(context.Background(), workload.SPECint95(), RunOptions{Insts: 20_000}, 0)
	if err != nil || len(one.Reports) != 1 || one.StdIPC != 0 {
		t.Fatalf("clamped RunMany: %v %d", err, len(one.Reports))
	}
}

// TestRunContextCancelPrompt is the model-level half of the run-lifecycle
// contract: cancelling mid-run surfaces ctx.Err() (wrapped) promptly
// instead of simulating to completion.
func TestRunContextCancelPrompt(t *testing.T) {
	m, _ := NewModel(config.Base())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// A run long enough that completion inside the test timeout would be
	// implausible on any host.
	_, err := m.RunContext(ctx, workload.SPECint95(), RunOptions{Insts: 200_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want wrapped context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestRunManyContextCancelled verifies the scheduled-seed fan-out stops
// handing out seeds once the context fires.
func TestRunManyContextCancelled(t *testing.T) {
	m, _ := NewModel(config.Base())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.RunManyContext(ctx, workload.SPECint95(), RunOptions{Insts: 40_000, Workers: 2}, 6)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunManyContext err = %v", err)
	}
}

// TestBreakdownContextMatchesBreakdown guards determinism under a live
// context that never fires: polling it must not change the study.
func TestBreakdownContextMatchesBreakdown(t *testing.T) {
	m, _ := NewModel(config.Base())
	a, err := m.BreakdownContext(context.Background(), workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := m.BreakdownContext(ctx, workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if a.Breakdown != b.Breakdown {
		t.Fatalf("Breakdown %+v vs BreakdownContext %+v", a.Breakdown, b.Breakdown)
	}
}

package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// batchNeighborhood is the 8-config sweep neighborhood the batching tests
// and benchmarks share: the base machine plus the paper's usual parameter
// excursions (issue width, BHT, L1, L2, prefetch, reservation stations).
func batchNeighborhood() []config.Config {
	base := config.Base()
	return []config.Config{
		base,
		base.WithIssueWidth(2),
		base.WithIssueWidth(6),
		base.WithSmallBHT(),
		base.WithSmallL1(),
		base.WithOffChipL2(4),
		base.WithoutPrefetch(),
		base.WithOneRS(),
	}
}

// reportBytes marshals a report for byte-level comparison.
func reportBytes(t *testing.T, r system.Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// runSerial runs each config through the ordinary serial path.
func runSerial(t *testing.T, cfgs []config.Config, p workload.Profile, opt RunOptions) []system.Report {
	t.Helper()
	out := make([]system.Report, len(cfgs))
	for i, cfg := range cfgs {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		out[i], err = m.RunContext(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
	}
	return out
}

// TestRunBatchMatchesSerial: a batched 8-config run must produce Reports
// byte-identical to 8 serial runs, for every uniprocessor workload.
func TestRunBatchMatchesSerial(t *testing.T) {
	cfgs := batchNeighborhood()
	opt := RunOptions{Insts: 20_000}
	for _, p := range workload.UPProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			serial := runSerial(t, cfgs, p, opt)
			reps, errs := RunBatch(context.Background(), cfgs, p, opt)
			for i := range cfgs {
				if errs[i] != nil {
					t.Fatalf("batch member %d: %v", i, errs[i])
				}
				if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
					t.Errorf("member %d (%s) batched report differs from serial\nbatched: %s\nserial:  %s",
						i, cfgs[i].Name, got, want)
				}
			}
		})
	}
}

// TestRunBatchSampledMatchesSerial: the sampled engine under the lockstep
// driver must execute the identical per-member action sequence.
func TestRunBatchSampledMatchesSerial(t *testing.T) {
	cfgs := batchNeighborhood()
	opt := RunOptions{
		Insts:  120_000,
		Sample: config.Sampling{IntervalInsts: 20_000, WarmupInsts: 1_000, MeasureInsts: 2_000},
	}
	p := workload.SPECint95()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched sampled report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchMPMatchesSerial: multiprocessor members share one fanout per
// CPU stream; coherence traffic must still evolve identically to serial.
func TestRunBatchMPMatchesSerial(t *testing.T) {
	base := config.Base().WithCPUs(2)
	cfgs := []config.Config{
		base,
		base.WithSmallL1(),
		base.WithIssueWidth(2),
		base.WithoutPrefetch(),
	}
	opt := RunOptions{Insts: 15_000}
	p := workload.TPCC16P()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched MP report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchSampledMPMatchesSerial: sampled + MP + batching compose.
func TestRunBatchSampledMPMatchesSerial(t *testing.T) {
	base := config.Base().WithCPUs(2)
	cfgs := []config.Config{base, base.WithSmallL1(), base.WithIssueWidth(2)}
	opt := RunOptions{
		Insts:  40_000,
		Sample: config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 2_000},
	}
	p := workload.TPCC16P()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched sampled MP report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchCancellation: cancelling mid-batch errors every unfinished
// member with the serial cancellation wrapping, and each partial report
// still satisfies fetched >= committed per CPU (the conservation invariant
// cancelled serial runs guarantee).
func TestRunBatchCancellation(t *testing.T) {
	cfgs := batchNeighborhood()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	defer cancel()
	reps, errs := RunBatch(ctx, cfgs, workload.SPECint95(), RunOptions{Insts: 400_000})
	cancelled := 0
	for i := range cfgs {
		if errs[i] == nil {
			continue // finished before the cancel landed
		}
		cancelled++
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("member %d err = %v, want context.Canceled", i, errs[i])
		}
		if !strings.Contains(errs[i].Error(), "cancelled") {
			t.Errorf("member %d err = %v", i, errs[i])
		}
		for c := range reps[i].CPUs {
			core := reps[i].CPUs[c].Core
			if core.Fetched < core.Committed {
				t.Errorf("member %d cpu%d fetched %d < committed %d", i, c, core.Fetched, core.Committed)
			}
		}
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation; nothing to assert")
	}
}

// TestRunBatchCacheSkip: members already in the run cache are served before
// streaming begins; simulated members are stored individually, so a second
// batch is all hits.
func TestRunBatchCacheSkip(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchNeighborhood()[:4]
	p := workload.SPECint95()
	opt := RunOptions{Insts: 20_000, Cache: cache}

	// Pre-warm exactly one member through the serial path.
	m, _ := NewModel(cfgs[2])
	pre, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	s0 := cache.Stats()

	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
	}
	if got, want := reportBytes(t, reps[2]), reportBytes(t, pre); got != want {
		t.Error("cache-served member differs from its pre-warmed report")
	}
	s1 := cache.Stats()
	if hits := s1.Hits() - s0.Hits(); hits != 1 {
		t.Errorf("first batch took %d cache hits, want 1", hits)
	}
	if miss := s1.Misses - s0.Misses; miss != 3 {
		t.Errorf("first batch recorded %d misses, want 3", miss)
	}

	// Second identical batch: every member served from cache, nothing runs.
	_, runs0 := func() (uint64, uint64) { _, _, r := Meter(); return 0, r }()
	reps2, errs2 := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs2[i] != nil {
			t.Fatalf("second batch member %d: %v", i, errs2[i])
		}
		if got, want := reportBytes(t, reps2[i]), reportBytes(t, reps[i]); got != want {
			t.Errorf("second batch member %d differs from first", i)
		}
	}
	s2 := cache.Stats()
	if hits := s2.Hits() - s1.Hits(); hits != 4 {
		t.Errorf("second batch took %d cache hits, want 4", hits)
	}
	_, _, runs1 := Meter()
	if runs1 != runs0 && s2.Misses != s1.Misses {
		t.Errorf("second batch simulated: misses %d -> %d", s1.Misses, s2.Misses)
	}
}

// TestRunBatchMixedCPUs: a member whose CPU count differs cannot share the
// per-CPU streams; it errors individually without sinking the batch.
func TestRunBatchMixedCPUs(t *testing.T) {
	cfgs := []config.Config{
		config.Base(),
		config.Base().WithCPUs(2),
		config.Base().WithSmallL1(),
	}
	p := workload.SPECint95()
	opt := RunOptions{Insts: 10_000}
	serial := []system.Report{}
	for _, i := range []int{0, 2} {
		m, _ := NewModel(cfgs[i])
		r, err := m.RunContext(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "CPUs") {
		t.Fatalf("mixed-CPU member err = %v", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("conforming members errored: %v, %v", errs[0], errs[2])
	}
	if got, want := reportBytes(t, reps[0]), reportBytes(t, serial[0]); got != want {
		t.Error("member 0 differs from serial")
	}
	if got, want := reportBytes(t, reps[2]), reportBytes(t, serial[1]); got != want {
		t.Error("member 2 differs from serial")
	}
}

// TestRunBatchSingleLive: with one live member the driver degrades to the
// ordinary serial path (nothing to amortize), still returning its report.
func TestRunBatchSingleLive(t *testing.T) {
	cfgs := []config.Config{config.Base()}
	p := workload.SPECint95()
	opt := RunOptions{Insts: 10_000}
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got, want := reportBytes(t, reps[0]), reportBytes(t, serial[0]); got != want {
		t.Error("single-member batch differs from serial")
	}
}

// TestBatchKey: sweep points that share a trace group together; anything
// that changes the trace or the schedule separates them.
func TestBatchKey(t *testing.T) {
	p := workload.SPECint95()
	opt := RunOptions{Insts: 20_000}
	k1, err := BatchKey(config.Base(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BatchKey(config.Base().WithSmallL1(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("config variation changed the batch key; variants could not batch")
	}
	for name, alt := range map[string]struct {
		cfg config.Config
		p   workload.Profile
		opt RunOptions
	}{
		"seed":     {config.Base(), p, RunOptions{Insts: 20_000, Seed: 7}},
		"insts":    {config.Base(), p, RunOptions{Insts: 30_000}},
		"profile":  {config.Base(), workload.SPECfp95(), opt},
		"cpus":     {config.Base().WithCPUs(2), p, opt},
		"sampling": {config.Base(), p, RunOptions{Insts: 20_000, Sample: config.Sampling{IntervalInsts: 10_000, MeasureInsts: 1_000}}},
	} {
		k, err := BatchKey(alt.cfg, alt.p, alt.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("%s variation did not change the batch key", name)
		}
	}
}

// TestStepMatchesRunContext: a machine driven by arbitrary Step chunks must
// land on the same terminal state as one driven by RunContext (the batch
// driver's correctness foundation). Step and RunContext share one drive
// loop that lets quiet CPUs sleep, so chunk boundaries fall inside sleeps:
// the 16P TPC-C case, where most CPUs sleep on memory most of the time,
// is cut at every cycle, at an odd stride and at the poll stride.
func TestStepMatchesRunContext(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    config.Config
		p      workload.Profile
		insts  int
		chunks []int
	}{
		{"up-specint95", config.Base(), workload.SPECint95(), 10_000, []int{1, 3, 17, 256, 1000}},
		{"16p-tpcc-1", config.Base().WithCPUs(16), workload.TPCC16P(), 1_500, []int{1}},
		{"16p-tpcc-7", config.Base().WithCPUs(16), workload.TPCC16P(), 1_500, []int{7}},
		{"16p-tpcc-4096", config.Base().WithCPUs(16), workload.TPCC16P(), 1_500, []int{4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := RunOptions{Insts: tc.insts}
			serial := runSerial(t, []config.Config{tc.cfg}, tc.p, opt)

			opt.defaults()
			cfg := tc.cfg
			cfg.WarmupInsts = opt.Warmup
			gens := workload.NewMP(tc.p, opt.Seed, cfg.CPUs)
			srcs := make([]trace.Source, len(gens))
			for i, g := range gens {
				srcs[i] = trace.NewLimitSource(g, opt.Insts)
			}
			sys, err := system.New(cfg, srcs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				n := tc.chunks[i%len(tc.chunks)]
				before := sys.Cycle()
				done, capped := sys.Step(n, opt.MaxCycles)
				if capped {
					t.Fatal("stepped run hit the cycle cap")
				}
				if got := sys.Cycle() - before; got > uint64(n) {
					t.Fatalf("Step(%d) advanced %d cycles", n, got)
				}
				if done {
					break
				}
			}
			r := sys.Report(tc.p.Name)
			if got, want := reportBytes(t, r), reportBytes(t, serial[0]); got != want {
				t.Error("stepped report differs from RunContext report")
			}
		})
	}
}

package metamorph

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// checkDiffSkipReplay: the system drive loop lets a CPU whose tick changed
// nothing sleep until its next event and jumps the clock over cycles on
// which every CPU sleeps, crediting the skipped cycles' counters in bulk
// (internal/system advance). Every report it produces must be
// byte-identical to a reference that ticks every CPU on every cycle. The
// cases cover the six Table 1 design variants on SPECint95, SPECfp95 and
// TPC-C, TPC-C at 4P and 16P on the base and off-chip-L2 machines (where
// snoops from other chips land on sleeping cores), and the switches that
// change which events exist: the fused reservation station, speculative
// dispatch off, and each perfect-ization rung.
func checkDiffSkipReplay(ctx context.Context, env *Env) (string, error) {
	type skipCase struct {
		cfg   config.Config
		p     workload.Profile
		insts int
	}
	var cases []skipCase
	base := env.Base
	variants := []config.Config{
		base,
		base.WithIssueWidth(2),
		base.WithSmallBHT(),
		base.WithSmallL1(),
		base.WithOffChipL2(1),
		base.WithoutPrefetch(),
	}
	for _, p := range []workload.Profile{workload.SPECint95(), workload.SPECfp95(), workload.TPCC()} {
		for _, cfg := range variants {
			cases = append(cases, skipCase{cfg, p, env.Insts})
		}
	}
	noSpec := base.WithName(base.Name + "-nospec")
	noSpec.CPU.SpeculativeDispatch = false
	switches := []config.Config{base.WithOneRS(), noSpec}
	switches = append(switches, core.BreakdownConfigs(base)[1:]...)
	for _, cfg := range switches {
		cases = append(cases, skipCase{cfg, workload.TPCC(), env.Insts})
	}
	// Per-CPU lengths keep each MP reference near one UP run's work.
	for _, cfg := range []config.Config{base, base.WithOffChipL2(1)} {
		cases = append(cases,
			skipCase{cfg.WithCPUs(4), workload.TPCC(), env.Insts / 4},
			skipCase{cfg.WithCPUs(16), workload.TPCC16P(), env.Insts / 8})
	}

	var bytesTotal int
	for _, c := range cases {
		opt := core.RunOptions{
			Insts:     c.insts,
			Seed:      env.Seed,
			Warmup:    uint64(c.insts / 5),
			MaxCycles: uint64(c.insts)*400 + 10_000_000,
			Workers:   1,
		}
		label := fmt.Sprintf("%s/%s(%dP)", c.cfg.Name, c.p.Name, c.cfg.CPUs)
		want, err := perCycleRun(ctx, c.cfg, c.p, opt)
		if err != nil {
			return "", fmt.Errorf("%s: per-cycle reference: %w", label, err)
		}
		m, err := core.NewModel(c.cfg)
		if err != nil {
			return "", err
		}
		opt.Obs = env.Obs
		// A core that sleeps past its last event never drains: the run
		// hits the cap, and that is a divergence, not a harness error.
		got, err := m.RunContext(ctx, c.p, opt)
		if err != nil && !got.HitCap {
			return "", err
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return "", err
		}
		gb, err := json.Marshal(got)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(gb, wb) {
			return "", violationf("%s: report differs from the per-cycle reference (cycles %d vs %d, committed %d vs %d)",
				label, got.Cycles, want.Cycles, got.Committed, want.Committed)
		}
		bytesTotal += len(wb)
	}
	return fmt.Sprintf("%d runs byte-identical to a per-cycle replay (%d bytes)", len(cases), bytesTotal), nil
}

// perCycleRun is diff-skip-replay's reference: the machine core.RunContext
// builds for (cfg, p, opt), driven by ticking every CPU on every cycle in
// index order, with RunContext's termination rule (the cycle cap is tested
// before the drain). opt must carry explicit Warmup and MaxCycles.
func perCycleRun(ctx context.Context, cfg config.Config, p workload.Profile, opt core.RunOptions) (system.Report, error) {
	cfg.WarmupInsts = opt.Warmup
	gens := workload.NewMP(p, opt.Seed, cfg.CPUs)
	srcs := make([]trace.Source, len(gens))
	for i, g := range gens {
		srcs[i] = trace.NewLimitSource(g, opt.Insts)
	}
	sys, err := system.New(cfg, srcs)
	if err != nil {
		return system.Report{}, err
	}
	var cycle uint64
	for ; cycle < opt.MaxCycles && !sys.Done(); cycle++ {
		if cycle%4096 == 0 && ctx.Err() != nil {
			return system.Report{}, ctx.Err()
		}
		for i := 0; i < cfg.CPUs; i++ {
			sys.CPU(i).Tick(cycle)
		}
	}
	r := sys.Report(p.Name)
	r.Cycles = cycle
	r.HitCap = cycle >= opt.MaxCycles
	return r, nil
}

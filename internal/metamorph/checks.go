package metamorph

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/cpu"
	"sparc64v/internal/isa"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/verif"
	"sparc64v/internal/workload"
)

// Tolerances. Monotonicity holds architecturally, but the compared runs
// differ in timing, and timing feeds back into the counters (speculative
// retries, prefetch triggers, bank-conflict replays), so rates can wiggle
// by a fraction of a percent without the model being wrong. The slack is
// far below any real bug's signature — the injected index-bit fault moves
// miss rates by whole percents.
const (
	// rateTol is the absolute slack on miss/failure-rate comparisons.
	rateTol = 0.003
	// ipcRelTol is the relative slack on IPC comparisons.
	ipcRelTol = 0.02
	// cycRelTol is the relative slack on cycle-count comparisons.
	cycRelTol = 0.01
	// sampledCPITol is the relative slack between a sampled run's CPI
	// estimate and the full run's CPI (the ISSUE's ε): systematic sampling
	// with functional warming should land well inside 5% on the stock
	// schedules.
	sampledCPITol = 0.05
	// trendDeadBand is the minimum relative CPI delta a config change must
	// produce in the full model before the sampled run's trend direction is
	// checked — below it the sign carries no signal and sampling noise could
	// legitimately flip it.
	trendDeadBand = 0.02
)

// Catalog returns the invariant catalog in display order.
func Catalog() []Check {
	return []Check{
		{
			Name: "mono-l1-size", Kind: "monotonicity",
			Detail: "128KB-2w L1s must not miss more than 32KB-1w L1s",
			Run:    checkMonoL1Size,
		},
		{
			Name: "mono-l2-ways", Kind: "monotonicity",
			Detail: "2MB-4w L2 must not miss more than 1MB-2w (same sets, LRU nesting)",
			Run:    checkMonoL2Ways,
		},
		{
			Name: "mono-bht", Kind: "monotonicity",
			Detail: "16K-4w BHT must not mispredict more than 4K-2w",
			Run:    checkMonoBHT,
		},
		{
			Name: "mono-issue-width", Kind: "monotonicity",
			Detail: "4-wide issue must not lower IPC below 2-wide",
			Run:    checkMonoIssueWidth,
		},
		{
			Name: "mono-perfect-ladder", Kind: "monotonicity",
			Detail: "each perfect-ization rung (Figure 7) must not add cycles",
			Run:    checkMonoPerfectLadder,
		},
		{
			Name: "conserve-counts", Kind: "conservation",
			Detail: "zero-warmup commit counts equal trace composition per class",
			Run:    checkConserveCounts,
		},
		{
			Name: "conserve-truncated", Kind: "conservation",
			Detail: "counters stay consistent when the run hits the cycle cap",
			Run:    checkConserveTruncated,
		},
		{
			Name: "conserve-mp", Kind: "conservation", FullOnly: true,
			Detail: "per-CPU counters balance on a 4P TPC-C run",
			Run:    checkConserveMP,
		},
		{
			Name: "diff-commit-stream", Kind: "differential",
			Detail: "OoO commit stream equals the trace and the reverse-tracer replay",
			Run:    checkDiffCommitStream,
		},
		{
			Name: "diff-cache-shadow", Kind: "differential",
			Detail: "LRU cache agrees access-by-access with an independent shadow model",
			Run:    checkDiffCacheShadow,
		},
		{
			Name: "diff-replay", Kind: "differential",
			Detail: "cache-served run reports are byte-identical to the cold run",
			Run:    checkDiffReplay,
		},
		{
			Name: "diff-batch-replay", Kind: "differential",
			Detail: "lockstep-batched run reports are byte-identical to serial runs",
			Run:    checkDiffBatchReplay,
		},
		{
			Name: "diff-skip-replay", Kind: "differential",
			Detail: "cycle-skipping run reports are byte-identical to a per-cycle replay",
			Run:    checkDiffSkipReplay,
		},
		{
			Name: "diff-reference-trend", Kind: "differential",
			Detail: "design-change direction agrees with the in-order reference model",
			Run:    checkDiffReferenceTrend,
		},
		{
			Name: "sampled-cpi", Kind: "differential",
			Detail: "sampled-mode CPI within 5% of the full run; config trends keep their sign",
			Run:    checkSampledCPI,
		},
		{
			Name: "conserve-stall-attribution", Kind: "conservation",
			Detail: "per-cause issue/fetch/zero-commit stall sums never exceed total cycles",
			Run:    checkConserveStallAttribution,
		},
		{
			Name: "analytic-residual", Kind: "differential",
			Detail: "analytic CPI within 10% of the detailed model; L1 ladder trends keep their sign",
			Run:    checkAnalyticResidual,
		},
		{
			Name: "tso-outcomes", Kind: "conformance",
			Detail: "litmus sweeps: no TSO-forbidden outcome, store-buffer witness observed",
			Run:    checkTSOOutcomes,
		},
	}
}

// ---- monotonicity ----

// pairCheck runs base and variant on every profile and applies assert to
// each metric pair.
func pairCheck(ctx context.Context, env *Env, variant config.Config,
	assert func(p workload.Profile, big, small reportIPC) error,
	describe func(big, small reportIPC) string) (string, error) {
	var details []string
	for _, p := range env.Profiles {
		big, err := env.run(ctx, env.Base, p)
		if err != nil {
			return "", err
		}
		small, err := env.run(ctx, variant, p)
		if err != nil {
			return "", err
		}
		if err := assert(p, big, small); err != nil {
			return "", err
		}
		details = append(details, fmt.Sprintf("%s: %s", p.Name, describe(big, small)))
	}
	return strings.Join(details, "; "), nil
}

func checkMonoL1Size(ctx context.Context, env *Env) (string, error) {
	return pairCheck(ctx, env, env.Base.WithSmallL1(),
		func(p workload.Profile, big, small reportIPC) error {
			if big.L1I > small.L1I+rateTol {
				return violationf("%s: L1I miss rate %.4f (128KB-2w) > %.4f (32KB-1w): larger cache misses more",
					p.Name, big.L1I, small.L1I)
			}
			if big.L1D > small.L1D+rateTol {
				return violationf("%s: L1D miss rate %.4f (128KB-2w) > %.4f (32KB-1w): larger cache misses more",
					p.Name, big.L1D, small.L1D)
			}
			return nil
		},
		func(big, small reportIPC) string {
			return fmt.Sprintf("l1d %.4f<=%.4f l1i %.4f<=%.4f",
				big.L1D, small.L1D, big.L1I, small.L1I)
		})
}

func checkMonoL2Ways(ctx context.Context, env *Env) (string, error) {
	// Prefetching is disabled on both sides: the prefetcher reacts to the
	// miss stream, so it would couple the two runs' access streams and blur
	// the pure capacity/associativity comparison. 2MB-4w and 1MB-2w have
	// the same 8192 sets, so LRU stack inclusion nests the miss sets.
	base := env.Base.WithoutPrefetch()
	small := base
	small.Mem.L2.SizeBytes = 1 << 20
	small.Mem.L2.Ways = 2
	small.Name += ".l2-1m-2w"
	var details []string
	for _, p := range env.Profiles {
		big, err := env.run(ctx, base, p)
		if err != nil {
			return "", err
		}
		sm, err := env.run(ctx, small, p)
		if err != nil {
			return "", err
		}
		if big.L2 > sm.L2+rateTol {
			return "", violationf("%s: L2 demand miss rate %.4f (2MB-4w) > %.4f (1MB-2w): larger cache misses more",
				p.Name, big.L2, sm.L2)
		}
		details = append(details, fmt.Sprintf("%s: l2 %.4f<=%.4f", p.Name, big.L2, sm.L2))
	}
	return strings.Join(details, "; "), nil
}

func checkMonoBHT(ctx context.Context, env *Env) (string, error) {
	return pairCheck(ctx, env, env.Base.WithSmallBHT(),
		func(p workload.Profile, big, small reportIPC) error {
			if big.BranchFail > small.BranchFail+rateTol {
				return violationf("%s: branch failure rate %.4f (16K-4w) > %.4f (4K-2w): larger BHT fails more",
					p.Name, big.BranchFail, small.BranchFail)
			}
			return nil
		},
		func(big, small reportIPC) string {
			return fmt.Sprintf("bpfail %.4f<=%.4f", big.BranchFail, small.BranchFail)
		})
}

func checkMonoIssueWidth(ctx context.Context, env *Env) (string, error) {
	return pairCheck(ctx, env, env.Base.WithIssueWidth(2),
		func(p workload.Profile, wide, narrow reportIPC) error {
			if wide.IPC < narrow.IPC*(1-ipcRelTol) {
				return violationf("%s: IPC %.3f (issue 4) < %.3f (issue 2): wider issue got slower",
					p.Name, wide.IPC, narrow.IPC)
			}
			return nil
		},
		func(wide, narrow reportIPC) string {
			return fmt.Sprintf("ipc %.3f>=%.3f", wide.IPC, narrow.IPC)
		})
}

func checkMonoPerfectLadder(ctx context.Context, env *Env) (string, error) {
	m, err := core.NewModel(env.Base)
	if err != nil {
		return "", err
	}
	rungs := []string{"base", "perfect-L2", "perfect-L1+TLB", "perfect-branch"}
	var details []string
	for _, p := range env.Profiles {
		bd, err := m.BreakdownContext(ctx, p, env.opts())
		if err != nil {
			return "", err
		}
		cycles := []uint64{
			bd.Base.MeasuredCycles(), bd.PerfectL2.MeasuredCycles(),
			bd.PerfectL1.MeasuredCycles(), bd.PerfectAll.MeasuredCycles(),
		}
		for i := 1; i < len(cycles); i++ {
			limit := float64(cycles[i-1]) * (1 + cycRelTol)
			if float64(cycles[i]) > limit {
				return "", violationf("%s: %s took %d cycles, more than %s's %d: removing stalls added time",
					p.Name, rungs[i], cycles[i], rungs[i-1], cycles[i-1])
			}
		}
		details = append(details, fmt.Sprintf("%s: %d>=%d>=%d>=%d cycles",
			p.Name, cycles[0], cycles[1], cycles[2], cycles[3]))
	}
	return strings.Join(details, "; "), nil
}

// ---- conservation ----

// collectTrace materializes the profile's per-CPU traces.
func collectTrace(p workload.Profile, seed int64, cpuIdx, insts int) []trace.Record {
	return trace.Collect(trace.NewLimitSource(workload.New(p, seed, cpuIdx), insts), insts)
}

// conserveReport applies the counter-balance invariants every run must
// satisfy, truncated or not.
func conserveReport(label string, r *system.Report) error {
	var sum uint64
	for i := range r.CPUs {
		c := &r.CPUs[i]
		if c.Core.Fetched < c.Core.Committed {
			return violationf("%s: cpu%d fetched %d < committed %d",
				label, i, c.Core.Fetched, c.Core.Committed)
		}
		var byClass uint64
		for _, n := range c.Core.CommittedByClass {
			byClass += n
		}
		if byClass != c.Core.Committed {
			return violationf("%s: cpu%d per-class commit sum %d != committed %d",
				label, i, byClass, c.Core.Committed)
		}
		for _, cs := range []struct {
			name string
			st   *cache.Stats
		}{{"L1I", &c.L1I}, {"L1D", &c.L1D}, {"L2", &c.L2}} {
			if cs.st.DemandMisses > cs.st.DemandAccesses {
				return violationf("%s: cpu%d %s demand misses %d > accesses %d",
					label, i, cs.name, cs.st.DemandMisses, cs.st.DemandAccesses)
			}
			if cs.st.PrefetchMisses > cs.st.PrefetchAccesses {
				return violationf("%s: cpu%d %s prefetch misses %d > accesses %d",
					label, i, cs.name, cs.st.PrefetchMisses, cs.st.PrefetchAccesses)
			}
		}
		sum += c.Core.Committed
	}
	if sum != r.Committed {
		return violationf("%s: per-CPU commit sum %d != report total %d", label, sum, r.Committed)
	}
	return nil
}

func checkConserveCounts(ctx context.Context, env *Env) (string, error) {
	var details []string
	for _, p := range env.Profiles {
		recs := collectTrace(p, env.Seed, 0, env.Insts)
		var want [isa.NumClasses]uint64
		for i := range recs {
			want[recs[i].Op]++
		}
		// Zero warmup so nothing is excluded from the counters; driven
		// through system.New directly because core treats Warmup 0 as
		// "default to Insts/5".
		cfg := env.Base
		cfg.CPUs = 1
		cfg.WarmupInsts = 0
		sys, err := system.New(cfg, []trace.Source{trace.NewSliceSource(recs)})
		if err != nil {
			return "", err
		}
		if _, capped, err := sys.RunContext(ctx, 0); err != nil {
			return "", err
		} else if capped {
			return "", fmt.Errorf("%s: run hit the cycle cap", p.Name)
		}
		r := sys.Report(p.Name)
		if r.Committed != uint64(len(recs)) {
			return "", violationf("%s: committed %d != trace length %d",
				p.Name, r.Committed, len(recs))
		}
		if got := r.CPUs[0].Core.CommittedByClass; got != want {
			return "", violationf("%s: per-class commits %v != trace composition %v",
				p.Name, got, want)
		}
		if err := conserveReport(p.Name, &r); err != nil {
			return "", err
		}
		details = append(details, fmt.Sprintf("%s: %d commits balanced", p.Name, r.Committed))
	}
	return strings.Join(details, "; "), nil
}

func checkConserveTruncated(ctx context.Context, env *Env) (string, error) {
	p := env.Profiles[0]
	recs := collectTrace(p, env.Seed, 0, env.Insts)
	cfg := env.Base
	cfg.CPUs = 1
	cfg.WarmupInsts = uint64(env.Insts / 10)
	sys, err := system.New(cfg, []trace.Source{trace.NewSliceSource(recs)})
	if err != nil {
		return "", err
	}
	// A cap of Insts/8 cycles cannot retire the whole trace (IPC would have
	// to exceed 8 on a 4-wide machine), so the run always truncates and the
	// invariants are exercised on a mid-flight snapshot.
	cap := uint64(env.Insts / 8)
	if _, capped, err := sys.RunContext(ctx, cap); err != nil {
		return "", err
	} else if !capped {
		return "", fmt.Errorf("%s: %d-cycle cap did not truncate the run", p.Name, cap)
	}
	r := sys.Report(p.Name)
	if r.Committed >= uint64(len(recs)) {
		return "", fmt.Errorf("%s: truncated run committed the whole trace", p.Name)
	}
	if err := conserveReport(p.Name+"(truncated)", &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: balanced at %d/%d commits after %d-cycle cap",
		p.Name, r.Committed, len(recs), cap), nil
}

func checkConserveMP(ctx context.Context, env *Env) (string, error) {
	cfg := env.Base.WithCPUs(4)
	m, err := core.NewModel(cfg)
	if err != nil {
		return "", err
	}
	opt := env.opts()
	opt.Insts = env.Insts / 2 // 4 CPUs: keep total simulated work bounded
	r, err := m.RunContext(ctx, workload.TPCC16P(), opt)
	if err != nil {
		return "", err
	}
	if err := conserveReport("TPC-C(4P)", &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("4 CPUs, %d commits balanced", r.Committed), nil
}

// ---- differential ----

func checkDiffCommitStream(ctx context.Context, env *Env) (string, error) {
	p := env.Profiles[0]
	recs := collectTrace(p, env.Seed, 0, env.Insts)

	// The reverse tracer must reconstruct the trace exactly: its replay is
	// the independent re-derivation of the instruction stream.
	prog, err := verif.FromTrace(trace.NewSliceSource(recs))
	if err != nil {
		return "", err
	}
	replayed := trace.Collect(prog.Replay(), len(recs)+1)
	if len(replayed) != len(recs) {
		return "", violationf("%s: replay length %d != trace length %d",
			p.Name, len(replayed), len(recs))
	}
	for i := range recs {
		if replayed[i] != recs[i] {
			return "", violationf("%s: replay diverges at instruction %d: %+v != %+v",
				p.Name, i, replayed[i], recs[i])
		}
	}

	// The OoO core must commit exactly the trace, in order, with the
	// trace's side effects (PC, class, effective address) — out-of-order
	// execution with in-order retirement is architecturally invisible.
	cfg := env.Base
	cfg.CPUs = 1
	cfg.WarmupInsts = 0
	sys, err := system.New(cfg, []trace.Source{trace.NewSliceSource(recs)})
	if err != nil {
		return "", err
	}
	type effect struct {
		pc, ea uint64
		op     isa.Class
	}
	var commits []effect
	sys.CPU(0).SetPipeTracer(func(e *cpu.PipeEvent) {
		commits = append(commits, effect{pc: e.PC, ea: e.EA, op: e.Op})
	})
	if _, capped, err := sys.RunContext(ctx, 0); err != nil {
		return "", err
	} else if capped {
		return "", fmt.Errorf("%s: run hit the cycle cap", p.Name)
	}
	if len(commits) != len(recs) {
		return "", violationf("%s: committed %d instructions, trace has %d",
			p.Name, len(commits), len(recs))
	}
	for i := range recs {
		want := effect{pc: recs[i].PC, ea: recs[i].EA, op: recs[i].Op}
		if commits[i] != want {
			return "", violationf("%s: commit stream diverges at instruction %d: got pc=%#x op=%v ea=%#x, trace has pc=%#x op=%v ea=%#x",
				p.Name, i, commits[i].pc, commits[i].op, commits[i].ea,
				want.pc, want.op, want.ea)
		}
	}
	return fmt.Sprintf("%s: %d commits match trace and replay", p.Name, len(recs)), nil
}

func checkDiffCacheShadow(ctx context.Context, env *Env) (string, error) {
	p := env.Profiles[0]
	recs := collectTrace(p, env.Seed, 0, env.Insts)
	var details []string
	// The base L1D geometry plus a small direct-mapped one: the latter
	// evicts constantly, stressing replacement where the big cache would
	// mostly just fill.
	geos := []struct {
		name string
		geo  config.CacheGeometry
	}{
		{"L1D-128k-2w", env.Base.L1D},
		{"L1D-32k-1w", env.Base.WithSmallL1().L1D},
		{"L1I-128k-2w", env.Base.L1I},
	}
	for _, g := range geos {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		real := cache.New(g.geo)
		shadow := newShadow(g.geo)
		instr := strings.HasPrefix(g.name, "L1I")
		n, hits := 0, 0
		for i := range recs {
			addr := recs[i].EA
			if instr {
				addr = recs[i].PC
			} else if recs[i].Op != isa.Load && recs[i].Op != isa.Store {
				continue
			}
			realHit := real.Access(addr) != nil
			if !realHit {
				real.Fill(addr, cache.Exclusive, false)
			}
			shadowHit := shadow.access(addr)
			if realHit != shadowHit {
				return "", violationf("%s: access %d (addr %#x) disagrees: cache says hit=%v, shadow model says hit=%v",
					g.name, n, addr, realHit, shadowHit)
			}
			n++
			if realHit {
				hits++
			}
		}
		if err := real.CheckInvariants(); err != nil {
			return "", violationf("%s: %v", g.name, err)
		}
		details = append(details, fmt.Sprintf("%s: %d/%d hits agree", g.name, hits, n))
	}
	return strings.Join(details, "; "), nil
}

func checkDiffReplay(ctx context.Context, env *Env) (string, error) {
	p := env.Profiles[0]
	dir, err := os.MkdirTemp("", "metamorph-runcache-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	m, err := core.NewModel(env.Base)
	if err != nil {
		return "", err
	}
	rc, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		return "", err
	}
	opt := env.opts()
	opt.Cache = rc
	cold, err := m.RunContext(ctx, p, opt)
	if err != nil {
		return "", err
	}
	memHit, err := m.RunContext(ctx, p, opt)
	if err != nil {
		return "", err
	}
	if s := rc.Stats(); s.Misses != 1 || s.MemoryHits != 1 {
		return "", fmt.Errorf("cache outcomes off: %+v (want 1 miss then 1 memory hit)", s)
	}
	// A second cache over the same directory has an empty memory tier, so
	// the third run must come off disk.
	rc2, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		return "", err
	}
	opt.Cache = rc2
	diskHit, err := m.RunContext(ctx, p, opt)
	if err != nil {
		return "", err
	}
	if s := rc2.Stats(); s.DiskHits != 1 {
		return "", fmt.Errorf("cache outcomes off: %+v (want 1 disk hit)", s)
	}
	want, err := json.Marshal(cold)
	if err != nil {
		return "", err
	}
	for _, tier := range []struct {
		name string
		rep  system.Report
	}{{"memory", memHit}, {"disk", diskHit}} {
		got, err := json.Marshal(tier.rep)
		if err != nil {
			return "", err
		}
		if !bytes.Equal(got, want) {
			return "", violationf("%s: %s-tier replay differs from the cold run", p.Name, tier.name)
		}
	}
	return fmt.Sprintf("%s: memory and disk replays byte-identical (%d bytes)",
		p.Name, len(want)), nil
}

// checkDiffBatchReplay is the lockstep-batching differential: core.RunBatch
// advances several configurations against one shared decoded trace stream,
// and every member's report must be byte-identical to the report its own
// serial RunContext produces — in full mode and in sampled mode, where the
// fast-forward/measure schedule also rides the shared rings. Any divergence
// means per-member state leaked across the batch or the shared frontend
// reordered the stream.
func checkDiffBatchReplay(ctx context.Context, env *Env) (string, error) {
	p := env.Profiles[0]
	cfgs := []config.Config{
		env.Base,
		env.Base.WithIssueWidth(2),
		env.Base.WithSmallBHT(),
		env.Base.WithoutPrefetch(),
	}
	// The sampled schedule scales with the trace so the check is valid at
	// both quick and full trace lengths: warmup+measure stays well under
	// the interval, which Sampling.Validate requires.
	interval := env.Insts / 4
	modes := []struct {
		name   string
		sample config.Sampling
	}{
		{"full", config.Sampling{}},
		{"sampled", config.Sampling{IntervalInsts: interval, WarmupInsts: interval / 8, MeasureInsts: interval / 4}},
	}
	var details []string
	for _, mode := range modes {
		opt := env.opts()
		opt.Sample = mode.sample
		batched, errs := core.RunBatch(ctx, cfgs, p, opt)
		var bytesTotal int
		for i, cfg := range cfgs {
			if errs[i] != nil {
				return "", errs[i]
			}
			m, err := core.NewModel(cfg)
			if err != nil {
				return "", err
			}
			serial, err := m.RunContext(ctx, p, opt)
			if err != nil {
				return "", err
			}
			want, err := json.Marshal(serial)
			if err != nil {
				return "", err
			}
			got, err := json.Marshal(batched[i])
			if err != nil {
				return "", err
			}
			if !bytes.Equal(got, want) {
				return "", violationf("%s/%s member %d (%s): batched report differs from serial run",
					p.Name, mode.name, i, cfg.Name)
			}
			bytesTotal += len(want)
		}
		details = append(details, fmt.Sprintf("%s: %d members byte-identical (%d bytes)",
			mode.name, len(cfgs), bytesTotal))
	}
	return strings.Join(details, "; "), nil
}

// sampledCheckSetup returns the trace length and schedule the sampled-cpi
// check compares on. The estimator's confidence bound scales with
// 1/sqrt(windows), so the check needs ~30 measurement windows to hold a 5%
// tolerance — the harness's quick-mode trace (50k) yields only a handful on
// any valid schedule. The check therefore runs its own, longer trace.
func sampledCheckSetup(envInsts int) (int, config.Sampling) {
	insts := envInsts
	if insts < 400_000 {
		insts = 400_000
	}
	interval := insts / 30
	measure := interval / 4
	if measure < 1_000 {
		measure = 1_000
	}
	return insts, config.Sampling{IntervalInsts: interval, WarmupInsts: 2_000, MeasureInsts: measure}
}

// fullAndSampledCPI runs profile p on cfg both ways and returns (full CPI,
// sampled CPI).
func fullAndSampledCPI(ctx context.Context, env *Env, cfg config.Config, p workload.Profile) (float64, float64, error) {
	m, err := core.NewModel(cfg)
	if err != nil {
		return 0, 0, err
	}
	opt := env.opts()
	opt.Insts, opt.Sample = sampledCheckSetup(env.Insts)
	full, err := m.RunContext(ctx, p, core.RunOptions{Insts: opt.Insts, Seed: opt.Seed, Obs: opt.Obs})
	if err != nil {
		return 0, 0, err
	}
	samp, err := m.RunContext(ctx, p, opt)
	if err != nil {
		return 0, 0, err
	}
	if samp.Sampling == nil || samp.Sampling.Windows == 0 {
		return 0, 0, fmt.Errorf("%s: sampled run reported no measurement windows", p.Name)
	}
	return 1 / full.IPC(), 1 / samp.IPC(), nil
}

// checkSampledCPI is the sampled-simulation differential: the fast-forward +
// detailed-window estimator (internal/core/sample.go) is an independent
// measurement path over the same model, so its CPI must agree with the full
// run within sampledCPITol on every workload — and a design change that
// moves the full model's CPI beyond the dead band must move the sampled
// estimate in the same direction, mirroring the paper's requirement that
// performance trends, not just absolute numbers, agree across models.
func checkSampledCPI(ctx context.Context, env *Env) (string, error) {
	var details []string
	fullBase := make([]float64, len(env.Profiles))
	sampBase := make([]float64, len(env.Profiles))
	for i, p := range env.Profiles {
		full, samp, err := fullAndSampledCPI(ctx, env, env.Base, p)
		if err != nil {
			return "", err
		}
		fullBase[i], sampBase[i] = full, samp
		relErr := (samp - full) / full
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > sampledCPITol {
			return "", violationf("%s: sampled CPI %.4f vs full %.4f: %.1f%% error exceeds %.0f%%",
				p.Name, samp, full, 100*relErr, 100*sampledCPITol)
		}
		details = append(details, fmt.Sprintf("%s: %.4f~%.4f", p.Name, samp, full))
	}
	// Trend agreement on the first profile: shrinking the L1s must slow the
	// sampled estimate whenever it slows the full model beyond the dead band.
	p := env.Profiles[0]
	fullVar, sampVar, err := fullAndSampledCPI(ctx, env, env.Base.WithSmallL1(), p)
	if err != nil {
		return "", err
	}
	fullDelta := fullVar - fullBase[0]
	sampDelta := sampVar - sampBase[0]
	switch {
	case fullDelta/fullBase[0] < trendDeadBand && fullDelta/fullBase[0] > -trendDeadBand:
		details = append(details, fmt.Sprintf("trend: flat (full delta %+.4f inside dead band)", fullDelta))
	case fullDelta*sampDelta <= 0:
		return "", violationf("%s: L1 shrink moves full CPI by %+.4f but sampled CPI by %+.4f: trend sign disagrees",
			p.Name, fullDelta, sampDelta)
	default:
		details = append(details, fmt.Sprintf("trend: %+.4f~%+.4f", sampDelta, fullDelta))
	}
	return strings.Join(details, "; "), nil
}

func checkDiffReferenceTrend(ctx context.Context, env *Env) (string, error) {
	// The L1 shrink keeps the base hit latencies (unlike WithSmallL1, whose
	// faster-but-smaller trade-off the in-order reference and the OoO model
	// legitimately weigh differently): a pure capacity loss must slow both
	// models, or at least never speed one up while slowing the other.
	smallL1 := env.Base.WithL1Capacity(32<<10, 1)
	changes := []struct {
		name    string
		variant config.Config
	}{
		{"issue width 4->2", env.Base.WithIssueWidth(2)},
		{"L1 shrink (iso-latency)", smallL1},
	}
	profiles := env.Profiles
	if len(profiles) > 2 {
		profiles = profiles[:2] // 4 simulations per (change, profile): bound it
	}
	var details []string
	for _, ch := range changes {
		for _, p := range profiles {
			tc, err := verif.RunTrendCheckContext(ctx, ch.name, env.Base, ch.variant, p, env.opts())
			if err != nil {
				return "", err
			}
			if !tc.Agree() {
				return "", violationf("%s on %s: model delta %+.4f, reference delta %+.4f: models disagree on the direction",
					ch.name, p.Name, tc.ModelDelta, tc.ReferenceDelta)
			}
			details = append(details, fmt.Sprintf("%s/%s: %+.3f~%+.3f",
				ch.name, p.Name, tc.ModelDelta, tc.ReferenceDelta))
		}
	}
	return strings.Join(details, "; "), nil
}

package verif

import (
	"context"
	"fmt"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/sched"
	"sparc64v/internal/stats"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// VersionPoint is one rung of the accuracy study: a model version's
// performance estimate and its error against the reference.
type VersionPoint struct {
	// Name is the version label ("v1".."v8").
	Name string
	// Detail describes the fidelity added.
	Detail string
	// IPC is the version's performance estimate.
	IPC float64
	// RatioToFinal is IPC relative to v8 (the upper Figure 19 graph is
	// plotted against v8's estimate).
	RatioToFinal float64
	// ErrorVsMachine is the signed relative error against the physical-
	// machine proxy (the lower Figure 19 graph).
	ErrorVsMachine float64
}

// AccuracyStudy is the Figure 19 reproduction for one workload.
type AccuracyStudy struct {
	// Workload names the trace.
	Workload string
	// MachineIPC is the physical-machine proxy's performance.
	MachineIPC float64
	// Points holds v1..v8.
	Points []VersionPoint
}

// FinalError returns |error| of the final model (v8) against the machine.
func (a *AccuracyStudy) FinalError() float64 {
	if len(a.Points) == 0 {
		return 0
	}
	e := a.Points[len(a.Points)-1].ErrorVsMachine
	if e < 0 {
		return -e
	}
	return e
}

// AnalyticRung places the grey-box analytic estimator (internal/analytic)
// below the fidelity ladder as a "v0" rung: the closed-form estimate's IPC
// scored against the same machine proxy and final model as the simulated
// versions. The paper's ladder starts at a trace-driven v1; the analytic
// tier sits beneath it — no simulation at all — and this rung shows how
// much accuracy that costs. The study must already hold v1..v8; an error
// (e.g. the workload is outside the calibration set) leaves the ladder
// usable without the rung.
func AnalyticRung(cal *analytic.Calibration, base config.Config, study *AccuracyStudy) (VersionPoint, error) {
	if len(study.Points) == 0 {
		return VersionPoint{}, fmt.Errorf("verif: accuracy study for %s has no ladder points", study.Workload)
	}
	est, err := cal.Estimate(base, study.Workload)
	if err != nil {
		return VersionPoint{}, err
	}
	final := study.Points[len(study.Points)-1].IPC
	return VersionPoint{
		Name:           "v0",
		Detail:         "analytic grey-box estimate (no simulation)",
		IPC:            est.IPC,
		RatioToFinal:   est.IPC / final,
		ErrorVsMachine: stats.PercentDelta(est.IPC, study.MachineIPC) / 100,
	}, nil
}

// PhysicalMachineProxy derives the "physical machine" from the final
// machine configuration: the same design with slightly different
// electrical realities than any model version assumes (memory a touch
// slower, one less cycle of L2 wave-pipelining margin). The paper could
// only measure this once silicon arrived; we declare it here (see
// DESIGN.md "Substitutions").
func PhysicalMachineProxy(cfg config.Config) config.Config {
	m := cfg
	m.Name = cfg.Name + ".machine"
	m.Mem.DRAMCycles += 8
	m.Mem.L2.HitCycles++
	return m
}

// RunAccuracyStudyContext runs every model version and the machine proxy
// on the workload and assembles the Figure 19 series. The machine proxy
// and the eight versions are independent simulations and execute on the
// scheduler under one cancellation point. With opt.Batch > 1 the
// ladder's rungs — nine configurations of the same trace — run as lockstep
// batches of up to opt.Batch members sharing one decoded stream; reports
// (and therefore the study's numbers) are byte-identical either way.
func RunAccuracyStudyContext(ctx context.Context, base config.Config, p workload.Profile, opt core.RunOptions) (AccuracyStudy, error) {
	study := AccuracyStudy{Workload: p.Name}
	versions := core.Versions()
	cfgs := []config.Config{PhysicalMachineProxy(base)}
	for _, v := range versions {
		cfgs = append(cfgs, v.Apply(base))
	}
	// wrap restores the serial path's error labeling: rung i > 0 is model
	// version i-1, rung 0 the machine proxy.
	wrap := func(i int, err error) error {
		if i > 0 {
			return fmt.Errorf("%s: %w", versions[i-1].Name, err)
		}
		return err
	}
	var all []float64
	var err error
	if opt.Batch > 1 {
		all = make([]float64, len(cfgs))
		var chunks [][2]int
		for lo := 0; lo < len(cfgs); lo += opt.Batch {
			hi := lo + opt.Batch
			if hi > len(cfgs) {
				hi = len(cfgs)
			}
			chunks = append(chunks, [2]int{lo, hi})
		}
		cfgErrs := make([]error, len(cfgs))
		_, chunkErrs := sched.MapAllCtx(ctx, len(chunks), sched.Options{Workers: opt.Workers},
			func(ctx context.Context, ci int) (struct{}, error) {
				lo, hi := chunks[ci][0], chunks[ci][1]
				reps, errs := core.RunBatch(ctx, cfgs[lo:hi], p, opt)
				for j := range reps {
					if errs[j] != nil {
						cfgErrs[lo+j] = errs[j]
						continue
					}
					all[lo+j] = reps[j].IPC()
				}
				return struct{}{}, nil
			})
		for ci, cerr := range chunkErrs {
			if cerr == nil {
				continue
			}
			for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
				if cfgErrs[i] == nil {
					cfgErrs[i] = cerr
				}
			}
		}
		for i, cerr := range cfgErrs {
			if cerr != nil {
				return study, wrap(i, cerr)
			}
		}
	} else {
		all, err = sched.MapCtx(ctx, len(cfgs), sched.Options{Workers: opt.Workers},
			func(ctx context.Context, i int) (float64, error) {
				m, merr := core.NewModel(cfgs[i])
				if merr != nil {
					return 0, merr
				}
				r, rerr := m.RunContext(ctx, p, opt)
				if rerr != nil {
					return 0, wrap(i, rerr)
				}
				return r.IPC(), nil
			})
	}
	if err != nil {
		return study, err
	}
	study.MachineIPC = all[0]
	ipcs := all[1:]
	final := ipcs[len(ipcs)-1]
	for i, v := range versions {
		study.Points = append(study.Points, VersionPoint{
			Name:           v.Name,
			Detail:         v.Detail,
			IPC:            ipcs[i],
			RatioToFinal:   ipcs[i] / final,
			ErrorVsMachine: stats.PercentDelta(ipcs[i], study.MachineIPC) / 100,
		})
	}
	return study, nil
}

// TrendCheck compares the direction of a design change between the
// detailed model and the independent in-order reference model — the
// methodology used to validate the initial performance model before any
// RTL existed. It returns the two relative deltas (variant vs base); a
// trend agreement means they share a sign.
type TrendCheck struct {
	// Change names the design change checked.
	Change string
	// ModelDelta and ReferenceDelta are relative performance deltas
	// (positive = variant faster).
	ModelDelta, ReferenceDelta float64
}

// Agree reports whether both models agree on the direction (deltas within
// noise count as agreement).
func (t *TrendCheck) Agree() bool {
	const eps = 0.002
	a, b := t.ModelDelta, t.ReferenceDelta
	if a > -eps && a < eps || b > -eps && b < eps {
		return true
	}
	return (a > 0) == (b > 0)
}

// RunTrendCheckContext evaluates base vs variant on both models; the four
// simulations are scheduled under one cancellation point.
func RunTrendCheckContext(ctx context.Context, change string, base, variant config.Config,
	p workload.Profile, opt core.RunOptions) (TrendCheck, error) {
	tc := TrendCheck{Change: change}
	run := func(ctx context.Context, cfg config.Config) (float64, error) {
		m, err := core.NewModel(cfg)
		if err != nil {
			return 0, err
		}
		r, err := m.RunContext(ctx, p, opt)
		if err != nil {
			return 0, err
		}
		return r.IPC(), nil
	}
	refRun := func(ctx context.Context, cfg config.Config) (float64, error) {
		rf := NewReference(cfg)
		n := opt.Insts
		if n <= 0 {
			n = 200_000
		}
		if err := rf.RunContext(ctx, trace.NewLimitSource(workload.New(p, opt.Seed, 0), n)); err != nil {
			return 0, err
		}
		return 1 / rf.CPI(), nil
	}
	// Both models on both configurations: four independent simulations.
	var b, v, rb, rv float64
	err := sched.DoCtx(ctx, sched.Options{Workers: opt.Workers},
		func(ctx context.Context) (err error) { b, err = run(ctx, base); return },
		func(ctx context.Context) (err error) { v, err = run(ctx, variant); return },
		func(ctx context.Context) (err error) { rb, err = refRun(ctx, base); return },
		func(ctx context.Context) (err error) { rv, err = refRun(ctx, variant); return },
	)
	if err != nil {
		return tc, err
	}
	tc.ModelDelta = (v - b) / b
	tc.ReferenceDelta = (rv - rb) / rb
	return tc, nil
}

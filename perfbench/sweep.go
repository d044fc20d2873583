package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// Trace lengths per CPU. A sweep-up round (18 points) takes about 2 s of
// wall time on 2 workers on a 2-vCPU Xeon; a smp-oltp round (4 points)
// about 2.3 s. The 4P and 16P lengths give points of about the same host
// time, so the median point time does not fall in a gap between two
// clusters.
const (
	sweepUpInsts = 150_000
	smp4PInsts   = 80_000
	smp16PInsts  = 8_000
	// sweepUpRound and smpRound are those round times. They turn
	// --seconds into a fixed round count, so the work a run measures
	// depends on its seed and --seconds and never on the host's speed.
	sweepUpRound = 2 * time.Second
	smpRound     = 2300 * time.Millisecond
	// sweepSetupReps is how often a run builds every point's machine.
	sweepSetupReps = 5
	// recordedRounds is how many rounds --record keeps digests of.
	recordedRounds = 3
	// sweepWorkers is the scheduler's worker count: the host's 2 vCPUs.
	sweepWorkers = 2
	// coldSLO is the latency objective of one uncached simulation.
	coldSLO = time.Second
)

// point is one design point of a sweep: a machine, a workload and a
// per-CPU trace length.
type point struct {
	cfg   config.Config
	prof  workload.Profile
	insts int
	seed  int64
}

func (p point) label() string {
	return fmt.Sprintf("%s/%s@%dx%d", p.cfg.Name, p.prof.Name, p.insts, p.cfg.CPUs)
}

func (p point) warmup() uint64 { return uint64(p.insts / 5) }

// simInsts is the instructions the point commits, warm-up included.
func (p point) simInsts() uint64 { return uint64(p.insts) * uint64(p.cfg.CPUs) }

func (p point) opts() core.RunOptions {
	return core.RunOptions{Insts: p.insts, Seed: p.seed, Workers: 1}
}

// sweepUpPoints is the default cmd/sweep design study: six Table 1
// variants x {SPECint95, SPECfp95, TPC-C}, uniprocessor.
func sweepUpPoints() []point {
	base := config.Base()
	variants := []config.Config{base, base.WithIssueWidth(2), base.WithSmallBHT(),
		base.WithSmallL1(), base.WithOffChipL2(1), base.WithoutPrefetch()}
	profs := []workload.Profile{workload.SPECint95(), workload.SPECfp95(), workload.TPCC()}
	var pts []point
	for _, c := range variants {
		for _, p := range profs {
			pts = append(pts, point{cfg: c, prof: p, insts: sweepUpInsts})
		}
	}
	return pts
}

// smpPoints is TPC-C at 4P and 16P on the base machine and the off-chip
// 8 MB direct-mapped L2.
func smpPoints() []point {
	base := config.Base()
	var pts []point
	for _, mp := range []struct {
		prof  workload.Profile
		cpus  int
		insts int
	}{{workload.TPCC(), 4, smp4PInsts}, {workload.TPCC16P(), 16, smp16PInsts}} {
		for _, c := range []config.Config{base, base.WithOffChipL2(1)} {
			pts = append(pts, point{cfg: c.WithCPUs(mp.cpus), prof: mp.prof, insts: mp.insts})
		}
	}
	return pts
}

func runSweepUp(ctx context.Context, rc runConfig) (*outcome, error) {
	return runSweep(ctx, "sweep-up", sweepUpPoints(), rc.rounds(sweepUpRound), rc)
}

func runSMPOLTP(ctx context.Context, rc runConfig) (*outcome, error) {
	return runSweep(ctx, "smp-oltp", smpPoints(), rc.rounds(smpRound), rc)
}

// workloadSeed maps the benchmark seed to a positive generator seed
// (RunOptions treats 0 as "default"), splitmix64-mixed so neighbouring
// benchmark seeds give unrelated traces.
func workloadSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// schedule fingerprints a sweep's points for its digest key.
func schedule(pts []point) string {
	labels := make([]string, len(pts))
	for i, p := range pts {
		labels[i] = p.label()
	}
	return strings.Join(labels, ";")
}

// roundPoints returns the points with round k's inputs. Every round draws
// a fresh trace seed, so one run averages over several trace samples the
// way the paper samples several trace windows: a single seed's trace can
// run several times slower than another's (SPECint95 IPC ranges from
// about 0.15 to 0.6 across seeds).
func roundPoints(pts []point, seed int64, k int) []point {
	out := append([]point(nil), pts...)
	for i := range out {
		out[i].seed = workloadSeed(seed, uint64(k))
	}
	return out
}

// round is one pass over a sweep's points.
type round struct {
	pts     []point
	wall    time.Duration
	lat     []time.Duration // per point, Model.RunContext host time
	reports []system.Report
	errs    []error
}

// sweepSetup validates and builds every point's model and machine: the
// fixed cost a sweep pays before it simulates. It returns the models.
func sweepSetup(pts []point) ([]*core.Model, error) {
	models := make([]*core.Model, len(pts))
	for i, p := range pts {
		m, err := core.NewModel(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label(), err)
		}
		gens := workload.NewMP(p.prof, p.seed, p.cfg.CPUs)
		srcs := make([]trace.Source, len(gens))
		for j, g := range gens {
			srcs[j] = trace.NewLimitSource(g, p.insts)
		}
		cfg := p.cfg
		cfg.WarmupInsts = p.warmup()
		if _, err := system.New(cfg, srcs); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label(), err)
		}
		models[i] = m
	}
	return models, nil
}

// runRound simulates every point once on the scheduler's workers.
func runRound(ctx context.Context, pts []point, models []*core.Model) round {
	r := round{pts: pts, lat: make([]time.Duration, len(pts)), errs: make([]error, len(pts))}
	t0 := time.Now()
	reps, errs := sched.MapAllCtx(ctx, len(pts), sched.Options{Workers: sweepWorkers},
		func(ctx context.Context, i int) (system.Report, error) {
			t := time.Now()
			rep, err := models[i].RunContext(ctx, pts[i].prof, pts[i].opts())
			r.lat[i] = time.Since(t)
			return rep, err
		})
	r.wall = time.Since(t0)
	r.reports = reps
	copy(r.errs, errs)
	return r
}

// runSweep simulates n rounds of the points untraced. A traced run then
// replays the first rounds' inputs through the layers, once with spans and
// once without.
func runSweep(ctx context.Context, name string, pts []point, n int, rc runConfig) (*outcome, error) {
	out := &outcome{}
	chk, err := newChecker(name, rc.seed, schedule(pts))
	if err != nil {
		return nil, err
	}
	chk.keep = recordedRounds * len(pts)

	var setups []float64
	var models []*core.Model
	for range sweepSetupReps {
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		if models, err = sweepSetup(roundPoints(pts, rc.seed, 0)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rt0 := readRuntime()
	var rounds []round
	for k := range n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rounds = append(rounds, runRound(ctx, roundPoints(pts, rc.seed, k), models))
	}
	rt1 := readRuntime()
	checkRounds(out, rounds, chk)
	if rc.record {
		if err := chk.record(); err != nil {
			return nil, err
		}
	}

	if !rc.trace {
		var insts uint64
		var wall time.Duration
		var lats []float64
		for _, r := range rounds {
			wall += r.wall
			for i, p := range r.pts {
				insts += p.simInsts()
				lats = append(lats, ms(r.lat[i]))
			}
		}
		n := fmt.Sprintf("host; Model.RunContext, n=%d point runs in %d rounds", len(lats), len(rounds))
		out.add("sim_kips", float64(insts)/wall.Seconds()/1e3, "kinst/s", fmt.Sprintf("host; %d rounds", len(rounds)))
		out.add("run_cold_ms_p50", median(lats), "ms", n)
		fmt.Printf("# run_cold_ms_p90 %.4f ms (n=%d)\n", quantile(lats, 0.9), len(lats))
		out.add("op_ms_p50", median(lats), "ms", n+"; every op is a cold run")
		out.add("ok_ratio", float64(out.attempted-out.failed)/float64(out.attempted), "ratio",
			fmt.Sprintf("%d of %d ok", out.attempted-out.failed, out.attempted))
		out.add("setup_s", median(setups), "s", fmt.Sprintf("host; median of %d model+machine builds", sweepSetupReps))
		return out, nil
	}

	// Layered half: the first rounds' inputs decomposed into their layers,
	// with spans and without, alternating which goes first so both share
	// the host's noise. The untraced half ran n rounds, each layered
	// round runs twice, so a traced run measures about --seconds too.
	tr := newTracer()
	out.spans = tr
	traced, plain := make([]layerParts, len(pts)), make([]layerParts, len(pts))
	for k := range max(1, n/2) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runs := []struct {
			tr    *tracer
			parts []layerParts
		}{{tr, traced}, {nil, plain}}
		if k%2 == 1 {
			runs[0], runs[1] = runs[1], runs[0]
		}
		for _, r := range runs {
			if err := layeredRound(ctx, r.tr, k, rounds[k], r.parts); err != nil {
				out.fail("%v", err)
			}
		}
	}
	addSweepLayers(out, pts, rounds, rt0, rt1, tr, traced, plain)
	if err := probeLayers(ctx, out, rc, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// checkRounds counts every point of every round as one operation and
// checks its report against the recorded digest, or by conservation where
// none is recorded.
func checkRounds(out *outcome, rounds []round, chk *checker) {
	for k, r := range rounds {
		for i, p := range r.pts {
			out.attempted++
			if r.errs[i] != nil {
				out.fail("%s round %d: %v", p.label(), k, r.errs[i])
				continue
			}
			rep := &r.reports[i]
			if why := chk.check(k*len(r.pts)+i, digest(rep), func() string {
				return conserveFull(rep, p.insts, p.warmup(), p.cfg.CPUs)
			}); why != "" {
				out.fail("%s round %d: %s", p.label(), k, why)
			}
		}
	}
}

// layerParts accumulates one point's traced layer times over rounds,
// beside the untraced Model.RunContext time of the same inputs.
type layerParts struct {
	gen, build, sim, report, total, untraced time.Duration
	cycles                                   uint64
	n                                        int
}

// layeredRound runs every point decomposed into the layers
// Model.RunContext calls: workload generation, system.New,
// (*System).RunContext and Report, recording spans into tr unless it is
// nil. Each report must equal the untraced round's.
func layeredRound(ctx context.Context, tr *tracer, k int, ur round, parts []layerParts) error {
	pts := ur.pts
	var mu sync.Mutex
	_, err := sched.MapCtx(ctx, len(pts), sched.Options{Workers: sweepWorkers},
		func(ctx context.Context, i int) (struct{}, error) {
			p := pts[i]
			req := fmt.Sprintf("r%d/p%d", k, i)
			var lp layerParts
			t0 := time.Now()
			root, endRoot := tr.begin("point", req, 0)

			_, end := tr.begin("workload.gen", req, root)
			t := time.Now()
			gens := workload.NewMP(p.prof, p.seed, p.cfg.CPUs)
			srcs := make([]trace.Source, len(gens))
			for j, g := range gens {
				srcs[j] = trace.NewSliceSource(trace.Collect(g, p.insts))
			}
			lp.gen = time.Since(t)
			end()

			cfg := p.cfg
			cfg.WarmupInsts = p.warmup()
			_, end = tr.begin("system.build", req, root)
			t = time.Now()
			sys, err := system.New(cfg, srcs)
			lp.build = time.Since(t)
			end()
			if err != nil {
				endRoot()
				return struct{}{}, err
			}

			_, end = tr.begin("system.sim", req, root)
			t = time.Now()
			_, capped, err := sys.RunContext(ctx, uint64(p.insts)*400+10_000_000)
			lp.sim = time.Since(t)
			end()
			if err != nil {
				endRoot()
				return struct{}{}, err
			}

			_, end = tr.begin("system.report", req, root)
			t = time.Now()
			rep := sys.Report(p.prof.Name)
			rep.HitCap = capped
			lp.report = time.Since(t)
			end()
			endRoot()
			lp.total = time.Since(t0)

			if digest(&rep) != digest(&ur.reports[i]) {
				return struct{}{}, fmt.Errorf("%s: layered run's report differs from Model.RunContext's", p.label())
			}
			mu.Lock()
			a := &parts[i]
			a.gen += lp.gen
			a.build += lp.build
			a.sim += lp.sim
			a.report += lp.report
			a.total += lp.total
			a.untraced += ur.lat[i]
			a.cycles += rep.Cycles
			a.n++
			mu.Unlock()
			return struct{}{}, nil
		})
	return err
}

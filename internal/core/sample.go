package core

// Sampled simulation (SMARTS-style systematic sampling).
//
// A sampled run alternates three modes over the trace:
//
//	fast-forward      functional execution (cpu.FastForward): caches, TLBs
//	                  and the branch predictor stay warm; no cycles pass.
//	detailed warm-up  the out-of-order model runs but its statistics are
//	                  discarded — it re-establishes the pipeline, queue and
//	                  MSHR state the functional mode does not track.
//	measurement       the out-of-order model runs and the window's counter
//	                  deltas accumulate into the final Report.
//
// Measurement is snapshot-based: counters are read before and after each
// window and the difference accumulated, so warm-up and fast-forward
// pollution of shared counters never leaks into results. The headline CPI
// is the ratio estimator Σcycles/Σcommitted over all windows; the
// per-window CPI spread yields the reported confidence bound.
//
// The engine is a stepwise state machine (sampledRun, one kind of run in
// run.go): each step performs one bounded action — a fast-forward chunk on
// one CPU, or one detailed window. The serial loop takes a machine's steps
// back to back; the lockstep batch loop (batch.go) interleaves steps of N
// machines against a shared trace ring. Both loops execute the identical
// action sequence per machine, so sampled Reports are byte-identical serial
// vs batched and at any harness worker count, exactly like full runs.

import (
	"context"
	"math"

	"sparc64v/internal/bpred"
	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/obs"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
)

// sampleGate budgets a CPU's trace source: Next serves at most budget
// records, so a detailed window ends (the CPU drains) after exactly the
// window's instruction count — or earlier when the underlying trace dries
// up, which dry latches.
type sampleGate struct {
	src    trace.Source
	budget int
	dry    bool
}

// Next implements trace.Source.
func (g *sampleGate) Next(r *trace.Record) bool {
	if g.budget <= 0 || g.dry {
		return false
	}
	if !g.src.Next(r) {
		g.dry = true
		return false
	}
	g.budget--
	return true
}

// cpuSnap is one CPU's counter snapshot (core, predictor, caches, TLBs).
type cpuSnap struct {
	core              cpu.Stats
	branch            bpred.Stats
	l1i, l1d, l2      cache.Stats
	itlbAcc, itlbMiss uint64
	dtlbAcc, dtlbMiss uint64
}

// sysSnap is a whole-machine counter snapshot.
type sysSnap struct {
	cpus              []cpuSnap
	coh               coherence.Stats
	busWait, dramWait uint64
}

func snapshot(sys *system.System, ncpu int) sysSnap {
	s := sysSnap{cpus: make([]cpuSnap, ncpu)}
	for i := 0; i < ncpu; i++ {
		c, chip := sys.CPU(i), sys.Chip(i)
		cs := &s.cpus[i]
		cs.core = c.Stats
		if p := c.Predictor(); p != nil {
			cs.branch = p.Stats
		}
		cs.l1i, cs.l1d, cs.l2 = chip.L1I.Stats, chip.L1D.Stats, chip.L2.Stats
		cs.itlbAcc, cs.itlbMiss = chip.ITLB.Accesses, chip.ITLB.Misses
		cs.dtlbAcc, cs.dtlbMiss = chip.DTLB.Accesses, chip.DTLB.Misses
	}
	s.coh = sys.Controller().Stats
	s.busWait = sys.Bus().WaitCycles()
	s.dramWait = sys.DRAM().WaitCycles()
	return s
}

// sub returns the field-wise counter difference s - o.
func (s sysSnap) sub(o sysSnap) sysSnap {
	d := sysSnap{cpus: make([]cpuSnap, len(s.cpus))}
	for i := range s.cpus {
		a, b := &s.cpus[i], &o.cpus[i]
		d.cpus[i] = cpuSnap{
			core:     a.core.Sub(b.core),
			branch:   a.branch.Sub(b.branch),
			l1i:      a.l1i.Sub(b.l1i),
			l1d:      a.l1d.Sub(b.l1d),
			l2:       a.l2.Sub(b.l2),
			itlbAcc:  a.itlbAcc - b.itlbAcc,
			itlbMiss: a.itlbMiss - b.itlbMiss,
			dtlbAcc:  a.dtlbAcc - b.dtlbAcc,
			dtlbMiss: a.dtlbMiss - b.dtlbMiss,
		}
	}
	d.coh = s.coh.Sub(o.coh)
	d.busWait = s.busWait - o.busWait
	d.dramWait = s.dramWait - o.dramWait
	return d
}

// add returns the field-wise counter sum s + o.
func (s sysSnap) add(o sysSnap) sysSnap {
	a := sysSnap{cpus: make([]cpuSnap, len(s.cpus))}
	for i := range s.cpus {
		x, y := &s.cpus[i], &o.cpus[i]
		a.cpus[i] = cpuSnap{
			core:     x.core.Add(y.core),
			branch:   x.branch.Add(y.branch),
			l1i:      x.l1i.Add(y.l1i),
			l1d:      x.l1d.Add(y.l1d),
			l2:       x.l2.Add(y.l2),
			itlbAcc:  x.itlbAcc + y.itlbAcc,
			itlbMiss: x.itlbMiss + y.itlbMiss,
			dtlbAcc:  x.dtlbAcc + y.dtlbAcc,
			dtlbMiss: x.dtlbMiss + y.dtlbMiss,
		}
	}
	a.coh = s.coh.Add(o.coh)
	a.busWait = s.busWait + o.busWait
	a.dramWait = s.dramWait + o.dramWait
	return a
}

// committed sums committed instructions across CPUs.
func (s sysSnap) committed() uint64 {
	var n uint64
	for i := range s.cpus {
		n += s.cpus[i].core.Committed
	}
	return n
}

// cpi returns aggregate cycles per committed instruction.
func (s sysSnap) cpi() float64 {
	var cyc, com uint64
	for i := range s.cpus {
		cyc += s.cpus[i].core.Cycles
		com += s.cpus[i].core.Committed
	}
	if com == 0 {
		return 0
	}
	return float64(cyc) / float64(com)
}

// ffPollStride is how many fast-forwarded records pass between context
// polls — the functional-mode analogue of system.RunContext's cycle-stride
// poll.
const ffPollStride = 8192

// ffChunk bounds one step's fast-forward work (records on one CPU). The
// chunk keeps a batched member's single step — and therefore its demand on
// the shared trace ring — bounded; a serial run just takes the chunks back
// to back.
const ffChunk = 4096

// sampledRun stages of the state machine. A run cycles
// FF(warmup+offset) → [ warm window → measure window → FF(gap) ]* → done,
// advancing CPU by CPU within each fast-forward region (the same order the
// loop-based driver used, which matters under MP: functional stores
// invalidate peer cache lines through the coherence controller, so the
// inter-CPU execution order is part of the result).
const (
	stageFF = iota
	stageWarm
	stageMeasure
	stageDone
)

// sampledRun is one machine's sampled-simulation state: the gated sources,
// the functional executors, the accumulated measurement snapshots, and the
// state-machine position. It is advanced by repeated step() calls and
// closed out by finish().
type sampledRun struct {
	m     *Model
	label string
	opt   RunOptions
	sc    config.Sampling
	sp    *obs.Span
	sys   *system.System
	gates []*sampleGate
	ffs   []*cpu.FastForward
	ncpu  int

	simErr error
	capped bool

	stage  int
	ffCPU  int // CPU currently fast-forwarding
	ffLeft int // records left for that CPU
	ffN    int // records per CPU in the current fast-forward region
	ffGap  int // records between a measure window and the next interval

	pre            sysSnap // snapshot at the current measure window's start
	preCyc         uint64
	start          sysSnap
	acc            sysSnap
	windows        []float64
	measuredCycles uint64
}

// newSampledRun validates the schedule and builds the machine over srcs.
func newSampledRun(m *Model, label string, srcs []trace.Source, opt RunOptions) (*sampledRun, error) {
	sc := opt.Sample
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &sampledRun{m: m, label: label, opt: opt, sc: sc}
	r.sp = opt.Obs.StartSpan("run", label)
	cfg := m.cfg
	// The per-window detailed warm-up replaces the classic warm-up reset;
	// a mid-run resetMeasurement would corrupt snapshot deltas.
	cfg.WarmupInsts = 0
	endBuild := r.sp.Phase(obs.PhaseBuild)
	r.gates = make([]*sampleGate, len(srcs))
	gsrcs := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		r.gates[i] = &sampleGate{src: s}
		gsrcs[i] = r.gates[i]
	}
	sys, err := system.New(cfg, gsrcs)
	if err != nil {
		endBuild()
		return nil, err
	}
	r.sys = sys
	r.ncpu = cfg.CPUs
	r.ffs = make([]*cpu.FastForward, r.ncpu)
	for i := 0; i < r.ncpu; i++ {
		r.ffs[i] = cpu.NewFastForward(sys.CPU(i))
	}
	endBuild()

	r.ffGap = sc.IntervalInsts - sc.WarmupInsts - sc.MeasureInsts
	r.start = snapshot(sys, r.ncpu)
	r.acc = sysSnap{cpus: make([]cpuSnap, r.ncpu)}

	// Fast-forward the run-level warm-up region plus the schedule's offset
	// before the first interval. A full run excludes its first opt.Warmup
	// committed instructions from statistics (the cold-start transient);
	// sampling the same population is what makes sampled and full reports
	// comparable — without this skip the early windows measure cold caches
	// the full run deliberately discards.
	r.setFF(int(opt.Warmup) + sc.OffsetInsts)
	r.norm()
	return r, nil
}

// setFF enters a fast-forward region of n records per CPU.
func (r *sampledRun) setFF(n int) {
	r.stage = stageFF
	r.ffN = n
	r.ffCPU = 0
	r.ffLeft = n
}

// allDry reports whether every CPU's trace is exhausted.
func (r *sampledRun) allDry() bool {
	for _, g := range r.gates {
		if !g.dry {
			return false
		}
	}
	return true
}

// norm advances the state machine past zero-work transitions, so that
// afterwards either stage == stageDone or the next step() performs real
// work whose trace demand need() describes. A cap does not stop a
// pending fast-forward region (only windows respect it), matching the
// classic driver's control flow; a cancellation stops everything.
func (r *sampledRun) norm() {
	for {
		if r.stage == stageDone {
			return
		}
		if r.simErr != nil {
			r.stage = stageDone
			return
		}
		if r.stage != stageFF {
			return
		}
		if r.ffLeft > 0 && !r.gates[r.ffCPU].dry {
			return
		}
		if r.ffLeft > 0 { // dry CPU: nothing to fast-forward
			r.ffLeft = 0
		}
		if r.ffCPU+1 < r.ncpu {
			r.ffCPU++
			r.ffLeft = r.ffN
			continue
		}
		// Fast-forward region complete: the inter-interval loop condition.
		if r.capped || r.allDry() {
			r.stage = stageDone
			return
		}
		r.stage = stageWarm
		return
	}
}

// need returns which CPU's source the next step reads and the most
// records it consumes: (cpu, n) for a fast-forward chunk on one CPU, or
// (-1, n) for a detailed window drawing up to n records from every CPU.
func (r *sampledRun) need() (int, int) {
	switch r.stage {
	case stageFF:
		n := r.ffLeft
		if n > ffChunk {
			n = ffChunk
		}
		return r.ffCPU, n
	case stageWarm:
		return -1, r.sc.WarmupInsts
	case stageMeasure:
		return -1, r.sc.MeasureInsts
	}
	return -1, 0
}

func (r *sampledRun) done() bool      { return r.stage == stageDone }
func (r *sampledRun) span() *obs.Span { return r.sp }

// step performs the run's next bounded action: one fast-forward chunk on
// one CPU, or one detailed window.
func (r *sampledRun) step(ctx context.Context) {
	switch r.stage {
	case stageFF:
		n := r.ffLeft
		if n > ffChunk {
			n = ffChunk
		}
		r.fastForwardOne(ctx, r.ffCPU, n)
		r.ffLeft -= n
	case stageWarm:
		r.runWindow(ctx, r.sc.WarmupInsts)
		r.pre = snapshot(r.sys, r.ncpu)
		r.preCyc = r.sys.Cycle()
		r.stage = stageMeasure
	case stageMeasure:
		r.runWindow(ctx, r.sc.MeasureInsts)
		d := snapshot(r.sys, r.ncpu).sub(r.pre)
		if d.committed() > 0 {
			r.acc = r.acc.add(d)
			r.measuredCycles += r.sys.Cycle() - r.preCyc
			r.windows = append(r.windows, d.cpi())
		}
		r.setFF(r.ffGap)
	}
	r.norm()
}

// cancel aborts the run with err (the batch loop's external cancellation
// path; a serial run surfaces cancellation through step's ctx instead).
func (r *sampledRun) cancel(err error) {
	if r.simErr == nil {
		r.simErr = err
	}
	r.stage = stageDone
}

// fastForwardOne advances CPU i by up to n records functionally.
func (r *sampledRun) fastForwardOne(ctx context.Context, i, n int) {
	if n <= 0 || r.simErr != nil {
		return
	}
	g := r.gates[i]
	if g.dry {
		return
	}
	end := r.sp.Phase(obs.PhaseFastForward)
	defer end()
	done := ctx.Done()
	var rec trace.Record
	for k := 0; k < n; k++ {
		if done != nil && k%ffPollStride == 0 {
			select {
			case <-done:
				r.simErr = ctx.Err()
				return
			default:
			}
		}
		if !g.src.Next(&rec) {
			g.dry = true
			return
		}
		r.ffs[i].Step(&rec)
	}
}

// runWindow gives every live CPU a budget of n records and runs the
// detailed machine until it drains again.
func (r *sampledRun) runWindow(ctx context.Context, n int) {
	if n <= 0 || r.simErr != nil || r.capped {
		return
	}
	live := false
	for i, g := range r.gates {
		if g.dry {
			continue
		}
		g.budget = n
		r.sys.CPU(i).ResumeSource()
		live = true
	}
	if !live {
		return
	}
	end := r.sp.Phase(obs.PhaseSim)
	_, c, err := r.sys.RunContext(ctx, r.opt.MaxCycles)
	end()
	if err != nil {
		r.simErr = err
		return
	}
	if c {
		r.capped = true
	}
}

// finish assembles the Report: the accumulated window deltas become the
// counter blocks, and Sampling carries the schedule, mode split and error
// model. Call exactly once, after stage reaches stageDone.
func (r *sampledRun) finish() (system.Report, error) {
	sc := r.sc
	ncpu := r.ncpu

	// Degenerate schedules (trace shorter than one warm-up window, window
	// longer than the trace): no measurement window completed any commits,
	// so fall back to everything the detailed model did simulate.
	if len(r.windows) == 0 {
		r.acc = snapshot(r.sys, ncpu).sub(r.start)
		r.measuredCycles = r.sys.Cycle()
		if r.acc.committed() > 0 {
			r.windows = append(r.windows, r.acc.cpi())
		}
	}

	endReport := r.sp.Phase(obs.PhaseReport)
	rep := system.Report{Name: r.m.cfg.Name, Workload: r.label, Cycles: r.measuredCycles, HitCap: r.capped}
	var measCycles uint64
	for i := 0; i < ncpu; i++ {
		cs := &r.acc.cpus[i]
		rep.CPUs = append(rep.CPUs, system.CPUReport{
			Core:         cs.core,
			Branch:       cs.branch,
			L1I:          cs.l1i,
			L1D:          cs.l1d,
			L2:           cs.l2,
			ITLBMissRate: stats.Ratio(cs.itlbMiss, cs.itlbAcc),
			DTLBMissRate: stats.Ratio(cs.dtlbMiss, cs.dtlbAcc),
		})
		rep.Committed += cs.core.Committed
		measCycles += cs.core.Cycles
	}
	rep.Coherence = r.acc.coh
	rep.BusWaitCycles = r.acc.busWait
	rep.DRAMWaitCycles = r.acc.dramWait

	var ffInsts, detInsts uint64
	for i := 0; i < ncpu; i++ {
		ffInsts += r.ffs[i].Insts
		detInsts += r.sys.CPU(i).Stats.Committed
	}
	info := &system.SamplingInfo{
		Interval:       sc.IntervalInsts,
		Warmup:         sc.WarmupInsts,
		Measure:        sc.MeasureInsts,
		Offset:         sc.OffsetInsts,
		Windows:        len(r.windows),
		FastForwarded:  ffInsts,
		DetailedInsts:  detInsts,
		MeasuredInsts:  rep.Committed,
		DetailedCycles: r.sys.Cycle(),
	}
	if n := len(r.windows); n > 0 {
		info.CPIMean = stats.Mean(r.windows)
		if n > 1 {
			var ss float64
			for _, x := range r.windows {
				d := x - info.CPIMean
				ss += d * d
			}
			info.CPIStd = math.Sqrt(ss / float64(n-1))
			info.CPIHalf95 = 1.96 * info.CPIStd / math.Sqrt(float64(n))
		}
	}
	sanitizeSampling(info)
	if rep.Committed > 0 {
		cpi := float64(measCycles) / float64(rep.Committed)
		perCPU := float64(ffInsts+detInsts) / float64(ncpu)
		info.EstimatedCycles = uint64(cpi*perCPU + 0.5)
	}
	rep.Sampling = info

	meterAdd(detInsts, r.sys.Cycle())
	endReport()
	spanReport(r.sp, rep)
	r.sp.Add("ff_insts", int64(ffInsts))
	r.sp.Add("sample_windows", int64(len(r.windows)))
	r.sp.Finish()
	return rep, r.m.runErr(r.label, r.opt, r.simErr, r.capped)
}

// sanitizeSampling clamps the error-model fields to finite values.
// CPIStd/CPIHalf95 are left zero when Windows <= 1 (a single window has no
// variance estimate; n-1 == 0 would make the naive estimator NaN, and a
// NaN here breaks encoding/json marshaling of the whole Report, poisoning
// the runcache disk tier). Windows == 1 in the marshaled report is the
// explicit "no spread estimate" marker consumers should key on.
func sanitizeSampling(info *system.SamplingInfo) {
	if math.IsNaN(info.CPIMean) || math.IsInf(info.CPIMean, 0) {
		info.CPIMean = 0
	}
	if info.Windows <= 1 || math.IsNaN(info.CPIStd) || math.IsInf(info.CPIStd, 0) {
		info.CPIStd = 0
	}
	if info.Windows <= 1 || math.IsNaN(info.CPIHalf95) || math.IsInf(info.CPIHalf95, 0) {
		info.CPIHalf95 = 0
	}
}

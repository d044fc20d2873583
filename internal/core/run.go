package core

// The run engine. Every simulation, full or sampled, serial or batched, is
// a run: a machine built over its trace sources that advances by bounded
// steps and closes out into a Report. Exactly two loops drive runs: the
// serial loop in RunSourcesContext (step until done) and the lockstep loop
// in RunBatch (step every member the shared trace rings can feed). A run
// executes the same action sequence under either loop, so its Report is
// byte-identical however it was driven.

import (
	"context"
	"fmt"

	"sparc64v/internal/obs"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
)

// run is one simulation in flight.
type run interface {
	// need returns the trace demand of the next step: (cpu, n) when it
	// reads at most n records from one CPU's source, (-1, n) when it may
	// read up to n records from every CPU's source.
	need() (cpu, n int)
	// step performs the run's next bounded action.
	step(ctx context.Context)
	// done reports that the run has nothing left to step.
	done() bool
	// cancel aborts the run with err; finish then reports it.
	cancel(err error)
	// finish assembles the Report and the run's error. Call exactly once,
	// after done.
	finish() (system.Report, error)
	// span returns the run's profile span (nil when profiling is off).
	span() *obs.Span
}

// newRun builds the run opt asks for over srcs. stride is the cycle budget
// of one full-run step; 0 runs a full run to completion in a single step
// (the serial loop never needs to interleave it with anything).
func (m *Model) newRun(label string, srcs []trace.Source, opt RunOptions, stride int) (run, error) {
	if opt.Sample.Enabled() {
		return newSampledRun(m, label, srcs, opt)
	}
	return newFullRun(m, label, srcs, opt, stride)
}

// fullRun is a detailed run over the whole trace: warm-up for opt.Warmup
// committed instructions per CPU, then measurement to the end of the trace.
type fullRun struct {
	m      *Model
	label  string
	opt    RunOptions
	sp     *obs.Span
	sys    *system.System
	stride int
	reads  int // records one step may read per CPU (stride × fetch width)

	ended  bool
	capped bool
	err    error
}

func newFullRun(m *Model, label string, srcs []trace.Source, opt RunOptions, stride int) (*fullRun, error) {
	sp := opt.Obs.StartSpan("run", label)
	cfg := m.cfg
	cfg.WarmupInsts = opt.Warmup
	endBuild := sp.Phase(obs.PhaseBuild)
	sys, err := system.New(cfg, srcs)
	endBuild()
	if err != nil {
		return nil, err
	}
	r := &fullRun{m: m, label: label, opt: opt, sp: sp, sys: sys, stride: stride}
	for i := range srcs {
		r.reads = max(r.reads, stride*sys.SourceReadBound(i))
	}
	return r, nil
}

func (r *fullRun) need() (int, int) { return -1, r.reads }
func (r *fullRun) done() bool       { return r.ended }
func (r *fullRun) span() *obs.Span  { return r.sp }
func (r *fullRun) cancel(err error) { r.err, r.ended = err, true }

// step runs the machine to completion (stride 0) or for stride cycles.
// Chunking never changes the result (system.Step).
func (r *fullRun) step(ctx context.Context) {
	end := r.sp.Phase(obs.PhaseSim)
	if r.stride == 0 {
		_, r.capped, r.err = r.sys.RunContext(ctx, r.opt.MaxCycles)
		r.ended = true
	} else {
		drained, capped := r.sys.Step(r.stride, r.opt.MaxCycles)
		r.capped, r.ended = capped, drained || capped
	}
	end()
}

func (r *fullRun) finish() (system.Report, error) {
	endReport := r.sp.Phase(obs.PhaseReport)
	rep := r.sys.Report(r.label)
	rep.HitCap = r.capped
	meterAdd(rep.Committed, rep.Cycles)
	endReport()
	spanReport(r.sp, rep)
	r.sp.Finish()
	return rep, r.m.runErr(r.label, r.opt, r.err, r.capped)
}

// meterAdd records one simulated run on the process meter.
func meterAdd(instrs, cycles uint64) {
	meterInstrs.Add(instrs)
	meterCycles.Add(cycles)
	meterRuns.Add(1)
}

// runErr is a finished run's error: its cancellation, or its cycle cap.
func (m *Model) runErr(label string, opt RunOptions, err error, capped bool) error {
	if err != nil {
		return fmt.Errorf("core: %s/%s cancelled: %w", m.cfg.Name, label, err)
	}
	if capped {
		return fmt.Errorf("core: %s/%s hit the %d-cycle cap", m.cfg.Name, label, opt.MaxCycles)
	}
	return nil
}

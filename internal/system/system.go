// Package system composes the full machine model: one or more processor
// chips (out-of-order core + L1s + on/off-chip L2), the snooping coherence
// controller, the system bus and main memory — the paper's "detailed
// processor model and detailed memory system model" in one object, usable
// as a uniprocessor or an SMP (TPC-C 16P).
package system

import (
	"context"
	"fmt"

	"sparc64v/internal/bpred"
	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/mem"
	"sparc64v/internal/obs"
	"sparc64v/internal/stats"
	"sparc64v/internal/trace"
)

// System is a complete simulated machine.
type System struct {
	cfg   config.Config
	cpus  []*cpu.CPU
	chips []*cpu.ChipMem
	ctrl  *coherence.Controller
	bus   *mem.Bus
	dram  *mem.DRAM
	cycle uint64

	// Per-CPU sleep state of the drive loop (advance): wake[i] is the next
	// cycle CPU i ticks, and quietFrom[i] the first cycle since its last
	// tick whose quiet-tick counters it has not yet been credited with.
	wake, quietFrom []uint64
	fault           Fault
}

// New builds a machine for cfg; sources supplies one instruction trace per
// CPU (len(sources) must equal cfg.CPUs).
func New(cfg config.Config, sources []trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.CPUs {
		return nil, fmt.Errorf("system: %d sources for %d CPUs", len(sources), cfg.CPUs)
	}
	s := &System{cfg: cfg, fault: injected}
	s.bus = mem.NewBus(cfg.Mem, cfg.Fidelity.BusContention)
	s.dram = mem.NewDRAM(cfg.Mem, cfg.Fidelity.BusContention)
	s.ctrl = coherence.NewController(cfg.Mem, s.bus, s.dram, cfg.Fidelity.CoherenceTiming)
	for i := 0; i < cfg.CPUs; i++ {
		chip := cpu.NewChipMem(&s.cfg, i, s.ctrl)
		s.ctrl.AttachChip(chip)
		s.chips = append(s.chips, chip)
		s.cpus = append(s.cpus, cpu.New(&s.cfg, i, chip, sources[i]))
	}
	s.wake = make([]uint64, cfg.CPUs)
	s.quietFrom = make([]uint64, cfg.CPUs)
	return s, nil
}

// Done reports whether every CPU has drained.
func (s *System) Done() bool {
	for _, c := range s.cpus {
		if !c.Done() {
			return false
		}
	}
	return true
}

// ctxPollStride is how often (in global cycles) RunContext polls its
// context. 4K cycles is coarse enough that the check never shows up in the
// hot-loop profile, yet a mid-run cancellation still lands within
// microseconds of wall time.
const ctxPollStride = 4096

// RunContext advances the machine until every CPU drains or maxCycles
// elapse. It returns the cycles simulated, whether the run hit the cycle
// cap, and ctx.Err() if the context was done first: the loop polls ctx at
// every ctxPollStride-cycle boundary and stops there. The machine state stays consistent on early return —
// Report still snapshots whatever was simulated up to the cancellation
// cycle.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (uint64, bool, error) {
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	drained, err := s.advance(ctx, maxCycles)
	return s.cycle, !drained && err == nil, err
}

// never is a wake cycle that does not come.
const never = ^uint64(0)

// skippedCycles counts the per-CPU cycles the drive loop credited in bulk
// instead of ticking, summed over every machine in the process.
var skippedCycles = obs.Default().Counter("sparc64v_sim_skipped_cycles_total",
	"Per-CPU cycles the detailed core slept through and was credited with in bulk.")

// advance is the one drive loop under RunContext and Step. It runs the
// machine from the current cycle until every CPU drains (drained), the
// clock reaches stop, or ctx is done (its error). At each cycle it ticks,
// in index order, the CPUs due then. A CPU whose tick was quiet sleeps
// until the cycle its tick named, and the clock jumps straight to the
// earliest cycle any CPU is due. Every cycle a CPU sleeps through would
// have repeated its quiet tick, so the loop credits the CPU with that
// tick's counter delta per cycle instead: the machine evolves exactly as
// if every CPU were ticked on every cycle. When ctx can be cancelled the
// clock also stops at every ctxPollStride boundary to poll it.
func (s *System) advance(ctx context.Context, stop uint64) (drained bool, err error) {
	done := ctx.Done()
	pollAt := never
	if done != nil {
		pollAt = (s.cycle + ctxPollStride - 1) &^ (ctxPollStride - 1)
	}
	// Sleep state does not survive between calls: callers may change a CPU
	// in between (the sampling driver refills drained sources), so every
	// CPU ticks at the first cycle.
	for i := range s.cpus {
		s.wake[i], s.quietFrom[i] = s.cycle, s.cycle
	}
	var skipped uint64
loop:
	for s.cycle < stop {
		if s.cycle == pollAt {
			pollAt += ctxPollStride
			select {
			case <-done:
				err = ctx.Err()
				break loop
			default:
			}
		}
		if s.Done() {
			drained = true
			break
		}
		next := never
		for i, c := range s.cpus {
			if s.wake[i] == s.cycle {
				skipped += s.creditCPU(i, s.cycle)
				w := c.Tick(s.cycle)
				if s.fault == FaultLateWake && w > s.cycle+1 && w != never {
					w++
				}
				s.wake[i], s.quietFrom[i] = w, s.cycle+1
			}
			next = min(next, s.wake[i])
		}
		s.cycle = min(next, pollAt, stop)
	}
	for i := range s.cpus {
		skipped += s.creditCPU(i, s.cycle)
	}
	skippedCycles.Add(skipped)
	return drained, err
}

// creditCPU credits CPU i with every cycle it slept through before cycle
// and returns the cycles credited.
func (s *System) creditCPU(i int, cycle uint64) uint64 {
	end := min(s.wake[i], cycle)
	if end <= s.quietFrom[i] {
		return 0
	}
	n := s.cpus[i].CreditQuiet(end - s.quietFrom[i])
	s.quietFrom[i] = end
	return n
}

// Cycle returns the current global cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// CPU returns processor i (testing and detailed reporting).
func (s *System) CPU(i int) *cpu.CPU { return s.cpus[i] }

// Chip returns chip i's memory hierarchy.
func (s *System) Chip(i int) *cpu.ChipMem { return s.chips[i] }

// Controller returns the coherence controller.
func (s *System) Controller() *coherence.Controller { return s.ctrl }

// Bus returns the system bus (reporting and diagnostics).
func (s *System) Bus() *mem.Bus { return s.bus }

// DRAM returns main memory (reporting and diagnostics).
func (s *System) DRAM() *mem.DRAM { return s.dram }

// CPUReport is the per-processor slice of a Report.
type CPUReport struct {
	// Core is the core counter block.
	Core cpu.Stats
	// Branch is the predictor counter block (zero under perfect branch).
	Branch bpred.Stats
	// L1I, L1D, L2 are the cache counter blocks.
	L1I, L1D, L2 cache.Stats
	// ITLBMissRate and DTLBMissRate are misses per access.
	ITLBMissRate, DTLBMissRate float64
	// TLBStallCycles is the cycles charged to TLB miss penalties (both
	// TLBs), the chip-level counterpart of the core's stall attribution.
	TLBStallCycles uint64
}

// IPC returns this CPU's committed instructions per cycle.
func (r *CPUReport) IPC() float64 { return r.Core.IPC() }

// Report is the machine-level result of a run.
type Report struct {
	// Name echoes the configuration name.
	Name string
	// Workload labels the trace.
	Workload string
	// Cycles is the global cycle count; Committed sums all CPUs. In a
	// sampled run both cover only the detailed measurement windows (the
	// per-CPU counter blocks are measurement-window sums, so every derived
	// rate and the IPC ratio estimator stay correct); Sampling carries the
	// extrapolation to the whole run.
	Cycles    uint64
	Committed uint64
	// CPUs holds the per-processor reports.
	CPUs []CPUReport
	// Coherence is the protocol counter block.
	Coherence coherence.Stats
	// BusWaitCycles and DRAMWaitCycles expose queuing delay.
	BusWaitCycles, DRAMWaitCycles uint64
	// HitCap reports the run ended at the cycle cap (likely deadlock).
	HitCap bool
	// Sampling is non-nil iff the run used sampled simulation; it records
	// the schedule, the fast-forward/detailed split and the error model.
	Sampling *SamplingInfo `json:",omitempty"`
}

// SamplingInfo describes how a sampled run produced its Report: the window
// schedule, how much work ran in each mode, and the per-window CPI spread
// that bounds the estimate's error.
type SamplingInfo struct {
	// Interval, Warmup, Measure and Offset echo the sampling schedule
	// (per-CPU instruction counts).
	Interval, Warmup, Measure, Offset int
	// Windows counts completed measurement windows.
	Windows int
	// FastForwarded counts instructions executed functionally (all CPUs).
	FastForwarded uint64
	// DetailedInsts counts instructions committed on the detailed model,
	// warm-up windows included (all CPUs).
	DetailedInsts uint64
	// MeasuredInsts counts instructions committed inside measurement
	// windows (all CPUs) — the denominator of the CPI estimator.
	MeasuredInsts uint64
	// DetailedCycles is the global cycle count actually simulated in
	// detail (warm-up + measurement).
	DetailedCycles uint64
	// CPIMean and CPIStd summarize the per-window CPI distribution;
	// CPIHalf95 is the 95% confidence half-width (1.96·std/√Windows).
	// The headline sampled CPI is the ratio estimator over all windows
	// (Report.IPC), not CPIMean; CPIMean exists to price the spread.
	CPIMean, CPIStd, CPIHalf95 float64
	// EstimatedCycles extrapolates whole-run per-CPU cycles: measured CPI
	// applied to every instruction the run advanced through.
	EstimatedCycles uint64
}

// MeasuredCycles returns the mean post-warmup cycle count across CPUs —
// the steady-state execution time the paper's analyses compare.
func (r *Report) MeasuredCycles() uint64 {
	if len(r.CPUs) == 0 {
		return r.Cycles
	}
	var sum uint64
	for i := range r.CPUs {
		sum += r.CPUs[i].Core.Cycles
	}
	return sum / uint64(len(r.CPUs))
}

// IPC returns the mean per-CPU IPC — the paper's figure of merit for both
// UP and MP comparisons.
func (r *Report) IPC() float64 {
	var xs []float64
	for i := range r.CPUs {
		xs = append(xs, r.CPUs[i].IPC())
	}
	return stats.Mean(xs)
}

// L1IMissRate returns demand misses per access across CPUs.
func (r *Report) L1IMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L1I })
}

// L1DMissRate returns demand misses per access across CPUs.
func (r *Report) L1DMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L1D })
}

// L2DemandMissRate returns demand misses per demand access across CPUs
// (the paper's "with-Demand"/"without" style metric).
func (r *Report) L2DemandMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L2 })
}

// L2TotalMissRate includes prefetch requests (the paper's "with" bars).
func (r *Report) L2TotalMissRate() float64 {
	var acc, miss uint64
	for i := range r.CPUs {
		s := &r.CPUs[i].L2
		acc += s.DemandAccesses + s.PrefetchAccesses
		miss += s.DemandMisses + s.PrefetchMisses
	}
	return stats.Ratio(miss, acc)
}

func (r *Report) missRate(sel func(*CPUReport) *cache.Stats) float64 {
	var acc, miss uint64
	for i := range r.CPUs {
		s := sel(&r.CPUs[i])
		acc += s.DemandAccesses
		miss += s.DemandMisses
	}
	return stats.Ratio(miss, acc)
}

// BranchFailureRate returns mispredictions per branch across CPUs.
func (r *Report) BranchFailureRate() float64 {
	var br, mp uint64
	for i := range r.CPUs {
		br += r.CPUs[i].Branch.Branches()
		mp += r.CPUs[i].Branch.Mispredicts()
	}
	return stats.Ratio(mp, br)
}

// Report snapshots the machine state into a Report.
func (s *System) Report(workload string) Report {
	r := Report{
		Name:     s.cfg.Name,
		Workload: workload,
		Cycles:   s.cycle,
	}
	for i, c := range s.cpus {
		cr := CPUReport{
			Core: c.Stats,
			L1I:  s.chips[i].L1I.Stats,
			L1D:  s.chips[i].L1D.Stats,
			L2:   s.chips[i].L2.Stats,
		}
		if p := c.Predictor(); p != nil {
			cr.Branch = p.Stats
		}
		cr.ITLBMissRate = s.chips[i].ITLB.MissRate()
		cr.DTLBMissRate = s.chips[i].DTLB.MissRate()
		cr.TLBStallCycles = s.chips[i].TLBStallCycles
		r.CPUs = append(r.CPUs, cr)
		r.Committed += c.Stats.Committed
	}
	r.Coherence = s.ctrl.Stats
	r.BusWaitCycles = s.bus.WaitCycles()
	r.DRAMWaitCycles = s.dram.WaitCycles()
	return r
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f l1i=%.4f l1d=%.4f l2=%.4f bpfail=%.4f",
		r.Name, r.Workload, r.IPC(), r.L1IMissRate(), r.L1DMissRate(),
		r.L2DemandMissRate(), r.BranchFailureRate())
}

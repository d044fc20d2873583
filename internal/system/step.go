package system

import "context"

// Lockstep stepping. A batched sweep (internal/core RunBatch) advances N
// independent machines against one shared trace stream; it needs to tick
// each machine a bounded number of cycles per round instead of running it
// to completion. Step and RunContext share one drive loop (advance) with
// the same termination semantics, so a machine driven by repeated Step
// calls evolves byte-identically to one driven by a single RunContext call
// (pinned by TestStepMatchesRunContext).

// Step advances the machine by at most n cycles, stopping early when every
// CPU drains or the cycle cap is reached. It returns done (machine drained)
// and capped (cycle cap hit); both false means the machine simply used its
// n cycles and wants more. The cap is checked before the drain test each
// cycle, matching RunContext, so a machine that drains exactly at the cap
// reports capped — the two drivers classify every run identically. Step
// never advances more than n cycles, even when every CPU sleeps past them,
// so no CPU ticks more than n times: the batch driver sizes its trace
// reads by that.
func (s *System) Step(n int, maxCycles uint64) (done, capped bool) {
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	s.advance(context.Background(), min(maxCycles, s.cycle+uint64(max(n, 0))))
	if s.cycle >= maxCycles {
		return false, true
	}
	return s.Done(), false
}

// SourceReadBound returns the most trace records CPU i can consume in one
// cycle.
func (s *System) SourceReadBound(i int) int { return s.cpus[i].SourceReadBound() }

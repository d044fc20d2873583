package system

import (
	"context"
	"encoding/json"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/workload"
)

// tickEveryCycle is the reference drive loop: every CPU ticked on every
// cycle, with RunContext's termination rule, leaving the clock where the
// run stopped. It returns the cycles run, whether the cap was hit, and the
// smallest wake bound the CPUs returned at each cycle.
func tickEveryCycle(s *System, maxCycles uint64) (uint64, bool, []uint64) {
	var wakes []uint64
	var cycle uint64
	for ; cycle < maxCycles && !s.Done(); cycle++ {
		w := never
		for _, c := range s.cpus {
			w = min(w, c.Tick(cycle))
		}
		wakes = append(wakes, w)
	}
	s.cycle = cycle
	return cycle, cycle >= maxCycles, wakes
}

func newSkipTestSystem(t *testing.T, cpus int, p workload.Profile, insts int, warmup uint64) *System {
	t.Helper()
	cfg := config.Base().WithCPUs(cpus)
	cfg.WarmupInsts = warmup
	s, err := New(cfg, sources(p, cpus, insts))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCapInsideQuietStretch: a cycle cap that falls inside a stretch the
// drive loop jumps over (every CPU asleep) must stop the clock at the cap
// with the sleepers credited up to it, exactly as the per-cycle loop does.
func TestCapInsideQuietStretch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cpus  int
		p     workload.Profile
		insts int
	}{
		{"up-tpcc", 1, workload.TPCC(), 8_000},
		{"4p-tpcc", 4, workload.TPCC(), 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, wakes := tickEveryCycle(newSkipTestSystem(t, tc.cpus, tc.p, tc.insts, uint64(tc.insts/5)), 1<<40)
			// The first post-warm-up cycle at which every CPU sleeps for
			// at least two more cycles; the cap lands one cycle into it.
			var capAt uint64
			for c := len(wakes) / 2; c < len(wakes); c++ {
				if wakes[c] >= uint64(c)+3 {
					capAt = uint64(c) + 2
					break
				}
			}
			if capAt == 0 {
				t.Fatal("no quiet stretch found")
			}

			ref := newSkipTestSystem(t, tc.cpus, tc.p, tc.insts, uint64(tc.insts/5))
			wantCycles, wantCapped, _ := tickEveryCycle(ref, capAt)
			want, _ := json.Marshal(ref.Report(tc.p.Name))

			s := newSkipTestSystem(t, tc.cpus, tc.p, tc.insts, uint64(tc.insts/5))
			cycles, capped, err := s.RunContext(context.Background(), capAt)
			if err != nil {
				t.Fatal(err)
			}
			if cycles != wantCycles || capped != wantCapped || !capped {
				t.Fatalf("RunContext = (%d, capped %v), per-cycle loop = (%d, capped %v)",
					cycles, capped, wantCycles, wantCapped)
			}
			if got, _ := json.Marshal(s.Report(tc.p.Name)); string(got) != string(want) {
				t.Errorf("capped report differs from the per-cycle loop:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestSleepingCPUsSkipCycles: on TPC-C most per-CPU ticks change nothing,
// so the drive loop must credit a large share of the cycles instead of
// ticking them — and report exactly what the per-cycle loop reports. No
// warm-up, so the CPUs' cycle counters cover the whole run.
func TestSleepingCPUsSkipCycles(t *testing.T) {
	const insts = 4_000
	ref := newSkipTestSystem(t, 4, workload.TPCC(), insts, 0)
	wantCycles, _, _ := tickEveryCycle(ref, 1<<40)
	want, _ := json.Marshal(ref.Report("tpcc"))

	s := newSkipTestSystem(t, 4, workload.TPCC(), insts, 0)
	before := skippedCycles.Value()
	cycles, capped, _ := s.RunContext(context.Background(), 0)
	skipped := skippedCycles.Value() - before
	if capped || cycles != wantCycles {
		t.Fatalf("Run = (%d, capped %v), per-cycle loop ran %d cycles", cycles, capped, wantCycles)
	}
	if got, _ := json.Marshal(s.Report("tpcc")); string(got) != string(want) {
		t.Error("report differs from the per-cycle loop")
	}
	var live uint64
	for _, c := range s.cpus {
		live += c.Stats.Cycles
	}
	t.Logf("skipped %d of %d CPU cycles (%.0f%%)", skipped, live, 100*float64(skipped)/float64(live))
	if skipped > live || skipped*2 < live {
		t.Errorf("skipped %d of %d CPU cycles; want at least half", skipped, live)
	}
}

package metamorph

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/system"
)

// These tests arm the process-global fault injector, so none of them may
// run in parallel.

func TestQuickCatalogPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog")
	}
	rep, err := Run(context.Background(), Options{Insts: 10_000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range rep.Verdicts {
		if v.Status != StatusPass {
			t.Errorf("%s: %s: %s", v.Check, v.Status, v.Detail)
		}
	}
	if !rep.OK() {
		t.Fatalf("quick catalog not OK: %d fail, %d errors", rep.Fail, rep.Errors)
	}
	if rep.Mode != "quick" || rep.Fault != "none" {
		t.Fatalf("report header wrong: mode=%q fault=%q", rep.Mode, rep.Fault)
	}
}

// TestInjectedFaultCaught is the harness's self-test: a planted index-bit
// bug must fail at least one monotonicity or differential check in quick
// mode, or the catalog is security theater.
func TestInjectedFaultCaught(t *testing.T) {
	cache.InjectFault(cache.FaultIndexBits)
	defer cache.InjectFault(cache.FaultNone)
	rep, err := Run(context.Background(), Options{Insts: 10_000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Fault != "l1index" {
		t.Fatalf("report fault = %q, want l1index", rep.Fault)
	}
	if rep.Errors > 0 {
		for _, v := range rep.Verdicts {
			if v.Status == StatusError {
				t.Errorf("harness error in %s: %s", v.Check, v.Detail)
			}
		}
	}
	caught := false
	for _, v := range rep.Verdicts {
		if v.Status == StatusFail && (v.Kind == "monotonicity" || v.Kind == "differential") {
			caught = true
			t.Logf("fault caught by %s: %s", v.Check, v.Detail)
		}
	}
	if !caught {
		t.Fatalf("injected l1index fault escaped the quick catalog: %+v", rep.Verdicts)
	}
}

// TestInjectedCoherenceFaultCaught is the TSO harness's self-test: a
// coherence controller that drops invalidations must fail the
// tso-outcomes check — stale copies survive in remote chips and the
// litmus sweeps observe forbidden outcomes.
func TestInjectedCoherenceFaultCaught(t *testing.T) {
	coherence.InjectFault(coherence.FaultDropInvalidate)
	defer coherence.InjectFault(coherence.FaultNone)
	rep, err := Run(context.Background(), Options{Checks: []string{"tso-outcomes"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Fault != "dropinval" {
		t.Fatalf("report fault = %q, want dropinval", rep.Fault)
	}
	if rep.Errors > 0 || rep.Fail == 0 {
		t.Fatalf("injected dropinval fault escaped tso-outcomes: %+v", rep.Verdicts)
	}
	t.Logf("fault caught: %s", rep.Verdicts[0].Detail)
}

// TestInjectedLateWakeCaught is the cycle-skip gate's self-test: a drive
// loop that wakes sleeping CPUs one cycle after their bound must fail
// diff-skip-replay.
func TestInjectedLateWakeCaught(t *testing.T) {
	system.InjectFault(system.FaultLateWake)
	defer system.InjectFault(system.FaultNone)
	rep, err := Run(context.Background(), Options{Insts: 10_000, Checks: []string{"diff-skip-replay"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Fault != "latewake" {
		t.Fatalf("report fault = %q, want latewake", rep.Fault)
	}
	if rep.Errors > 0 || rep.Fail == 0 {
		t.Fatalf("injected latewake fault escaped diff-skip-replay: %+v", rep.Verdicts)
	}
	t.Logf("fault caught: %s", rep.Verdicts[0].Detail)
}

func TestCheckSelection(t *testing.T) {
	if _, err := Run(context.Background(), Options{Checks: []string{"no-such-check"}}); err == nil {
		t.Fatal("unknown check name accepted")
	}
	rep, err := Run(context.Background(), Options{
		Insts:  5_000,
		Checks: []string{"conserve-counts", "diff-cache-shadow"},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(rep.Verdicts))
	}
	if rep.Verdicts[0].Check != "conserve-counts" || rep.Verdicts[1].Check != "diff-cache-shadow" {
		t.Fatalf("verdicts out of order: %+v", rep.Verdicts)
	}
}

// TestUnknownCheckErrorListsNames pins the unknown-check error message: it
// must list every valid name, including caller-supplied Extra checks —
// cmd/verify users see this text when they typo a -checks value.
func TestUnknownCheckErrorListsNames(t *testing.T) {
	extra := Check{Name: "extra-gateway-check", Kind: "differential",
		Run: func(context.Context, *Env) (string, error) { return "", nil }}
	_, err := Run(context.Background(), Options{
		Checks: []string{"no-such-check"},
		Extra:  []Check{extra},
	})
	if err == nil {
		t.Fatal("unknown check name accepted")
	}
	for _, want := range []string{"tso-outcomes", "extra-gateway-check", "mono-l1-size"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Catalog() {
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Kind != "monotonicity" && c.Kind != "conservation" && c.Kind != "differential" && c.Kind != "conformance" {
			t.Errorf("%s: unknown kind %q", c.Name, c.Kind)
		}
		if c.Run == nil {
			t.Errorf("%s: nil Run", c.Name)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(context.Background(), Options{Insts: 5_000, Checks: []string{"diff-cache-shadow"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.ModelVersion != rep.ModelVersion || len(back.Verdicts) != len(rep.Verdicts) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestShadowCacheLRU pins the oracle's own semantics with a hand-computed
// access pattern on a tiny 2-set 2-way cache (16-byte lines).
func TestShadowCacheLRU(t *testing.T) {
	s := newShadow(config.CacheGeometry{SizeBytes: 64, Ways: 2, LineBytes: 16, HitCycles: 1})
	steps := []struct {
		addr uint64
		hit  bool
	}{
		{0x00, false}, // line 0 -> set 0
		{0x0f, true},  // same line
		{0x20, false}, // line 2 -> set 0
		{0x00, true},  // still resident
		{0x40, false}, // line 4 -> set 0: evicts LRU (line 2)
		{0x20, false}, // line 2 gone
		{0x00, false}, // line 0 was LRU when line 2 refilled
		{0x10, false}, // line 1 -> set 1: other set untouched
		{0x10, true},
	}
	for i, st := range steps {
		if got := s.access(st.addr); got != st.hit {
			t.Fatalf("step %d (addr %#x): hit=%v, want %v", i, st.addr, got, st.hit)
		}
	}
}

// TestShadowAgreesWithCache cross-checks the two implementations on a
// pseudo-random stream over a small geometry — the same comparison
// diff-cache-shadow runs on real traces, minus the simulator.
func TestShadowAgreesWithCache(t *testing.T) {
	geo := config.CacheGeometry{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitCycles: 1}
	real := cache.New(geo)
	shadow := newShadow(geo)
	x := uint64(0x2545f491)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (32 << 10) // 8x the cache: plenty of eviction
		realHit := real.Access(addr) != nil
		if !realHit {
			real.Fill(addr, cache.Exclusive, false)
		}
		if shadowHit := shadow.access(addr); realHit != shadowHit {
			t.Fatalf("access %d (addr %#x): cache hit=%v, shadow hit=%v",
				i, addr, realHit, shadowHit)
		}
	}
	if err := real.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

package core

// Tests for the sampled-simulation driver: accuracy against the full run,
// determinism, degenerate schedules (short traces, oversized windows,
// zero-length fast-forward), cancellation conservation, and cache-key
// separation between sampled and full runs.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// sampleSchedule is the stock test schedule: ~8 measurement windows on a
// 400k-instruction trace with 7/8 of the trace fast-forwarded.
func sampleSchedule() config.Sampling {
	return config.Sampling{IntervalInsts: 50_000, WarmupInsts: 2_000, MeasureInsts: 4_000}
}

// conserveSampled asserts the PR 4 conservation invariant on a sampled
// report: every CPU fetched at least as much as it committed, and the
// per-class commit split sums to Committed.
func conserveSampled(t *testing.T, r system.Report) {
	t.Helper()
	for i := range r.CPUs {
		c := &r.CPUs[i].Core
		if c.Fetched < c.Committed {
			t.Errorf("cpu%d: fetched %d < committed %d", i, c.Fetched, c.Committed)
		}
		var sum uint64
		for _, n := range c.CommittedByClass {
			sum += n
		}
		if sum != c.Committed {
			t.Errorf("cpu%d: class sum %d != committed %d", i, sum, c.Committed)
		}
	}
}

func TestSampledCPIMatchesFull(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{Insts: 400_000}
	full, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sample = sampleSchedule()
	sampled, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sampling == nil {
		t.Fatal("sampled report has no Sampling info")
	}
	if sampled.Sampling.Windows < 4 {
		t.Fatalf("only %d measurement windows", sampled.Sampling.Windows)
	}
	fullCPI := 1 / full.IPC()
	sampCPI := 1 / sampled.IPC()
	relErr := (sampCPI - fullCPI) / fullCPI
	if relErr < 0 {
		relErr = -relErr
	}
	t.Logf("full CPI %.4f, sampled CPI %.4f, rel err %.2f%%, windows %d, half95 %.4f",
		fullCPI, sampCPI, 100*relErr, sampled.Sampling.Windows, sampled.Sampling.CPIHalf95)
	if relErr > 0.05 {
		t.Errorf("sampled CPI error %.2f%% exceeds 5%%", 100*relErr)
	}
	// The fast-forward/detailed split must match the schedule: 7/8 of the
	// trace fast-forwarded, the rest detailed.
	si := sampled.Sampling
	if si.FastForwarded == 0 || si.DetailedInsts == 0 {
		t.Errorf("mode split degenerate: ff=%d detailed=%d", si.FastForwarded, si.DetailedInsts)
	}
	if si.FastForwarded+si.DetailedInsts != 400_000 {
		t.Errorf("ff %d + detailed %d != trace length", si.FastForwarded, si.DetailedInsts)
	}
	if si.MeasuredInsts != sampled.Committed {
		t.Errorf("MeasuredInsts %d != Committed %d", si.MeasuredInsts, sampled.Committed)
	}
	conserveSampled(t, sampled)
}

func TestSampledReportDeterministic(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{Insts: 100_000, Sample: sampleSchedule()}
	opt.Sample.IntervalInsts = 20_000
	var got [2][]byte
	for i := range got {
		r, err := m.RunContext(context.Background(), workload.TPCC(), opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = b
	}
	if string(got[0]) != string(got[1]) {
		t.Error("two identical sampled runs produced different reports")
	}
}

// TestSampledShortTrace: trace shorter than one warm-up window. The driver
// must fall back to reporting whatever ran in detail rather than returning
// an empty report.
func TestSampledShortTrace(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{
		Insts:  1_000,
		Sample: config.Sampling{IntervalInsts: 50_000, WarmupInsts: 5_000, MeasureInsts: 4_000},
	}
	r, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("short-trace sampled run reported zero commits")
	}
	if r.IPC() <= 0 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.Sampling == nil || r.Sampling.Windows != 1 {
		t.Errorf("fallback should report one window, got %+v", r.Sampling)
	}
	conserveSampled(t, r)
}

// TestSampledMeasureLongerThanTrace: the measurement window exceeds the
// whole trace (zero warm-up), so the single window truncates at trace end.
// The classic warm-up region (RunOptions.Warmup, here the Insts/5 default =
// 2k) is fast-forwarded first, exactly as a full run excludes it from its
// measurement, so the window measures the remaining 8k.
func TestSampledMeasureLongerThanTrace(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{
		Insts:  10_000,
		Sample: config.Sampling{IntervalInsts: 100_000, WarmupInsts: 0, MeasureInsts: 50_000},
	}
	r, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 8_000 {
		t.Errorf("committed %d, want the full post-warm-up trace (8k) measured", r.Committed)
	}
	if r.Sampling.FastForwarded != 2_000 {
		t.Errorf("fast-forwarded %d, want the 2k classic warm-up region", r.Sampling.FastForwarded)
	}
	conserveSampled(t, r)
}

// TestSampledZeroFastForward: interval == warmup+measure leaves no
// fast-forward gap between intervals — the run degenerates to detailed
// execution with periodic measurement boundaries (only the initial classic
// warm-up region is fast-forwarded) and must still agree with the full run.
func TestSampledZeroFastForward(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{Insts: 60_000}
	full, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sample = config.Sampling{IntervalInsts: 10_000, WarmupInsts: 5_000, MeasureInsts: 5_000}
	r, err := m.RunContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Only the classic Insts/5 warm-up region may be fast-forwarded.
	if r.Sampling.FastForwarded != 12_000 {
		t.Errorf("fast-forwarded %d instructions, want only the 12k warm-up region", r.Sampling.FastForwarded)
	}
	if r.Sampling.DetailedInsts != 48_000 {
		t.Errorf("detailed %d, want all 48k post-warm-up instructions", r.Sampling.DetailedInsts)
	}
	fullCPI, sampCPI := 1/full.IPC(), 1/r.IPC()
	relErr := (sampCPI - fullCPI) / fullCPI
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.10 {
		t.Errorf("zero-gap sampled CPI error %.2f%% vs full", 100*relErr)
	}
	conserveSampled(t, r)
}

// TestSampledCancelMidWindow: cancellation mid-run returns a partial report
// that still satisfies fetched ≥ committed (the PR 4 regression), wrapped
// around the context error.
func TestSampledCancelMidWindow(t *testing.T) {
	m, _ := NewModel(config.Base())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := RunOptions{Insts: 200_000, Sample: sampleSchedule()}
	r, err := m.RunContext(ctx, workload.SPECint95(), opt)
	if err == nil {
		t.Fatal("cancelled sampled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("err = %v", err)
	}
	conserveSampled(t, r)
}

// TestSampledMP: sampling works on the multiprocessor configuration
// (per-chip functional warming, detailed windows re-establishing coherence).
func TestSampledMP(t *testing.T) {
	m, _ := NewModel(config.Base().WithCPUs(4))
	opt := RunOptions{
		Insts:  40_000,
		Sample: config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 2_000},
	}
	r, err := m.RunContext(context.Background(), workload.TPCC16P(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CPUs) != 4 {
		t.Fatalf("got %d CPU reports", len(r.CPUs))
	}
	for i := range r.CPUs {
		if r.CPUs[i].Core.Committed == 0 {
			t.Errorf("cpu%d measured zero commits", i)
		}
	}
	conserveSampled(t, r)
}

// TestSampledCacheKeySeparation: a sampled run and a full run of identical
// inputs must hash to different content addresses, and a cache warmed by
// one must never serve the other.
func TestSampledCacheKeySeparation(t *testing.T) {
	m, _ := NewModel(config.Base())
	full := RunOptions{Insts: 30_000}
	samp := full
	samp.Sample = config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 2_000}

	kFull, err := m.RunKey(workload.SPECint95(), full)
	if err != nil {
		t.Fatal(err)
	}
	kSamp, err := m.RunKey(workload.SPECint95(), samp)
	if err != nil {
		t.Fatal(err)
	}
	if kFull.ID() == kSamp.ID() {
		t.Fatal("sampled and full runs share a cache key")
	}
	if kSamp.Sampling == "" || kFull.Sampling != "" {
		t.Errorf("Sampling key fields: full=%q sampled=%q", kFull.Sampling, kSamp.Sampling)
	}

	// Warm a cache with the full run, then request the sampled run — and
	// vice versa. Each direction must miss (simulate fresh), never serve
	// the other population's report.
	cache, err := runcache.New(runcache.Options{MaxMemEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	full.Cache, samp.Cache = cache, cache
	rFull, err := m.RunContext(context.Background(), workload.SPECint95(), full)
	if err != nil {
		t.Fatal(err)
	}
	rSamp, err := m.RunContext(context.Background(), workload.SPECint95(), samp)
	if err != nil {
		t.Fatal(err)
	}
	if rSamp.Sampling == nil {
		t.Fatal("sampled request served a full-run report (no Sampling info)")
	}
	st := cache.Stats()
	if st.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (no cross-serving)", st.Misses)
	}
	// Re-requests now hit, each from its own entry.
	rFull2, err := m.RunContext(context.Background(), workload.SPECint95(), full)
	if err != nil {
		t.Fatal(err)
	}
	rSamp2, err := m.RunContext(context.Background(), workload.SPECint95(), samp)
	if err != nil {
		t.Fatal(err)
	}
	if rFull2.Sampling != nil {
		t.Error("full request served a sampled report")
	}
	if rSamp2.Sampling == nil {
		t.Error("sampled request served a full-run report")
	}
	if rFull2.Cycles != rFull.Cycles || rSamp2.Cycles != rSamp.Cycles {
		t.Error("cache round trip changed reports")
	}
}

// TestSampledSingleWindowMarshals (regression): a schedule that completes
// exactly one measurement window has no variance estimate — the naive
// estimator divides by n-1 == 0, which would set CPIStd/CPIHalf95 to NaN,
// and encoding/json rejects NaN, so the whole Report would fail to marshal
// and poison the runcache disk tier. The pinned contract: Windows == 1 is
// the explicit "no spread estimate" marker, with CPIStd and CPIHalf95
// clamped to zero and the report round-tripping through JSON and the
// on-disk cache.
func TestSampledSingleWindowMarshals(t *testing.T) {
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	opt := RunOptions{
		Insts:  30_000,
		Sample: config.Sampling{IntervalInsts: 50_000, WarmupInsts: 2_000, MeasureInsts: 4_000},
	}
	r, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	si := r.Sampling
	if si == nil || si.Windows != 1 {
		t.Fatalf("want exactly one window, got %+v", si)
	}
	if si.CPIStd != 0 || si.CPIHalf95 != 0 {
		t.Errorf("single window must clamp spread estimates to 0, got std=%v half95=%v",
			si.CPIStd, si.CPIHalf95)
	}
	if si.CPIMean <= 0 {
		t.Errorf("CPIMean = %v, want > 0", si.CPIMean)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("single-window report does not marshal: %v", err)
	}
	if strings.Contains(string(b), "NaN") {
		t.Error("marshaled report contains NaN")
	}

	// The same report must survive the cache's disk tier: store it, then
	// read it back through a fresh cache rooted at the same directory.
	dir := t.TempDir()
	cache, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, err := m.runKey(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, r)
	cold, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cold.Get(key)
	if !ok {
		t.Fatal("single-window report missing from disk cache")
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(b) {
		t.Error("disk-cache roundtrip changed the report")
	}
}

// TestSanitizeSampling pins the clamp itself: non-finite inputs never
// survive, and a single window zeroes the spread fields even when finite.
func TestSanitizeSampling(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		in   system.SamplingInfo
		want [3]float64 // CPIMean, CPIStd, CPIHalf95
	}{
		{"nan spread single window", system.SamplingInfo{Windows: 1, CPIMean: 1.5, CPIStd: nan, CPIHalf95: nan},
			[3]float64{1.5, 0, 0}},
		{"finite spread single window", system.SamplingInfo{Windows: 1, CPIMean: 1.5, CPIStd: 0.2, CPIHalf95: 0.1},
			[3]float64{1.5, 0, 0}},
		{"nan mean", system.SamplingInfo{Windows: 3, CPIMean: nan, CPIStd: 0.2, CPIHalf95: 0.1},
			[3]float64{0, 0.2, 0.1}},
		{"inf spread multi window", system.SamplingInfo{Windows: 3, CPIMean: 1.2, CPIStd: math.Inf(1), CPIHalf95: math.Inf(-1)},
			[3]float64{1.2, 0, 0}},
		{"finite multi window untouched", system.SamplingInfo{Windows: 3, CPIMean: 1.2, CPIStd: 0.2, CPIHalf95: 0.1},
			[3]float64{1.2, 0.2, 0.1}},
	}
	for _, c := range cases {
		info := c.in
		sanitizeSampling(&info)
		got := [3]float64{info.CPIMean, info.CPIStd, info.CPIHalf95}
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

package core

// Full-run vs sampled-run benchmarks: the pair that quantifies the sampled
// simulation speedup on identical inputs, plus a 16P full run for the SMP
// path. The benchdiff gate
// (scripts/benchdiff.sh) tracks both, so a regression that erodes the
// fast-forward advantage — or an allocation added to either path — fails CI.
// The headline multiprocessor speedup artifact (BENCH_*.json) is produced
// from these numbers plus the MP validation run in DESIGN.md.

import (
	"context"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/workload"
)

// benchSampleSchedule is the benchmark schedule: 12.5% of each interval in
// detailed mode, matching the validation schedules in EXPERIMENTS.md.
func benchSampleSchedule() config.Sampling {
	return config.Sampling{IntervalInsts: 40_000, WarmupInsts: 2_000, MeasureInsts: 3_000}
}

func benchRun(b *testing.B, opt RunOptions) {
	benchRunOn(b, config.Base(), workload.SPECint95(), opt)
}

func benchRunOn(b *testing.B, cfg config.Config, p workload.Profile, opt RunOptions) {
	b.Helper()
	b.ReportAllocs()
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.RunContext(context.Background(), p, opt)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(r.Committed)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkFullRun(b *testing.B) {
	benchRun(b, RunOptions{Insts: 120_000})
}

// BenchmarkFullRunSMP is the 16P TPC-C point of the SMP benchmark: 16
// generators, the snoop bus and DRAM contention, and cores that spend most
// cycles asleep waiting on memory.
func BenchmarkFullRunSMP(b *testing.B) {
	benchRunOn(b, config.Base().WithCPUs(16), workload.TPCC16P(), RunOptions{Insts: 8_000})
}

func BenchmarkSampledRun(b *testing.B) {
	benchRun(b, RunOptions{Insts: 120_000, Sample: benchSampleSchedule()})
}

// benchSweep runs the stock 8-configuration neighborhood (the batch tests'
// batchNeighborhood) against one SPECint95 trace, either as eight serial
// runs — each re-generating the trace — or as one lockstep batch sharing a
// single decoded stream. Sampled mode is where batching pays: the detailed
// windows are a small slice of each run, so the per-member cost is
// dominated by exactly the frontend work the batch amortizes. The
// Serial/Batched pair in the benchdiff baseline records the speedup; the
// gate fails if a regression erodes it back toward serial cost.
func benchSweep(b *testing.B, batch bool, opt RunOptions) {
	b.Helper()
	b.ReportAllocs()
	cfgs := batchNeighborhood()
	p := workload.SPECint95()
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			reps, errs := RunBatch(context.Background(), cfgs, p, opt)
			for j := range reps {
				if errs[j] != nil {
					b.Fatal(errs[j])
				}
				total += int64(reps[j].Committed)
			}
			continue
		}
		for _, cfg := range cfgs {
			m, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := m.RunContext(context.Background(), p, opt)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(r.Committed)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func sampledSweepOpt() RunOptions {
	return RunOptions{Insts: 400_000, Sample: benchSampleSchedule()}
}

func BenchmarkSerialSweep(b *testing.B)  { benchSweep(b, false, sampledSweepOpt()) }
func BenchmarkBatchedSweep(b *testing.B) { benchSweep(b, true, sampledSweepOpt()) }

// BenchmarkBatchedFullSweep gates the full-run side of the lockstep loop:
// the same neighborhood batched over an unsampled trace.
func BenchmarkBatchedFullSweep(b *testing.B) {
	benchSweep(b, true, RunOptions{Insts: 150_000})
}

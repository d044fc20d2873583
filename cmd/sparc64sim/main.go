// Command sparc64sim runs the SPARC64 V performance model on one workload
// and configuration and prints the report.
//
// Examples:
//
//	sparc64sim -workload tpcc -insts 500000
//	sparc64sim -workload specint95 -issue 2 -breakdown
//	sparc64sim -workload tpcc16p -cpus 16 -l2 off.8m-1w
//	sparc64sim -trace trace.s64v
//	sparc64sim -litmus sb               # TSO litmus sweep with verdict
//	sparc64sim -litmus all -cpus 4      # whole catalog, padded machine
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "specint95", "workload: specint95|specfp95|specint2000|specfp2000|tpcc|tpcc16p")
		traceFile    = flag.String("trace", "", "run a trace file instead of a synthetic workload")
		insts        = flag.Int("insts", 400_000, "instructions to simulate per CPU")
		seed         = flag.Int64("seed", 42, "workload generator seed")
		cpus         = flag.Int("cpus", 0, "processor count (0 = workload default)")
		issue        = flag.Int("issue", 4, "issue width (4 or 2)")
		bht          = flag.String("bht", "16k-4w.2t", "BHT geometry: 16k-4w.2t|4k-2w.1t")
		l1           = flag.String("l1", "128k-2w.4c", "L1 geometry: 128k-2w.4c|32k-1w.3c")
		l2           = flag.String("l2", "on.2m-4w", "L2 geometry: on.2m-4w|off.8m-2w|off.8m-1w")
		noPrefetch   = flag.Bool("no-prefetch", false, "disable the L2 hardware prefetcher")
		oneRS        = flag.Bool("1rs", false, "fused single reservation station per unit class")
		breakdown    = flag.Bool("breakdown", false, "run the Figure 7 perfect-ization breakdown")
		sample       = flag.String("sample", "", "sampled simulation: off|auto|interval=N,warmup=N,measure=N[,offset=N]")
		litmusName   = flag.String("litmus", "", "run a TSO litmus sweep instead of a workload: shape name or \"all\"")
		litmusSeeds  = flag.Int("litmus-seeds", 32, "seeds per litmus sweep")
		workers      = flag.Int("workers", 0, "parallel litmus runs (0 = GOMAXPROCS)")
		verbose      = flag.Bool("v", false, "print per-CPU detail")
		jsonOut      = flag.Bool("json", false, "emit the report as JSON")
		configFile   = flag.String("config", "", "JSON config overlay applied on top of the preset")
		dumpConfig   = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
	)
	flag.Parse()

	if *litmusName != "" {
		// Litmus sweeps use their own dedicated machine (litmus.BaseConfig):
		// -cpus pads the machine with bystander chips, -seed offsets the
		// per-run seeds.
		runLitmus(*litmusName, *litmusSeeds, *seed, *cpus, *workers, *jsonOut)
		return
	}

	cfg := config.Base()
	if *issue != 4 {
		cfg = cfg.WithIssueWidth(*issue)
	}
	switch *bht {
	case "16k-4w.2t":
	case "4k-2w.1t":
		cfg = cfg.WithSmallBHT()
	default:
		fatal("unknown -bht %q", *bht)
	}
	switch *l1 {
	case "128k-2w.4c":
	case "32k-1w.3c":
		cfg = cfg.WithSmallL1()
	default:
		fatal("unknown -l1 %q", *l1)
	}
	switch *l2 {
	case "on.2m-4w":
	case "off.8m-2w":
		cfg = cfg.WithOffChipL2(2)
	case "off.8m-1w":
		cfg = cfg.WithOffChipL2(1)
	default:
		fatal("unknown -l2 %q", *l2)
	}
	if *noPrefetch {
		cfg = cfg.WithoutPrefetch()
	}
	if *oneRS {
		cfg = cfg.WithOneRS()
	}
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			fatal("%v", err)
		}
		cfg, err = config.OverlayJSON(cfg, f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	}
	if *dumpConfig {
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	opt := core.RunOptions{Insts: *insts, Seed: *seed}
	var err error
	if opt.Sample, err = config.ParseSampling(*sample, *insts); err != nil {
		fatal("%v", err)
	}
	if opt.Sample.Enabled() && *breakdown {
		fatal("-sample and -breakdown are mutually exclusive")
	}

	if *traceFile != "" {
		runTraceFile(cfg, *traceFile, opt, *verbose, *jsonOut)
		return
	}

	prof, ok := workload.ByName(*workloadName)
	if !ok {
		fatal("unknown -workload %q (have %v)", *workloadName, workload.Names())
	}
	if *cpus > 0 {
		cfg = cfg.WithCPUs(*cpus)
	} else if prof.SharedBytes > 0 {
		cfg = cfg.WithCPUs(16)
	}

	m, err := core.NewModel(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *breakdown {
		br, err := m.BreakdownContext(context.Background(), prof, opt)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s on %s (%d insts/cpu)\n", prof.Name, cfg.Name, *insts)
		fmt.Printf("  IPC %.3f, breakdown: %s\n", br.Base.IPC(), br.Breakdown.String())
		return
	}
	r, err := m.RunContext(context.Background(), prof, opt)
	if err != nil {
		fatal("%v", err)
	}
	if *jsonOut {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	printReport(&r, *verbose)
}

func runTraceFile(cfg config.Config, path string, opt core.RunOptions, verbose, jsonOut bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	rd, err := trace.OpenReader(f)
	if err != nil {
		fatal("%v", err)
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		fatal("%v", err)
	}
	r, err := m.RunSourcesContext(context.Background(), path, []trace.Source{rd}, opt)
	if err != nil {
		fatal("%v", err)
	}
	if rd.Err() != nil {
		fatal("trace error: %v", rd.Err())
	}
	if jsonOut {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	printReport(&r, verbose)
}

func printReport(r *system.Report, verbose bool) {
	t := stats.NewTable(fmt.Sprintf("%s / %s", r.Name, r.Workload), "metric", "value")
	t.AddRow("IPC", r.IPC())
	t.AddRow("cycles", r.MeasuredCycles())
	t.AddRow("instructions", r.Committed)
	t.AddRow("L1I miss ratio", r.L1IMissRate())
	t.AddRow("L1D miss ratio", r.L1DMissRate())
	t.AddRow("L2 miss ratio (demand)", r.L2DemandMissRate())
	t.AddRow("L2 miss ratio (with prefetch)", r.L2TotalMissRate())
	t.AddRow("branch failure rate", r.BranchFailureRate())
	t.AddRow("bus wait cycles", r.BusWaitCycles)
	t.AddRow("memory reads", r.Coherence.MemoryReads)
	t.AddRow("cache-to-cache transfers", r.Coherence.CacheTransfers)
	t.AddRow("invalidations", r.Coherence.Invalidations)
	fmt.Print(t.String())
	if s := r.Sampling; s != nil {
		fmt.Printf("sampled: %d windows (interval=%d warmup=%d measure=%d), ff=%d detailed=%d insts, CPI %.4f ± %.4f (95%%)\n",
			s.Windows, s.Interval, s.Warmup, s.Measure,
			s.FastForwarded, s.DetailedInsts, s.CPIMean, s.CPIHalf95)
	}
	if verbose {
		for i := range r.CPUs {
			c := &r.CPUs[i]
			fmt.Printf("cpu%d: IPC=%.3f cancels=%d bankConflicts=%d stalls(win/rn/rs/lq/sq)=%d/%d/%d/%d/%d\n",
				i, c.IPC(), c.Core.SpecCancels, c.Core.BankConflicts,
				c.Core.StallWindow, c.Core.StallRename, c.Core.StallRS,
				c.Core.StallLQ, c.Core.StallSQ)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sparc64sim: "+format+"\n", args...)
	os.Exit(1)
}

// Command pipeview renders a per-instruction pipeline trace: when each
// instruction fetched, issued, dispatched, completed and committed, plus a
// gem5-style occupancy lane. This is the tooling counterpart of the
// paper's detailed model-vs-logic-simulator comparisons.
//
// Example:
//
//	pipeview -workload specint95 -skip 2000 -n 40 -lanes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "specint95", "workload name")
		skip         = flag.Int("skip", 1000, "instructions to skip before tracing")
		n            = flag.Int("n", 30, "instructions to trace")
		lanes        = flag.Bool("lanes", false, "render occupancy lanes instead of timestamps")
		seed         = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	prof, ok := profileByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "pipeview: unknown workload %q\n", *workloadName)
		os.Exit(1)
	}
	cfg := config.Base()
	cfg.WarmupInsts = 0
	src := trace.NewLimitSource(workload.New(prof, *seed, 0), *skip+*n+500)
	sys, err := system.New(cfg, []trace.Source{src})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeview:", err)
		os.Exit(1)
	}
	var events []cpu.PipeEvent
	sys.CPU(0).SetPipeTracer(func(e *cpu.PipeEvent) {
		if int(e.Seq) >= *skip && len(events) < *n {
			events = append(events, *e)
		}
	})
	sys.RunContext(context.Background(), 100_000_000)

	if len(events) == 0 {
		fmt.Println("no events traced")
		return
	}
	if !*lanes {
		for i := range events {
			fmt.Println(events[i].String())
		}
		return
	}
	base := events[0].Fetch
	width := int(events[len(events)-1].Commit-base) + 2
	if width > 160 {
		width = 160
	}
	fmt.Printf("cycles %d..%d  (f=fetch/decode i=reservation station d=execute .=wait C=commit)\n",
		base, base+uint64(width))
	for i := range events {
		e := &events[i]
		tag := fmt.Sprintf("%-7s %#x", e.Op, e.PC)
		fmt.Printf("%-24s |%s|\n", tag, e.Lane(base, width))
	}
	_ = strings.TrimSpace("")
}

func profileByName(name string) (workload.Profile, bool) {
	switch strings.ToLower(name) {
	case "specint95":
		return workload.SPECint95(), true
	case "specfp95":
		return workload.SPECfp95(), true
	case "specint2000":
		return workload.SPECint2000(), true
	case "specfp2000":
		return workload.SPECfp2000(), true
	case "tpcc":
		return workload.TPCC(), true
	}
	return workload.Profile{}, false
}

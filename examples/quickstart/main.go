// Quickstart: simulate the SPARC64 V base machine (Table 1) on two
// workloads and print the headline metrics. This is the smallest useful
// program against the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"sparc64v"
)

func main() {
	ctx := context.Background()
	model, err := sparc64v.NewModel(sparc64v.BaseConfig())
	if err != nil {
		log.Fatal(err)
	}
	opt := sparc64v.RunOptions{Insts: 200_000, Seed: 1}
	for _, profile := range []sparc64v.Profile{sparc64v.SPECint95(), sparc64v.TPCC()} {
		report, err := model.RunContext(ctx, profile, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s IPC %.3f | L1I miss %.2f%% | L1D miss %.2f%% | L2 miss %.2f%% | branch fail %.2f%%\n",
			profile.Name, report.IPC(),
			100*report.L1IMissRate(), 100*report.L1DMissRate(),
			100*report.L2DemandMissRate(), 100*report.BranchFailureRate())
	}
}

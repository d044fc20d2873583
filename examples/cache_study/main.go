// Cache study: a pre-silicon design exploration in the style of the
// paper's section 4.3 — sweep the L1 and L2 alternatives on the workload
// mix and print IPC trade-off tables a hardware architect would review.
package main

import (
	"context"
	"fmt"
	"log"

	"sparc64v"
)

func main() {
	ctx := context.Background()
	workloads := sparc64v.Workloads()
	opt := sparc64v.RunOptions{Insts: 150_000}

	type variant struct {
		name string
		cfg  sparc64v.Config
	}
	l1s := []variant{
		{"128k-2w.4c", sparc64v.BaseConfig()},
		{"32k-1w.3c", sparc64v.BaseConfig().WithSmallL1()},
	}
	l2s := []variant{
		{"on.2m-4w", sparc64v.BaseConfig()},
		{"off.8m-2w", sparc64v.BaseConfig().WithOffChipL2(2)},
		{"off.8m-1w", sparc64v.BaseConfig().WithOffChipL2(1)},
	}

	run := func(cfg sparc64v.Config, p sparc64v.Profile) *sparc64v.Report {
		m, err := sparc64v.NewModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.RunContext(ctx, p, opt)
		if err != nil {
			log.Fatal(err)
		}
		return &r
	}

	fmt.Println("L1 geometry study (IPC):")
	fmt.Printf("%-12s", "workload")
	for _, v := range l1s {
		fmt.Printf("  %12s", v.name)
	}
	fmt.Println()
	for _, p := range workloads {
		fmt.Printf("%-12s", p.Name)
		for _, v := range l1s {
			fmt.Printf("  %12.3f", run(v.cfg, p).IPC())
		}
		fmt.Println()
	}

	fmt.Println("\nL2 geometry study (IPC):")
	fmt.Printf("%-12s", "workload")
	for _, v := range l2s {
		fmt.Printf("  %12s", v.name)
	}
	fmt.Println()
	for _, p := range workloads {
		fmt.Printf("%-12s", p.Name)
		for _, v := range l2s {
			fmt.Printf("  %12.3f", run(v.cfg, p).IPC())
		}
		fmt.Println()
	}
	fmt.Println("\nThe paper adopted 128k-2w.4c and on.2m-4w: the larger, slower L1 wins")
	fmt.Println("on commercial workloads, and the small on-chip L2 beats a big off-chip")
	fmt.Println("direct-mapped one despite 4x less capacity.")
}

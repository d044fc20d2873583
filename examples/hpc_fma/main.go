// HPC FMA study: the SPARC64 V targets high-performance computing as well
// as enterprise servers, and the paper singles out its *two* floating-point
// multiply-add units as "effective for HPC performance". This example
// quantifies that choice on a dense multiply-add kernel, sweeping the FL
// unit count and issue width.
package main

import (
	"context"
	"fmt"
	"log"

	"sparc64v"
)

func main() {
	ctx := context.Background()
	kernel := sparc64v.HPC()
	opt := sparc64v.RunOptions{Insts: 200_000}

	run := func(mutate func(*sparc64v.Config), label string) float64 {
		cfg := sparc64v.BaseConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		m, err := sparc64v.NewModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.RunContext(ctx, kernel, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s IPC %.3f\n", label, r.IPC())
		return r.IPC()
	}

	fmt.Printf("Dense multiply-add kernel (%s) on the SPARC64 V model:\n", kernel.Name)
	base := run(nil, "2x FL (multiply-add), 4-issue")
	one := run(func(c *sparc64v.Config) { c.CPU.FPUnits = 1 },
		"1x FL unit")
	run(func(c *sparc64v.Config) { *c = c.WithIssueWidth(2) },
		"2-issue front end")
	run(func(c *sparc64v.Config) { c.CPU.SpeculativeDispatch = false },
		"no speculative dispatch")

	fmt.Printf("\nDual multiply-add units are worth %.0f%% on this kernel —\n",
		100*(base-one)/one)
	fmt.Println("the HPC half of the paper's throughput story.")
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/server"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// perLayer lists the metrics every workload reports with --trace 1, in
// print order. BENCHMARK.json declares the same set (pinned by a test).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_ns_per_rec", "ns"},
		{"system.build_ms", "ms"},
		{"system.sim_ns_per_cycle", "ns"},
		{"system.sim_ns_per_inst", "ns"},
		{"system.report_us", "us"},
		{"system.glue_share", "ratio"},
		{"cpu.sim_cycles", "cycles"},
		{"cpu.committed", "count"},
		{"cpu.fetched", "count"},
		{"cpu.ipc", "inst/cycle"},
		{"bpred.branches", "count"},
		{"bpred.mispredicts", "count"},
		{"cache.l1i_accesses", "count"},
		{"cache.l1i_misses", "count"},
		{"cache.l1d_accesses", "count"},
		{"cache.l1d_misses", "count"},
		{"cache.l2_accesses", "count"},
		{"cache.l2_misses", "count"},
		{"tlb.stall_cycles", "cycles"},
		{"mem.bus_wait_cycles", "cycles"},
		{"mem.dram_wait_cycles", "cycles"},
		{"coherence.cache_transfers", "count"},
		{"coherence.invalidations", "count"},
		{"coherence.upgrades", "count"},
		{"coherence.memory_reads", "count"},
		{"core.run_ms_p50", "ms"},
		{"core.ff_share", "ratio"},
		{"sched.busy_share", "ratio"},
		{"runtime.alloc_bytes_per_kinst", "B/kinst"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runcache.get_hit_us_p50", "us"},
		{"runcache.hits", "count"},
		{"runcache.misses", "count"},
		{"runcache.shared", "count"},
		{"runcache.encode_us", "us"},
		{"runcache.decode_us", "us"},
		{"server.resolve_us_p50", "us"},
		{"server.handler_hit_us_p50", "us"},
		{"server.handler_estimate_us_p50", "us"},
		{"server.shed", "count"},
		{"gateway.resolve_us_p50", "us"},
		{"gateway.hop_us_p50", "us"},
		{"analytic.estimate_us_p50", "us"},
		{"client.late_ms_p99", "ms"},
		{"client.sent", "count"},
		{"client.ok", "count"},
		{"client.failed", "count"},
		{"client.slo_ok_ratio", "ratio"},
		{"client.hit_ms_p50", "ms"},
		{"client.hit_ms_p99", "ms"},
		{"client.estimate_ms_p50", "ms"},
		{"client.estimate_ms_p99", "ms"},
		{"trace.overhead_share", "ratio"},
	}
	for _, g := range profileGroups {
		defs = append(defs, metricDef{"host." + g + "_share", "ratio"})
	}
	return defs
}()

// probeReps is how many calls each direct layer probe times.
const probeReps = 400

// addCounts copies the simulated counters of a set of reports: they
// depend only on the inputs, so a host-speed change must leave them alone.
func addCounts(out *outcome, reps []system.Report) {
	var cycles, committed, fetched, br, mp, tlb, bus, dram uint64
	var acc, miss [3]uint64
	var coh struct{ xfer, inval, upg, reads uint64 }
	for i := range reps {
		r := &reps[i]
		bus += r.BusWaitCycles
		dram += r.DRAMWaitCycles
		coh.xfer += r.Coherence.CacheTransfers
		coh.inval += r.Coherence.Invalidations
		coh.upg += r.Coherence.Upgrades
		coh.reads += r.Coherence.MemoryReads
		for j := range r.CPUs {
			c := &r.CPUs[j]
			cycles += c.Core.Cycles
			committed += c.Core.Committed
			fetched += c.Core.Fetched
			br += c.Branch.Branches()
			mp += c.Branch.Mispredicts()
			tlb += c.TLBStallCycles
			for k, s := range []*struct{ a, m uint64 }{
				{c.L1I.DemandAccesses, c.L1I.DemandMisses},
				{c.L1D.DemandAccesses, c.L1D.DemandMisses},
				{c.L2.DemandAccesses, c.L2.DemandMisses},
			} {
				acc[k] += s.a
				miss[k] += s.m
			}
		}
	}
	const sim = "simulated"
	out.add("cpu.sim_cycles", float64(cycles), "cycles", sim+"; post-warm-up, summed over CPUs")
	out.add("cpu.committed", float64(committed), "count", sim+"; post-warm-up")
	out.add("cpu.fetched", float64(fetched), "count", sim)
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(committed) / float64(cycles)
	}
	out.add("cpu.ipc", ipc, "inst/cycle", sim+"; committed / per-CPU cycles")
	out.add("bpred.branches", float64(br), "count", sim)
	out.add("bpred.mispredicts", float64(mp), "count", sim)
	for k, lvl := range []string{"l1i", "l1d", "l2"} {
		out.add("cache."+lvl+"_accesses", float64(acc[k]), "count", sim+"; demand")
		out.add("cache."+lvl+"_misses", float64(miss[k]), "count", sim+"; demand")
	}
	out.add("tlb.stall_cycles", float64(tlb), "cycles", sim)
	out.add("mem.bus_wait_cycles", float64(bus), "cycles", sim)
	out.add("mem.dram_wait_cycles", float64(dram), "cycles", sim)
	out.add("coherence.cache_transfers", float64(coh.xfer), "count", sim)
	out.add("coherence.invalidations", float64(coh.inval), "count", sim)
	out.add("coherence.upgrades", float64(coh.upg), "count", sim)
	out.add("coherence.memory_reads", float64(coh.reads), "count", sim)
}

// addRuntime adds the Go runtime's allocation and GC cost over an interval
// in which simInsts instructions were simulated.
func addRuntime(out *outcome, a, b runtimeSnap, simInsts uint64) {
	perK := 0.0
	if simInsts > 0 {
		perK = float64(b.allocBytes-a.allocBytes) / (float64(simInsts) / 1e3)
	}
	out.add("runtime.alloc_bytes_per_kinst", perK, "B/kinst", "host; heap bytes allocated per simulated kinst")
	gc := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gc = (b.gcCPU - a.gcCPU) / d
	}
	out.add("runtime.gc_cpu_share", gc, "ratio", "host; GC CPU / all CPU")
}

// addSweepLayers derives the sweeps' layer metrics from the untraced
// rounds and the traced half's per-layer times.
func addSweepLayers(out *outcome, pts []point, rounds []round, a, b runtimeSnap, tr *tracer, traced, plain []layerParts) {
	addCounts(out, rounds[0].reports)

	var lats []float64
	var busy, wall time.Duration
	var simInsts uint64
	for _, r := range rounds {
		wall += r.wall
		for i, p := range pts {
			lats = append(lats, ms(r.lat[i]))
			busy += r.lat[i]
			simInsts += p.simInsts()
		}
	}
	out.add("core.run_ms_p50", median(lats), "ms", fmt.Sprintf("host; Model.RunContext, n=%d", len(lats)))
	out.add("core.ff_share", 0, "ratio", "full detailed runs fast-forward nothing")
	out.add("sched.busy_share", busy.Seconds()/(float64(sweepWorkers)*wall.Seconds()), "ratio",
		fmt.Sprintf("host; job time / (%d workers x wall)", sweepWorkers))
	addRuntime(out, a, b, simInsts)

	addSystemLayers(out, pts, plain)
	var spans, bare time.Duration
	for i := range pts {
		spans += traced[i].total
		bare += plain[i].total
	}
	out.add("trace.overhead_share", float64(spans-bare)/float64(bare), "ratio",
		"host; layered point time with spans / without - 1")
	printSelfTimes(tr)

	sent := len(rounds) * len(pts)
	addClient(out, sent, out.attempted-out.failed, out.failed, nil, nil, nil)
	var slo int
	for _, r := range rounds {
		for i := range pts {
			if r.errs[i] == nil && r.lat[i] <= coldSLO {
				slo++
			}
		}
	}
	out.add("client.slo_ok_ratio", float64(slo)/float64(sent), "ratio", fmt.Sprintf("design points within the %v cold SLO", coldSLO))
	out.add("runcache.hits", 0, "count", "sweeps run uncached")
	out.add("runcache.misses", 0, "count", "sweeps run uncached")
	out.add("runcache.shared", 0, "count", "sweeps run uncached")
	out.add("server.shed", 0, "count", "sweeps send no requests")
}

// addSystemLayers splits the untraced Model.RunContext time of the inputs
// a layered run without spans replayed into their layers: generation,
// system.New, (*System).RunContext and Report, plus the unattributed
// remainder. The layered path materialises each trace before simulating
// it where Model.RunContext streams it, so the remainder is glue plus the
// difference between the two paths; where the layered path is the slower
// the remainder is negative, and system.glue_share reads 0 with a note.
func addSystemLayers(out *outcome, pts []point, parts []layerParts) {
	var gen, build, sim, report, total, run time.Duration
	var n int
	var cycles, insts float64
	for i, p := range pts {
		lp := parts[i]
		gen += lp.gen
		build += lp.build
		sim += lp.sim
		report += lp.report
		total += lp.total
		run += lp.untraced
		n += lp.n
		cycles += float64(lp.cycles)
		insts += float64(p.simInsts()) * float64(lp.n)
	}
	rest := run - gen - build - sim - report
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	out.add("workload.gen_ns_per_rec", float64(gen)/insts, "ns", "host; workload.NewMP + Next, standalone")
	out.add("system.build_ms", per(build), "ms", "host; system.New per run")
	out.add("system.sim_ns_per_cycle", float64(sim)/cycles, "ns", "host per simulated global cycle")
	out.add("system.sim_ns_per_inst", float64(sim)/insts, "ns", "host per simulated instruction")
	out.add("system.report_us", per(report)*1e3, "us", "host; (*System).Report per run")
	glue := "host; Model.RunContext time not in gen/build/sim/report"
	if rest < 0 {
		glue = fmt.Sprintf("host; clamped: the layered path took %.3f ms per run longer than Model.RunContext", -per(rest))
	}
	out.add("system.glue_share", max(0, float64(rest)/float64(run)), "ratio", glue)
	fmt.Printf("# per run (host ms): gen %.3f + build %.3f + sim %.3f + report %.4f + unattributed %.3f = untraced Model.RunContext %.3f (n=%d)\n",
		per(gen), per(build), per(sim), per(report), per(rest), per(run), n)
	fmt.Printf("# per run (host ms): layered path without spans %.3f, untraced Model.RunContext %.3f\n", per(total), per(run))
}

// addClient adds the load generator's metrics. late holds how late each
// request was sent (ms); a closed loop (the sweeps) is never late.
func addClient(out *outcome, sent, ok, failed int, late, hit, est []float64) {
	note := func(xs []float64, what string) string {
		if len(xs) == 0 {
			return "no " + what + " requests in this workload"
		}
		return fmt.Sprintf("host; from due, n=%d", len(xs))
	}
	out.add("client.late_ms_p99", quantile(late, 0.99), "ms", note(late, "scheduled"))
	out.add("client.sent", float64(sent), "count", "operations issued")
	out.add("client.ok", float64(ok), "count", "operations ok and correct")
	out.add("client.failed", float64(failed), "count", "operations failed, refused or incorrect")
	out.add("client.hit_ms_p50", median(hit), "ms", note(hit, "hit"))
	out.add("client.hit_ms_p99", quantile(hit, 0.99), "ms", note(hit, "hit"))
	out.add("client.estimate_ms_p50", median(est), "ms", note(est, "estimate"))
	out.add("client.estimate_ms_p99", quantile(est, 0.99), "ms", note(est, "estimate"))
}

// addServiceLayers derives the service's layer metrics from the untraced
// and traced halves of the open loop.
func addServiceLayers(out *outcome, cl *cluster, untraced, traced []sample, a, b runtimeSnap) {
	var late []float64
	var ok, failed int
	var simInsts uint64
	var ff, all float64
	var coldLat []float64
	for _, s := range untraced {
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.ok {
			ok++
		} else {
			failed++
		}
		simInsts += uint64(s.insts)
	}
	for _, s := range append(append([]sample(nil), untraced...), traced...) {
		if s.class == classCold && s.ok {
			coldLat = append(coldLat, ms(s.done.Sub(s.sent)))
			ff += s.ff
			all += float64(s.insts)
		}
	}
	addClient(out, len(untraced), ok, failed, late,
		classLatencies(untraced, classHit), classLatencies(untraced, classEstimate))
	out.add("client.slo_ok_ratio", sloShare(untraced), "ratio",
		fmt.Sprintf("within %v (hit, estimate) or %v (cold); failures miss", fastSLO, coldSLO))
	out.add("core.run_ms_p50", median(coldLat), "ms", fmt.Sprintf("host; cold /v1/run round trip, n=%d", len(coldLat)))
	var busy time.Duration
	first, last := untraced[0].due, untraced[0].done
	for _, s := range untraced {
		if s.class == classCold {
			busy += s.done.Sub(s.sent)
		}
		if s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	span := last.Sub(first)
	out.add("sched.busy_share", busy.Seconds()/(2*span.Seconds()), "ratio", "host; cold round-trip time / (2 slots x wall)")
	share := 0.0
	if all > 0 {
		share = ff / all
	}
	out.add("core.ff_share", share, "ratio", "simulated; fast-forwarded / all instructions of cold runs")
	addRuntime(out, a, b, simInsts)

	var st runcache.Stats
	var shed uint64
	for i, c := range cl.caches {
		s := c.Stats()
		st.MemoryHits += s.MemoryHits
		st.PeerHits += s.PeerHits
		st.DiskHits += s.DiskHits
		st.Misses += s.Misses
		st.Shared += s.Shared
		shed += cl.regs[i].Counter("sparc64v_http_shed_total",
			"Requests shed with 429 because the admission queue was full.").Value()
	}
	out.add("runcache.hits", float64(st.Hits()), "count", "both workers, all tiers")
	out.add("runcache.misses", float64(st.Misses), "count", "both workers")
	out.add("runcache.shared", float64(st.Shared), "count", "both workers")
	out.add("server.shed", float64(shed), "count", "429s from both workers")

	u, t := classLatencies(untraced, -1), classLatencies(traced, -1)
	over := 0.0
	if median(u) > 0 {
		over = median(t)/median(u) - 1
	}
	out.add("trace.overhead_share", over, "ratio", "host; traced / untraced request p50 - 1")
	printSelfTimes(out.spans)
}

// printSelfTimes lists each span name's total self time.
func printSelfTimes(tr *tracer) {
	st := selfTimes(tr.snapshot())
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# span %-20s self %10.3f ms over %d spans\n", n, ms(st[n].Self), st[n].Count)
	}
}

// probeLayers times the service-path layers directly through their public
// functions on a warmed cluster: cl, or a probe cluster booted here.
func probeLayers(ctx context.Context, out *outcome, rc runConfig, cl *cluster) error {
	if cl == nil {
		c, err := startCluster()
		if err != nil {
			return err
		}
		defer c.close()
		chk, err := newChecker("probe", rc.seed, "")
		if err != nil {
			return err
		}
		if err := c.warm(ctx, rc.seed, chk); err != nil {
			return err
		}
		cl = c
	}
	req := cl.hitKeys[0]
	rr, err := server.ResolveRun(config.Base(), hitInsts, req)
	if err != nil {
		return err
	}
	rep, err := rr.Model.RunContext(ctx, rr.Profile, rr.Opt)
	if err != nil {
		return err
	}

	// Run cache: a memory-tier hit and the peer/disk envelope codec.
	rcache, err := runcache.New(runcache.Options{})
	if err != nil {
		return err
	}
	rcache.Put(rr.Key, rep)
	get := timeN(probeReps*5, func() { rcache.Get(rr.Key) })
	out.add("runcache.get_hit_us_p50", us(get), "us", "host; (*Cache).Get memory hit")
	// Each probe's call is checked once; the timed loops repeat it.
	enc, err := runcache.EncodeEntry(rr.Key, rep)
	if err != nil {
		return err
	}
	if _, err := runcache.DecodeEntry(rr.Key, enc); err != nil {
		return err
	}
	encT := timeN(probeReps, func() { _, _ = runcache.EncodeEntry(rr.Key, rep) })
	decT := timeN(probeReps, func() { _, _ = runcache.DecodeEntry(rr.Key, enc) })
	out.add("runcache.encode_us", us(encT), "us", "host; EncodeEntry, median")
	out.add("runcache.decode_us", us(decT), "us", "host; DecodeEntry, median")

	resolve := timeN(probeReps, func() { _, _ = server.ResolveRun(config.Base(), hitInsts, req) })
	out.add("server.resolve_us_p50", us(resolve), "us", "host; ResolveRun")
	if _, err := cl.gw.ResolveKey(req); err != nil {
		return err
	}
	gwResolve := timeN(probeReps, func() { _, _ = cl.gw.ResolveKey(req) })
	out.add("gateway.resolve_us_p50", us(gwResolve), "us", "host; (*Gateway).ResolveKey")

	// Handlers in-process, without the network.
	plan, err := cl.gw.PlanFor(req)
	if err != nil {
		return err
	}
	owner := 0
	if len(plan) > 0 && plan[0] == "w1" {
		owner = 1
	}
	body, _ := json.Marshal(req)
	h := cl.servers[owner].Handler()
	serve := func(path string, b []byte) func() {
		return func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		}
	}
	out.add("server.handler_hit_us_p50", us(timeN(probeReps, serve("/v1/run", body))), "us", "host; Handler().ServeHTTP, run-cache hit")
	ests, err := estimateCases()
	if err != nil {
		return err
	}
	out.add("server.handler_estimate_us_p50", us(timeN(probeReps, serve("/v1/estimate", ests[0].body))), "us", "host; Handler().ServeHTTP, /v1/estimate")

	// The gateway hop: a hit through the gateway minus the same hit sent
	// straight to its owning worker, alternating to share host noise.
	gwConn, direct := newConn(), newConn()
	defer gwConn.CloseIdleConnections()
	defer direct.CloseIdleConnections()
	var viaGW, viaW []float64
	for range probeReps {
		for _, c := range []struct {
			conn *http.Client
			url  string
			into *[]float64
		}{{gwConn, cl.gwURL, &viaGW}, {direct, cl.workers[owner], &viaW}} {
			t0 := time.Now()
			code, _, err := post(ctx, c.conn, c.url+"/v1/run", body)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("hop probe: status %d, %v", code, err)
			}
			*c.into = append(*c.into, us(time.Since(t0)))
		}
	}
	out.add("gateway.hop_us_p50", median(viaGW)-median(viaW), "us", "host; gateway hit p50 - direct worker hit p50")

	cal, err := analytic.Default()
	if err != nil {
		return err
	}
	cfg := config.Base()
	prof := workload.SPECint95()
	if _, err := cal.Estimate(cfg, prof.Name); err != nil {
		return err
	}
	out.add("analytic.estimate_us_p50", us(timeN(probeReps*5, func() { _, _ = cal.Estimate(cfg, prof.Name) })), "us", "host; (*Calibration).Estimate")
	return nil
}

package core

// Lockstep multi-config batching.
//
// A parameter sweep runs many nearby configurations against the same
// workload trace; streamed serially, the frontend (synthetic-trace
// generation, or file decode) repeats identically once per configuration.
// RunBatch performs that work once: one trace.Fanout per CPU stream feeds
// every member's machine through per-member cursors, and the driver
// advances the members in lockstep rounds. Each member is a run (run.go)
// whose mutable state stays entirely inside its own machine, so members
// are independent: each produces a Report byte-identical to its own serial
// run (pinned by TestRunBatchMatchesSerial), finishes, caps or errors
// individually, and is keyed/cached in the runcache individually.
//
// Scheduling rule: a member takes its next step in a round only if none of
// its cursors is starved for the step's demand (run.need: batchStride ×
// SourceReadBound records for a full run, a fast-forward chunk or a
// detailed window for a sampled one). The ring's back-pressure bounds how
// far members drift apart in the trace; after each Fill the slowest member
// always sees a full ring, so it always advances — the batch cannot
// deadlock on a single stream. On
// multi-CPU machines, mutual starvation across *different* streams is
// theoretically possible (members' relative progress would have to invert
// by a whole ring depth on two streams at once); a round that advances no
// member falls back to re-running one member serially, which restores
// progress while keeping results exact.

import (
	"context"
	"fmt"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// batchStride is how many detailed cycles one member advances per lockstep
// round. Small enough that members stay close in the trace (bounding ring
// occupancy skew), large enough that round bookkeeping vanishes against
// ~stride×CPUs Tick calls.
const batchStride = 256

// batchRingDepth sizes the full-run shared ring per CPU stream, in
// records: it must cover at least batchStride cycles of maximum fetch
// demand for the slowest member (stride × fetch width = 2048), and every
// extra slot is drift allowance for fast members. 8K records ≈ 320 KiB per
// stream.
const batchRingDepth = 8192

// Batch metrics (process-wide registry, the runcache/sched idiom).
// batchOccupancy is a live gauge — members enter at batch start and leave
// one by one as they finish — so a scrape shows how much lockstep
// parallelism the process is sustaining right now.
var (
	batchRuns = obs.Default().Counter("sparc64v_batch_runs_total",
		"Lockstep batches executed.")
	batchMembersTotal = obs.Default().Counter("sparc64v_batch_members_total",
		"Members simulated by lockstep batches (cache-served members excluded).")
	batchCacheSkips = obs.Default().Counter("sparc64v_batch_cache_skips_total",
		"Batch members served from the run cache before streaming began.")
	batchStallRestarts = obs.Default().Counter("sparc64v_batch_stall_restarts_total",
		"Members re-run serially after a lockstep round advanced nobody (cross-stream starvation).")
	batchOccupancy = obs.Default().Gauge("sparc64v_batch_occupancy",
		"Members currently advancing in lockstep batches.")
	batchRecordsStreamed = obs.Default().Counter("sparc64v_batch_records_streamed_total",
		"Trace records decoded once by batch frontends.")
	batchRecordsSaved = obs.Default().Counter("sparc64v_batch_records_saved_total",
		"Trace records served from shared rings that serial runs would have re-decoded.")
	batchBytesSaved = obs.Default().Counter("sparc64v_batch_decode_bytes_saved_total",
		"In-memory bytes of trace records the shared decode avoided re-materializing.")
)

// recordBytes prices a saved record for the bytes-saved counter: the
// in-memory record size the frontend would have re-materialized per member.
const recordBytes = 40

// BatchKey returns the grouping key under which runs may share one decoded
// trace stream: everything that determines the trace and the lockstep
// schedule — profile, CPU count, seed, length, warmup, cap, sampling —
// excluding the machine configuration itself, which is exactly what varies
// across a batch. Harnesses (internal/expt) group sweep points by this key
// and hand each group to RunBatch.
func BatchKey(cfg config.Config, p workload.Profile, opt RunOptions) (string, error) {
	opt.defaults()
	ph, err := config.HashJSON(p)
	if err != nil {
		return "", err
	}
	sj := ""
	if opt.Sample.Enabled() {
		b, err := config.CanonicalJSON(opt.Sample)
		if err != nil {
			return "", err
		}
		sj = string(b)
	}
	return fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%s",
		ph, cfg.CPUs, opt.Seed, opt.Insts, opt.Warmup, opt.MaxCycles, sj), nil
}

// RunBatch simulates every configuration in cfgs against the profile's
// trace, decoding the trace once and advancing the members in lockstep. It
// returns one Report and one error per member, index-aligned with cfgs; a
// member's pair is exactly what its own RunContext call would have returned
// (byte-identical Report, same error strings), so callers can scatter the
// results wherever serial results would have gone.
//
// All members must have the same CPU count (they share per-CPU streams);
// members that cannot join (validation failure, CPU mismatch) error
// individually without sinking the batch. With opt.Cache set, members whose
// key is already cached are served before streaming begins and the
// remaining members are stored individually on success. With opt.Sample
// enabled the whole batch runs sampled: fast-forward and measurement
// windows advance in lockstep against the same shared rings.
func RunBatch(ctx context.Context, cfgs []config.Config, p workload.Profile, opt RunOptions) ([]system.Report, []error) {
	opt.defaults()
	n := len(cfgs)
	reps := make([]system.Report, n)
	errs := make([]error, n)
	if n == 0 {
		return reps, errs
	}

	models := make([]*Model, n)
	cpus := 0
	for i := range cfgs {
		m, err := NewModel(cfgs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		models[i] = m
		if cpus == 0 {
			cpus = m.cfg.CPUs
		}
	}
	for i, m := range models {
		if m != nil && m.cfg.CPUs != cpus {
			errs[i] = fmt.Errorf("core: batch member %s has %d CPUs, want %d (members share per-CPU trace streams)",
				m.cfg.Name, m.cfg.CPUs, cpus)
			models[i] = nil
		}
	}

	// Cache pre-pass: serve hits before any streaming, so cached members
	// cost nothing and never hold the ring back.
	keys := make([]runcache.Key, n)
	haveKey := make([]bool, n)
	var live []int
	for i, m := range models {
		if m == nil {
			continue
		}
		if opt.Cache != nil {
			if key, err := m.runKey(p, opt); err == nil {
				keys[i], haveKey[i] = key, true
				if rep, ok := opt.Cache.Get(key); ok {
					// Mirror RunContext's hit path: a span with the cached
					// marker is the member's whole story.
					sp := opt.Obs.StartSpan("run", p.Name)
					sp.Add("cached", 1)
					spanReport(sp, rep)
					sp.Finish()
					batchCacheSkips.Inc()
					reps[i] = rep
					continue
				}
			}
		}
		live = append(live, i)
	}
	switch len(live) {
	case 0:
		return reps, errs
	case 1:
		// Nothing to amortize across: take the ordinary serial path (which
		// also handles cache storage via GetOrRun).
		i := live[0]
		reps[i], errs[i] = models[i].RunContext(ctx, p, opt)
		return reps, errs
	}

	batchRuns.Inc()
	batchMembersTotal.Add(uint64(len(live)))
	batchOccupancy.Add(int64(len(live)))

	// Shared frontend: one generator chain and one fanout ring per CPU
	// stream, one cursor per (stream, member).
	depth := batchRingDepth
	if opt.Sample.Enabled() {
		// The ring must cover a member's largest single action: a whole
		// detailed window's budget, or one fast-forward chunk. Double it so
		// the slowest member still sees a full ring while others buffer.
		need := ffChunk
		if opt.Sample.WarmupInsts > need {
			need = opt.Sample.WarmupInsts
		}
		if opt.Sample.MeasureInsts > need {
			need = opt.Sample.MeasureInsts
		}
		depth = 2 * need
	}
	gens := workload.NewMP(p, opt.Seed, cpus)
	fans := make([]*trace.Fanout, cpus)
	for c := 0; c < cpus; c++ {
		fans[c] = trace.NewFanout(trace.NewLimitSource(gens[c], opt.Insts), depth, len(live))
	}

	lockstep(ctx, models, live, fans, p, opt, reps, errs)

	// Cache post-pass: store every member that simulated to completion.
	// Errored/cancelled members are never stored (the GetOrRun rule).
	if opt.Cache != nil {
		for _, i := range live {
			if errs[i] == nil && haveKey[i] {
				opt.Cache.Put(keys[i], reps[i])
			}
		}
	}

	var streamed, served uint64
	for _, f := range fans {
		streamed += f.Streamed()
		served += f.Served()
	}
	batchRecordsStreamed.Add(streamed)
	if served > streamed {
		batchRecordsSaved.Add(served - streamed)
		batchBytesSaved.Add((served - streamed) * recordBytes)
	}
	return reps, errs
}

// member is one batch member: its run and its cursors on the shared rings.
type member struct {
	idx     int
	r       run
	cursors []*trace.Cursor
}

// starved reports that the shared rings cannot feed the member's next step.
func (bm *member) starved() bool {
	cpu, n := bm.r.need()
	if cpu >= 0 {
		return bm.cursors[cpu].Starved(n)
	}
	for _, cur := range bm.cursors {
		if cur.Starved(n) {
			return true
		}
	}
	return false
}

// leave releases the member's cursors so it no longer pins the rings.
func (bm *member) leave() {
	for _, cur := range bm.cursors {
		cur.Close()
	}
	batchOccupancy.Add(-1)
}

// lockstep is the batch loop: each round refills the rings, then steps
// every member whose cursors can feed its next step. A run takes the same
// steps here as under the serial loop, so batching never changes a Report.
func lockstep(ctx context.Context, models []*Model, live []int, fans []*trace.Fanout,
	p workload.Profile, opt RunOptions, reps []system.Report, errs []error) {
	members := make([]*member, 0, len(live))
	for slot, idx := range live {
		curs := make([]*trace.Cursor, len(fans))
		srcs := make([]trace.Source, len(fans))
		for c, f := range fans {
			curs[c] = f.Cursor(slot)
			srcs[c] = curs[c]
		}
		bm := &member{idx: idx, cursors: curs}
		r, err := models[idx].newRun(p.Name, srcs, opt, batchStride)
		if err != nil {
			bm.leave()
			errs[idx] = err
			continue
		}
		bm.r = r
		r.span().Add("batched", 1)
		if r.done() { // degenerate sampled schedule: finished at birth
			bm.leave()
			reps[idx], errs[idx] = r.finish()
			continue
		}
		members = append(members, bm)
	}

	done := ctx.Done()
	for len(members) > 0 {
		if done != nil {
			select {
			case <-done:
				for _, bm := range members {
					bm.leave()
					bm.r.cancel(ctx.Err())
					reps[bm.idx], errs[bm.idx] = bm.r.finish()
				}
				return
			default:
			}
		}
		for _, f := range fans {
			f.Fill()
		}
		progressed := false
		next := members[:0]
		for _, bm := range members {
			if bm.starved() {
				// A slower member pins the ring. Skip this round.
				next = append(next, bm)
				continue
			}
			bm.r.step(ctx)
			progressed = true
			if bm.r.done() {
				bm.leave()
				reps[bm.idx], errs[bm.idx] = bm.r.finish()
			} else {
				next = append(next, bm)
			}
		}
		members = next
		if !progressed && len(members) > 0 {
			// Cross-stream starvation (see package comment): peel one member
			// off and re-run it serially so the rest can move.
			bm := members[0]
			members = members[1:]
			bm.leave()
			batchStallRestarts.Inc()
			o := opt
			o.Cache = nil // the batch post-pass stores it like any member
			reps[bm.idx], errs[bm.idx] = models[bm.idx].RunContext(ctx, p, o)
		}
	}
}

package verif

import (
	"context"

	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

// Reference is a deliberately simple in-order, blocking-cache timing model,
// independent of the out-of-order machinery. It plays the role the
// verified mainframe model played for the paper's initial model bring-up:
// two structurally different models whose *trends* across configurations
// must agree, even though their absolute numbers differ.
type Reference struct {
	cfg config.Config
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache
	// Cycles and Instructions accumulate run totals.
	Cycles       uint64
	Instructions uint64
	// predictor state: 2-bit counters, untagged.
	counters []uint8
}

// NewReference builds the reference model for the cache/BHT geometries of
// cfg (core parameters are ignored: the reference core is scalar).
func NewReference(cfg config.Config) *Reference {
	return &Reference{
		cfg:      cfg,
		l1i:      cache.New(cfg.L1I),
		l1d:      cache.New(cfg.L1D),
		l2:       cache.New(cfg.Mem.L2),
		counters: make([]uint8, cfg.BHT.Entries),
	}
}

// ctxPollStride matches the detailed model's cancellation granularity: the
// reference loop polls its context every 4K instructions.
const ctxPollStride = 4096

// RunContext consumes the source and accumulates timing, polling ctx on a
// coarse instruction stride. It returns ctx.Err() when cancelled mid-run; the
// accumulated Cycles/Instructions stay consistent with what was consumed.
func (rf *Reference) RunContext(ctx context.Context, src trace.Source) error {
	var r trace.Record
	memLat := uint64(rf.cfg.Mem.DRAMCycles)
	l2Lat := uint64(rf.cfg.Mem.L2.HitCycles)
	if rf.cfg.Mem.L2OffChip {
		l2Lat += uint64(rf.cfg.Mem.OffChipPenalty)
	}
	done := ctx.Done()
	for src.Next(&r) {
		if done != nil && rf.Instructions&(ctxPollStride-1) == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		rf.Instructions++
		rf.Cycles++ // base CPI of 1
		if rf.Instructions%8 == 1 {
			// Fetch path: one I-cache probe per fetch group.
			rf.Cycles += rf.access(rf.l1i, r.PC, false, l2Lat, memLat)
		}
		switch {
		case r.Op.IsMemory():
			rf.Cycles += uint64(rf.cfg.L1D.HitCycles) / 2
			rf.Cycles += rf.access(rf.l1d, r.EA, r.Op == isa.Store, l2Lat, memLat)
		case r.Op == isa.Branch:
			idx := (r.PC >> 2) % uint64(len(rf.counters))
			pred := rf.counters[idx] >= 2
			if pred != r.Taken {
				rf.Cycles += uint64(rf.cfg.CPU.MispredictRedirect) + 8
			} else if r.Taken {
				rf.Cycles += uint64(rf.cfg.BHT.AccessCycles)
			}
			if r.Taken && rf.counters[idx] < 3 {
				rf.counters[idx]++
			} else if !r.Taken && rf.counters[idx] > 0 {
				rf.counters[idx]--
			}
		case r.Op.IsFloat():
			rf.Cycles += uint64(rf.cfg.CPU.Latencies[r.Op].Cycles) / 2
		}
	}
	return nil
}

// access charges a blocking hierarchy access and maintains cache state.
func (rf *Reference) access(l1 *cache.Cache, addr uint64, store bool, l2Lat, memLat uint64) uint64 {
	if l1.Access(addr) != nil {
		return 0
	}
	var extra uint64
	if rf.l2.Access(addr) == nil {
		extra = memLat
		rf.l2.Fill(addr, cache.Exclusive, false)
	} else {
		extra = l2Lat
	}
	st := cache.Exclusive
	if store {
		st = cache.Modified
	}
	l1.Fill(addr, st, false)
	return extra
}

// CPI returns the model's cycles per instruction.
func (rf *Reference) CPI() float64 {
	if rf.Instructions == 0 {
		return 0
	}
	return float64(rf.Cycles) / float64(rf.Instructions)
}

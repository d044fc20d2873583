package cpu

import (
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
)

// issue renames and inserts up to IssueWidth instructions per cycle from
// the fetch buffer into the window, a reservation station, and (for memory
// operations) a load/store queue slot. Issue is in-order and stalls as a
// group on the first structural hazard — the paper's argument for keeping
// the issue stage simple enough for one pipeline stage at 1.3 GHz.
func (c *CPU) issue(cycle uint64) {
	for st := range c.stations {
		c.compactStation(st, cycle)
	}
	for n := 0; n < c.issueWidth; n++ {
		if c.fetchBufLen() == 0 || c.fetchBuf[c.fetchHead].readyAt > cycle {
			return
		}
		if c.serializeSeq != 0 {
			// A crude-mode Special instruction serializes the window.
			return
		}
		fi := &c.fetchBuf[c.fetchHead]
		rec := &fi.rec

		if c.inFlight() >= c.windowSize {
			c.Stats.StallWindow++
			return
		}
		if rec.HasDst() {
			if isa.IsIntReg(rec.Dst) {
				if c.intInFlight >= c.intRename {
					c.Stats.StallRename++
					return
				}
			} else if c.fpInFlight >= c.fpRename {
				c.Stats.StallRename++
				return
			}
		}
		st := c.stationFor(rec.Op)
		if st >= 0 && !c.stationHasRoom(st, cycle) {
			c.Stats.StallRS++
			return
		}
		if rec.Op == isa.Load && c.lqCount >= c.lqEntries {
			c.Stats.StallLQ++
			return
		}
		if rec.Op == isa.Store && c.sqCount >= c.sqEntries {
			c.Stats.StallSQ++
			return
		}

		// Allocate.
		c.progressed = true
		seq := c.tail
		c.tail++
		e := &c.window[seq&c.winMask]
		*e = robEntry{
			rec:        *rec,
			seq:        seq,
			st:         stWaiting,
			station:    int8(st),
			addrReady:  never,
			fetchCycle: fi.fetched,
			issueCycle: cycle,
		}
		e.mispredict = fi.outcome.Mispredict

		// Rename: resolve sources to producers, claim the destination.
		e.src1Seq = c.lookupProducer(rec.Src1)
		if rec.Op == isa.Store {
			// Stores dispatch on the address source only; the data source
			// is tracked separately and checked at commit.
			e.dataSeq = c.lookupProducer(rec.Src2)
		} else {
			e.src2Seq = c.lookupProducer(rec.Src2)
		}
		if rec.HasDst() {
			c.renameProducer[rec.Dst] = seq + 1
			if isa.IsIntReg(rec.Dst) {
				c.intInFlight++
			} else {
				c.fpInFlight++
			}
		}

		switch {
		case st >= 0:
			c.stations[st] = append(c.stations[st], seq)
		default:
			// Nop-like: completes immediately after issue.
			e.st = stDispatched
			e.dispCycle = cycle
			e.fwdCycle = cycle + 1
			e.completeCycle = cycle + 1
		}
		if rec.Op == isa.Load {
			c.lqCount++
		}
		if rec.Op == isa.Store {
			c.sqCount++
		}
		if e.mispredict {
			c.blockSeq = seq + 1
		}
		if rec.Op == isa.Special && c.specialCrude {
			c.serializeSeq = seq + 1
			c.Stats.SpecialSerialized++
		}
		c.popFetch()
	}
}

// lookupProducer returns the producer handle (seq+1, 0 = ready) for an
// architectural source register.
func (c *CPU) lookupProducer(reg uint8) uint64 {
	if reg == isa.RegNone || reg == isa.G0 || reg >= isa.NumRegs {
		return 0
	}
	h := c.renameProducer[reg]
	if h == 0 {
		return 0
	}
	if c.entry(h-1) == nil {
		return 0 // producer already committed
	}
	return h
}

// stationFor routes an instruction class to its reservation station.
func (c *CPU) stationFor(op isa.Class) int {
	switch {
	case op.IsMemory():
		return rsA
	case op.IsBranch():
		return rsBR
	case op.IsInt(), op == isa.Special:
		if c.cfg.CPU.OneRS || c.cfg.CPU.IntUnits < 2 {
			return rsE0
		}
		if len(c.stations[rsE0]) <= len(c.stations[rsE1]) {
			return rsE0
		}
		return rsE1
	case op.IsFloat():
		if c.cfg.CPU.OneRS || c.cfg.CPU.FPUnits < 2 {
			return rsF0
		}
		if len(c.stations[rsF0]) <= len(c.stations[rsF1]) {
			return rsF0
		}
		return rsF1
	default: // Nop
		return -1
	}
}

// dispatchWidthFor returns dispatches per cycle for a station (resolved
// once at New into CPU.dispWidth).
func dispatchWidthFor(p *config.CPUParams, st int) int {
	switch st {
	case rsA:
		return p.AGUnits
	case rsBR:
		return 1
	case rsE0:
		if p.OneRS && p.IntUnits >= 2 {
			return 2
		}
		return 1
	case rsF0:
		if p.OneRS && p.FPUnits >= 2 {
			return 2
		}
		return 1
	default:
		return 1
	}
}

// stationCapFor returns the entry capacity of a station (resolved once at
// New into CPU.stationCaps).
func stationCapFor(p *config.CPUParams, st int) int {
	switch st {
	case rsA:
		return p.RSAEntries
	case rsBR:
		return p.RSBREntries
	case rsE0:
		if p.OneRS {
			return 2 * p.RSEEntries
		}
		return p.RSEEntries
	case rsE1:
		return p.RSEEntries
	case rsF0:
		if p.OneRS {
			return 2 * p.RSFEntries
		}
		return p.RSFEntries
	default:
		return p.RSFEntries
	}
}

// compactStation drops entries that have left the station. An entry
// occupies its station from issue until it has dispatched and is no longer
// cancellable (memory operations continue in the LSQ).
func (c *CPU) compactStation(st int, cycle uint64) {
	s := c.stations[st][:0]
	for _, seq := range c.stations[st] {
		e := c.entry(seq)
		if e == nil || int(e.station) != st {
			continue
		}
		if e.st == stDispatched && cycle >= e.specUntil {
			continue
		}
		s = append(s, seq)
	}
	if len(s) != len(c.stations[st]) {
		c.progressed = true
	}
	c.stations[st] = s
}

// stationHasRoom checks capacity (stations are compacted once per cycle at
// the top of issue).
func (c *CPU) stationHasRoom(st int, cycle uint64) bool {
	return len(c.stations[st]) < c.stationCaps[st]
}

// dispatch selects ready (or predicted-ready) instructions from each
// reservation station, oldest first, and schedules their execution.
func (c *CPU) dispatch(cycle uint64) {
	for st := 0; st < numStations; st++ {
		width := c.dispWidth[st]
		dispatched := 0
		for _, seq := range c.stations[st] {
			if dispatched >= width {
				break
			}
			e := c.entry(seq)
			if e == nil || e.st != stWaiting {
				continue
			}
			ready, specUntil := c.sourcesReady(e, cycle)
			if !ready {
				continue
			}
			unit := c.freeUnit(st, width, cycle)
			if unit < 0 {
				continue
			}
			c.schedule(e, st, unit, cycle, specUntil)
			dispatched++
		}
	}
}

// srcReady reports whether the producer behind handle h delivers its
// result by limit (the consumer's execute stage), and until when that
// result remains cancellable. The window lookup is inlined (vs entry) so
// the scoreboard check costs one masked load in the common cases.
func (c *CPU) srcReady(h, limit uint64) (bool, uint64) {
	if h == 0 {
		return true, 0
	}
	p := &c.window[(h-1)&c.winMask]
	if p.st == stEmpty || p.seq != h-1 {
		return true, 0 // committed: value in the register file
	}
	if p.st != stDispatched || p.fwdCycle == never {
		return false, 0
	}
	if p.fwdCycle+c.fwdPenalty > limit {
		return false, 0
	}
	return true, p.specUntil
}

// sourcesReady reports whether e may dispatch at cycle (its sources'
// results reach the execute stage in time), and until when the dispatch
// remains cancellable because a source is a still-unconfirmed load hit.
func (c *CPU) sourcesReady(e *robEntry, cycle uint64) (bool, uint64) {
	limit := cycle + execOffset
	ok, spec1 := c.srcReady(e.src1Seq, limit)
	if !ok {
		return false, 0
	}
	ok, spec2 := c.srcReady(e.src2Seq, limit)
	if !ok {
		return false, 0
	}
	if spec2 > spec1 {
		spec1 = spec2
	}
	return true, spec1
}

// execOffset is the dispatch-to-execute depth: dispatch, register read,
// execute (section 3.1's minimum three stages).
const execOffset = 2

// freeUnit returns an execution unit of the station whose non-pipelined
// interlock (divides) has cleared, or -1. Fused 1RS stations own both
// units of their class.
func (c *CPU) freeUnit(st, width int, cycle uint64) int {
	for u := 0; u < width && u < 2; u++ {
		if c.unitFree[st][u] <= cycle+execOffset {
			return u
		}
	}
	return -1
}

// schedule marks e dispatched at cycle on the given unit and computes its
// timing.
func (c *CPU) schedule(e *robEntry, st, unit int, cycle uint64, specUntil uint64) {
	lat := c.latencies[e.rec.Op]
	execStart := cycle + execOffset
	done := execStart + uint64(lat.Cycles)

	c.progressed = true
	e.st = stDispatched
	e.dispCycle = cycle
	e.specUntil = specUntil

	if !lat.Pipelined {
		c.unitFree[st][unit] = done
	}

	switch {
	case e.rec.Op.IsMemory():
		// Address generation completes; the LSQ takes over.
		e.addrReady = done
		e.fwdCycle = never // set when the access issues
		e.completeCycle = never
		if e.isLoad() {
			c.pendLoad(e.seq)
		}
		if e.isStore() {
			// Stores are architecturally done once address (and, checked
			// at commit, data) are known.
			e.completeCycle = done
			e.fwdCycle = done
		}
	case e.rec.Op.IsBranch():
		e.fwdCycle = done
		e.completeCycle = done
		if e.mispredict && c.blockSeq == e.seq+1 {
			// Resolution: fetch restarts down the correct path.
			c.fetchResumeAt = done + c.redirectPen
		}
	default:
		if e.rec.Op == isa.Special && c.specialCrude {
			done = execStart + c.specialPen
		}
		e.fwdCycle = done
		e.completeCycle = done
	}
}

// processReveals applies scheduled load-miss reveals: the cycle the L1
// would have delivered a predicted hit, the scheduler learns the truth and
// cancels every speculatively dispatched dependent (section 3.1: "all
// instructions that have read-after-write dependency must be cancelled at
// every stage").
func (c *CPU) processReveals(cycle uint64) {
	if len(c.reveals) == 0 {
		return
	}
	kept := c.reveals[:0]
	for _, r := range c.reveals {
		if r.at > cycle {
			kept = append(kept, r)
			continue
		}
		c.applyReveal(r)
		c.progressed = true
	}
	c.reveals = kept
}

func (c *CPU) applyReveal(r reveal) {
	e := c.entry(r.seq)
	if e == nil {
		return
	}
	e.fwdCycle = r.newFwd
	e.specUntil = 0
	// Walk younger in-flight instructions in order; cancel any whose
	// dispatch relied on data that now arrives later.
	for seq := r.seq + 1; seq < c.tail; seq++ {
		d := c.entry(seq)
		if d == nil || d.st != stDispatched {
			continue
		}
		if c.dispatchStillValid(d) {
			continue
		}
		c.cancel(d)
	}
}

// dispatchStillValid re-checks a dispatched entry's source timing.
func (c *CPU) dispatchStillValid(d *robEntry) bool {
	limit := d.dispCycle + execOffset
	if ok, _ := c.srcReady(d.src1Seq, limit); !ok {
		return false
	}
	ok, _ := c.srcReady(d.src2Seq, limit)
	return ok
}

// cancel returns a dispatched entry to its reservation station.
func (c *CPU) cancel(d *robEntry) {
	c.Stats.SpecCancels++
	d.cancels++
	d.st = stWaiting
	d.dispCycle = 0
	d.fwdCycle = 0
	d.completeCycle = 0
	d.specUntil = 0
	if d.rec.Op.IsMemory() {
		if d.isLoad() && !d.accessed {
			c.unpendLoad(d.seq)
		}
		d.addrReady = never
		d.accessed = false
	}
	if d.mispredict && c.blockSeq == d.seq+1 {
		// The resolving branch itself was cancelled: fetch stays blocked
		// until it re-dispatches.
		c.fetchResumeAt = never
	}
}

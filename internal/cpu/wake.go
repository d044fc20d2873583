package cpu

// Next-event bound for quiet ticks.
//
// Every stage decides by comparing a timestamp in the pipeline state with
// the current cycle: a result's forward or completion cycle, a cancel
// window, an address-generation or fill time, a fetch redirect, a unit's
// divide interlock. While no stage changes state, such a comparison can
// only change its outcome when the cycle reaches its timestamp, and then
// it stays changed. So after a quiet tick the earliest timestamp still in
// the future, over every comparison the tick made, bounds the next cycle
// whose tick could differ. nextEvent mirrors the stages in Tick order;
// including a timestamp that no comparison uses only wakes the core
// early, which is harmless, while leaving one out would skip an event.
//
// Other chips never wake a sleeping core. Memory results are timestamped
// when requested, so a snoop from another chip changes this chip's cache
// and TLB state but no pipeline timestamp; the changed state is read only
// by the next access, which happens on a tick that is never skipped.

// wakeBound accumulates the earliest future timestamp.
type wakeBound struct {
	now, at uint64
}

// add folds in timestamp t; t <= now has already taken effect and never
// (^0) is no event.
func (b *wakeBound) add(t uint64) {
	if t > b.now && t < b.at {
		b.at = t
	}
}

// nextEvent returns a lower bound on the first cycle after cycle whose tick
// could differ from the quiet tick just run at cycle, or never.
func (c *CPU) nextEvent(cycle uint64) uint64 {
	b := wakeBound{now: cycle, at: never}

	// commit and the zero-commit attribution: the window head's timing
	// and, for a store, when its data producer becomes final.
	if c.head < c.tail {
		if e := &c.window[c.head&c.winMask]; e.st == stDispatched {
			b.add(e.completeCycle)
			b.add(e.specUntil)
			if e.isStore() {
				c.producerEvents(&b, e.dataSeq)
			}
		}
	}

	// processReveals.
	for i := range c.reveals {
		b.add(c.reveals[i].at)
	}

	// lsqTick: dispatched loads wait for their address, or for an older
	// overlapping store to forward from; the store queue drains in order.
	for _, seq := range c.loadQ {
		e := &c.window[seq&c.winMask]
		if e.addrReady > cycle {
			b.add(e.addrReady)
		} else if c.storeForward {
			c.forwardEvents(&b, e)
		}
	}
	if c.drainLen() > 0 {
		b.add(c.drainQ[c.drainHead].ok)
	}

	// dispatch and the station compaction at the top of issue: waiting
	// entries wait for their sources and a free unit; dispatched entries
	// leave their station when their cancel window closes.
	for st := range c.stations {
		waiting := false
		for _, seq := range c.stations[st] {
			e := c.entry(seq)
			switch {
			case e == nil:
			case e.st == stDispatched:
				b.add(e.specUntil)
			case e.st == stWaiting:
				waiting = true
				c.sourceEvents(&b, e.src1Seq)
				c.sourceEvents(&b, e.src2Seq)
			}
		}
		if waiting {
			for u := 0; u < c.dispWidth[st] && u < 2; u++ {
				if t := c.unitFree[st][u]; t > execOffset {
					b.add(t - execOffset)
				}
			}
		}
	}

	// issue: the oldest fetched instruction clears decode.
	if c.fetchBufLen() > 0 {
		b.add(c.fetchBuf[c.fetchHead].readyAt)
	}

	// fetch: a redirect or I-cache fill ends.
	b.add(c.fetchResumeAt)
	return b.at
}

// producerEvents adds when the producer behind handle h stops being
// cancellable and completes (producerComplete's comparisons).
func (c *CPU) producerEvents(b *wakeBound, h uint64) {
	if h == 0 {
		return
	}
	if p := c.entry(h - 1); p != nil && p.st == stDispatched {
		b.add(p.specUntil)
		b.add(p.completeCycle)
	}
}

// sourceEvents adds the first cycle at which a consumer dispatching then
// would find the producer behind handle h forwarding in time (srcReady's
// comparison against cycle+execOffset).
func (c *CPU) sourceEvents(b *wakeBound, h uint64) {
	if h == 0 {
		return
	}
	p := &c.window[(h-1)&c.winMask]
	if p.st != stDispatched || p.seq != h-1 || p.fwdCycle == never {
		return
	}
	if t := p.fwdCycle + c.fwdPenalty; t > execOffset {
		b.add(t - execOffset)
	}
}

// forwardEvents adds the timestamps a load waiting in forwardFromStore
// depends on: the youngest older store to the same 8-byte window, its
// address generation and its data producer.
func (c *CPU) forwardEvents(b *wakeBound, ld *robEntry) {
	window := ld.rec.EA &^ 7
	for seq := ld.seq; seq > c.head; seq-- {
		e := c.entry(seq - 1)
		if e == nil || !e.isStore() || e.rec.EA&^7 != window {
			continue
		}
		if e.st == stDispatched {
			b.add(e.addrReady)
			c.producerEvents(b, e.dataSeq)
		}
		return
	}
}

package cpu

import "sparc64v/internal/cache"

// lsqTick models the non-blocking dual operand access of section 3.2: up to
// two requests per cycle between the operand-access pipelines and the L1
// operand cache, eight 4-byte banks with abort-and-retry on conflict, loads
// held in the load queue across misses, store-to-load forwarding from the
// store queue, and committed stores draining to the cache.
//
// The model uses perfect memory disambiguation (loads never wait on
// unresolved older store addresses) — the standard trace-driven
// simplification; overlap forwarding, queue capacity, ports, banks and
// MSHR pressure are all modeled.
func (c *CPU) lsqTick(cycle uint64) {
	ports := 2
	bankA, bankB := -1, -1
	banks := c.cfg.L1D.Banks
	bankBytes := c.cfg.L1D.BankBytes
	checkBank := func(addr uint64) bool {
		if !c.bankChecks {
			return true
		}
		b := cache.Bank(addr, banks, bankBytes)
		if b == bankA || b == bankB {
			c.progressed = true
			c.Stats.BankConflicts++
			return false
		}
		if bankA < 0 {
			bankA = b
		} else {
			bankB = b
		}
		return true
	}

	// Loads first, oldest first: they are latency-critical.
	for _, seq := range c.loadQ {
		if ports == 0 {
			break
		}
		e := &c.window[seq&c.winMask]
		if e.addrReady > cycle {
			continue
		}
		if c.storeForward {
			if ready, ok, wait := c.forwardFromStore(e, cycle); ok {
				c.progressed = true
				ports--
				e.accessed = true
				e.completeCycle = ready
				e.fwdCycle = ready + 1
				c.Stats.StoreForwards++
				if c.Observer != nil {
					c.Observer.LoadAccess(c.id, e.seq, &e.rec, true)
				}
				continue
			} else if wait {
				continue // overlapping store's data not captured yet
			}
		}
		if !checkBank(e.rec.EA) {
			continue
		}
		// Every access is progress, a refused one included: it counts
		// L1D and DTLB activity.
		c.progressed = true
		res := c.Mem.AccessData(e.rec.EA, false, cycle)
		if res.Retry {
			continue // MSHRs full: retry next cycle
		}
		ports--
		e.accessed = true
		e.completeCycle = res.Ready
		if c.Observer != nil {
			c.Observer.LoadAccess(c.id, e.seq, &e.rec, false)
		}
		if !c.specDispatch {
			// Conservative machine: consumers dispatch only after the data
			// is confirmed valid, paying the dispatch-to-execute depth on
			// every load-use — the deep-pipeline bubble speculative
			// dispatch exists to remove (section 3.1).
			e.fwdCycle = res.Ready + 1 + execOffset
			continue
		}
		if res.L1Hit {
			e.fwdCycle = res.Ready + 1
			continue
		}
		// Speculative dispatch: consumers see the predicted hit timing;
		// the miss is revealed when the hit data would have arrived.
		predicted := cycle + c.hitCycles
		e.fwdCycle = predicted + 1
		e.specUntil = predicted + 1
		c.reveals = append(c.reveals, reveal{
			seq:    e.seq,
			at:     predicted,
			newFwd: res.Ready + 1,
		})
	}
	if ports < 2 {
		c.dropAccessedLoads()
	}

	// Committed stores drain in order with leftover ports.
	for ports > 0 && c.drainLen() > 0 && c.drainQ[c.drainHead].ok <= cycle {
		d := c.drainQ[c.drainHead]
		if !checkBank(d.addr) {
			break
		}
		c.progressed = true
		res := c.Mem.AccessData(d.addr, true, cycle)
		if res.Retry {
			break
		}
		ports--
		c.popDrain()
		c.sqCount--
		c.Stats.StoresDrained++
		if c.Observer != nil {
			c.Observer.StoreDrained(c.id, d.addr, d.size)
		}
	}
}

// forwardFromStore checks for an older store whose 8-byte window covers the
// load. ok means the load was satisfied by bypass at the returned cycle;
// wait means an overlapping store exists but its data is not captured yet
// (the load retries next cycle). Committed-but-undrained stores forward
// from the drain queue.
func (c *CPU) forwardFromStore(ld *robEntry, cycle uint64) (ready uint64, ok, wait bool) {
	window := ld.rec.EA &^ 7
	lat := c.storeFwdLat
	// Youngest older in-window store wins.
	for seq := ld.seq; seq > c.head; seq-- {
		e := c.entry(seq - 1)
		if e == nil || !e.isStore() || e.rec.EA&^7 != window {
			continue
		}
		if e.st != stDispatched || e.addrReady > cycle {
			return 0, false, true // address not generated yet: conservative wait
		}
		if rdy, done := c.producerComplete(e.dataSeq, cycle); !done || rdy > cycle {
			return 0, false, true // data not captured yet
		}
		return cycle + lat, true, false
	}
	// Committed stores awaiting drain.
	for i := len(c.drainQ) - 1; i >= c.drainHead; i-- {
		if c.drainQ[i].addr&^7 == window {
			return cycle + lat, true, false
		}
	}
	return 0, false, false
}

// pendLoad adds a just-dispatched load to loadQ, the seq-ordered list of
// dispatched loads still waiting for their cache access.
func (c *CPU) pendLoad(seq uint64) {
	c.loadQ = append(c.loadQ, seq)
	for i := len(c.loadQ) - 1; i > 0 && c.loadQ[i-1] > seq; i-- {
		c.loadQ[i], c.loadQ[i-1] = c.loadQ[i-1], c.loadQ[i]
	}
}

// unpendLoad removes a cancelled load from loadQ.
func (c *CPU) unpendLoad(seq uint64) {
	for i, s := range c.loadQ {
		if s == seq {
			c.loadQ = append(c.loadQ[:i], c.loadQ[i+1:]...)
			return
		}
	}
}

// dropAccessedLoads removes the loads lsqTick served from loadQ.
func (c *CPU) dropAccessedLoads() {
	kept := c.loadQ[:0]
	for _, seq := range c.loadQ {
		if !c.window[seq&c.winMask].accessed {
			kept = append(kept, seq)
		}
	}
	c.loadQ = kept
}

package cpu

import (
	"sparc64v/internal/bpred"
	"sparc64v/internal/isa"
)

// fetch models the I-unit's five-stage fetch pipeline: up to 32 bytes
// (eight instructions) per cycle through the L1 instruction cache, guided
// by the branch history table. Being trace-driven, the model consumes
// correct-path records only; wrong-path fetch after a misprediction shows
// up as the fetch gap between the branch and its resolution.
func (c *CPU) fetch(cycle uint64) {
	if cycle < c.fetchResumeAt {
		if c.blockSeq != 0 {
			c.Stats.FetchStallBranch++
		} else if c.fetchResumeAt != never {
			c.Stats.FetchStallICache++
		} else {
			c.Stats.FetchStallBranch++
		}
		return
	}
	if c.blockSeq != 0 {
		c.blockSeq = 0
		c.progressed = true
	}

	width := c.fetchWidth
	for n := 0; n < width; n++ {
		if c.fetchBufLen() >= c.fetchBufCap {
			return
		}
		if !c.pendingValid && c.srcDone {
			return
		}
		// From here fetch reads the source, probes the I-cache or
		// buffers an instruction.
		c.progressed = true
		if !c.pendingValid {
			if !c.src.Next(&c.pendingRec) {
				c.srcDone = true
				return
			}
			c.pendingValid = true
		}
		rec := c.pendingRec

		// Instruction cache: probe on every new line.
		line := rec.PC >> c.Mem.L1I.LineShift()
		if !c.haveLine || line != c.lastFetchLine {
			res := c.Mem.AccessInstr(rec.PC, cycle)
			c.lastFetchLine, c.haveLine = line, true
			if !res.L1Hit {
				// Fetch stalls until the line arrives; the pending record
				// is consumed next time.
				c.fetchResumeAt = res.Ready
				return
			}
		}

		var out bpred.Outcome
		if rec.Op.IsBranch() && !c.cfg.Perfect.Branch {
			switch rec.Op {
			case isa.Call:
				out = c.pred.Call(rec.PC)
			case isa.Return:
				out = c.pred.Return(rec.EA)
			default:
				out = c.pred.Conditional(rec.PC, rec.Taken, rec.EA)
			}
		}
		if !c.bhtBubbles {
			out.TakenBubbles = 0
		}

		c.pendingValid = false
		c.Stats.Fetched++
		c.pushFetch(fetchedInstr{
			rec:     rec,
			fetched: cycle,
			readyAt: cycle + c.pipeDepth,
			outcome: out,
		})

		if out.Mispredict {
			// Wrong path: no further fetch until the branch resolves
			// (dispatch sets fetchResumeAt).
			c.fetchResumeAt = never
			return
		}
		if rec.Op.IsBranch() && rec.Taken {
			// Redirect: the fetch group ends; BHT access latency inserts
			// bubbles before the target block.
			bub := uint64(out.TakenBubbles)
			c.Stats.FetchBubbles += bub
			c.fetchResumeAt = cycle + 1 + bub
			return
		}
	}
}

package cpu

// Counter-block arithmetic for the sampling driver (internal/core), which
// measures detailed windows as snapshot deltas: every field of Stats is a
// monotonic counter, so a window's activity is simply after.Sub(before),
// and whole-run measured activity is the Add over all windows. A sleeping
// core is credited the same way: n skipped quiet ticks add the quiet
// tick's delta (after.Sub(before)) n times (CPU.CreditQuiet).

// Sub returns the field-wise difference s - o (s must be a later snapshot
// of the same counter block).
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Cycles:             s.Cycles - o.Cycles,
		Committed:          s.Committed - o.Committed,
		Fetched:            s.Fetched - o.Fetched,
		StallWindow:        s.StallWindow - o.StallWindow,
		StallRename:        s.StallRename - o.StallRename,
		StallRS:            s.StallRS - o.StallRS,
		StallLQ:            s.StallLQ - o.StallLQ,
		StallSQ:            s.StallSQ - o.StallSQ,
		FetchStallICache:   s.FetchStallICache - o.FetchStallICache,
		FetchStallBranch:   s.FetchStallBranch - o.FetchStallBranch,
		FetchBubbles:       s.FetchBubbles - o.FetchBubbles,
		SpecCancels:        s.SpecCancels - o.SpecCancels,
		BankConflicts:      s.BankConflicts - o.BankConflicts,
		StoresDrained:      s.StoresDrained - o.StoresDrained,
		StoreForwards:      s.StoreForwards - o.StoreForwards,
		SpecialSerialized:  s.SpecialSerialized - o.SpecialSerialized,
		ZeroCommitFrontend: s.ZeroCommitFrontend - o.ZeroCommitFrontend,
		ZeroCommitMemory:   s.ZeroCommitMemory - o.ZeroCommitMemory,
		ZeroCommitExecute:  s.ZeroCommitExecute - o.ZeroCommitExecute,
		ZeroCommitRS:       s.ZeroCommitRS - o.ZeroCommitRS,
		ZeroCommitSpec:     s.ZeroCommitSpec - o.ZeroCommitSpec,
	}
	for i := range d.CommittedByClass {
		d.CommittedByClass[i] = s.CommittedByClass[i] - o.CommittedByClass[i]
	}
	return d
}

// Add returns the field-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	a := Stats{
		Cycles:             s.Cycles + o.Cycles,
		Committed:          s.Committed + o.Committed,
		Fetched:            s.Fetched + o.Fetched,
		StallWindow:        s.StallWindow + o.StallWindow,
		StallRename:        s.StallRename + o.StallRename,
		StallRS:            s.StallRS + o.StallRS,
		StallLQ:            s.StallLQ + o.StallLQ,
		StallSQ:            s.StallSQ + o.StallSQ,
		FetchStallICache:   s.FetchStallICache + o.FetchStallICache,
		FetchStallBranch:   s.FetchStallBranch + o.FetchStallBranch,
		FetchBubbles:       s.FetchBubbles + o.FetchBubbles,
		SpecCancels:        s.SpecCancels + o.SpecCancels,
		BankConflicts:      s.BankConflicts + o.BankConflicts,
		StoresDrained:      s.StoresDrained + o.StoresDrained,
		StoreForwards:      s.StoreForwards + o.StoreForwards,
		SpecialSerialized:  s.SpecialSerialized + o.SpecialSerialized,
		ZeroCommitFrontend: s.ZeroCommitFrontend + o.ZeroCommitFrontend,
		ZeroCommitMemory:   s.ZeroCommitMemory + o.ZeroCommitMemory,
		ZeroCommitExecute:  s.ZeroCommitExecute + o.ZeroCommitExecute,
		ZeroCommitRS:       s.ZeroCommitRS + o.ZeroCommitRS,
		ZeroCommitSpec:     s.ZeroCommitSpec + o.ZeroCommitSpec,
	}
	for i := range a.CommittedByClass {
		a.CommittedByClass[i] = s.CommittedByClass[i] + o.CommittedByClass[i]
	}
	return a
}

// AddTimes adds d·n to s in place, field by field.
func (s *Stats) AddTimes(d *Stats, n uint64) {
	s.Cycles += d.Cycles * n
	s.Committed += d.Committed * n
	s.Fetched += d.Fetched * n
	s.StallWindow += d.StallWindow * n
	s.StallRename += d.StallRename * n
	s.StallRS += d.StallRS * n
	s.StallLQ += d.StallLQ * n
	s.StallSQ += d.StallSQ * n
	s.FetchStallICache += d.FetchStallICache * n
	s.FetchStallBranch += d.FetchStallBranch * n
	s.FetchBubbles += d.FetchBubbles * n
	s.SpecCancels += d.SpecCancels * n
	s.BankConflicts += d.BankConflicts * n
	s.StoresDrained += d.StoresDrained * n
	s.StoreForwards += d.StoreForwards * n
	s.SpecialSerialized += d.SpecialSerialized * n
	s.ZeroCommitFrontend += d.ZeroCommitFrontend * n
	s.ZeroCommitMemory += d.ZeroCommitMemory * n
	s.ZeroCommitExecute += d.ZeroCommitExecute * n
	s.ZeroCommitRS += d.ZeroCommitRS * n
	s.ZeroCommitSpec += d.ZeroCommitSpec * n
	for i := range s.CommittedByClass {
		s.CommittedByClass[i] += d.CommittedByClass[i] * n
	}
}

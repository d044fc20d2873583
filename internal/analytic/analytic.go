// Package analytic is a grey-box closed-form CPI estimator for the
// detailed model: a fast tier that prices a configuration in microseconds
// instead of seconds.
//
// The model is "grey-box" because it is neither a pure white-box pipeline
// equation nor a black-box regression: its inputs are physically meaningful
// per-workload features measured from ONE detailed reference run (miss
// rates per kilo-instruction, mispredict rates, stall attribution), its
// structure is the classic additive-penalty CPI decomposition
//
//	CPI ≈ c_core·(issue + exec) + c_mem·(L1I + L1D + L2 + TLB) +
//	      c_branch·(mispredict + fetch-bubble) + c_0
//
// and the four coefficients are calibrated per workload against a ladder of
// detailed runs (see Calibrate). The coefficients absorb what the closed
// form cannot express — out-of-order overlap, MSHR parallelism, prefetch
// coverage — which is exactly why a naive additive model overestimates
// memory stalls by 2-3x and this one does not.
//
// Configurations away from the reference geometry are priced by scaling the
// measured miss rates with power laws (the square-root capacity rule for
// caches, a milder exponent for associativity and BHT entries), so the
// estimator answers "what if the L1 were 32KB?" without ever simulating
// that machine. The estimate carries a confidence band derived from the
// calibration residuals and full provenance (model version, trace length,
// seed), so a consumer can always tell how much to trust it and fall back
// to the detailed model (POST /v1/run) when the band is too wide or the
// workload is uncalibrated.
package analytic

import (
	"fmt"
	"math"

	"sparc64v/internal/config"
	"sparc64v/internal/isa"
	"sparc64v/internal/system"
)

// Power-law exponents for scaling measured miss rates to geometries away
// from the reference. The capacity exponent is the empirical "square-root
// rule" (miss rate ~ 1/sqrt(size)) that holds across the cache sizes the
// paper studies; associativity and BHT sizing move miss rates much less,
// hence the milder exponent.
const (
	sizeExp = 0.5
	waysExp = 0.25
	bhtExp  = 0.25
)

// Features is the per-workload measurement vector the estimator consumes,
// extracted from one detailed run at the reference configuration. All rates
// are per kilo-instruction (PKI/MPKI) over the measurement window, so they
// compose into cycles-per-instruction terms by a single multiply.
type Features struct {
	// Workload is the profile's canonical name.
	Workload string `json:"workload"`
	// ClassWeights is the committed-instruction fraction per class name
	// (isa.Class.String); the weights sum to 1.
	ClassWeights map[string]float64 `json:"class_weights"`
	// L1IMPKI, L1DMPKI and L2MPKI are demand misses per kilo-instruction
	// at the reference geometry.
	L1IMPKI float64 `json:"l1i_mpki"`
	L1DMPKI float64 `json:"l1d_mpki"`
	L2MPKI  float64 `json:"l2_mpki"`
	// L2MPKINoPf estimates the demand L2 MPKI with the prefetcher off:
	// demand plus prefetch misses per kilo-instruction. Every line the
	// prefetcher missed on is a line demand would have missed on, so this
	// is the no-prefetch upper bound the estimator uses for Prefetch=false
	// configurations.
	L2MPKINoPf float64 `json:"l2_mpki_nopf"`
	// BranchMPKI is mispredicted branches per kilo-instruction.
	BranchMPKI float64 `json:"branch_mpki"`
	// FetchBubblePKI is taken-branch BHT-access bubbles per
	// kilo-instruction (cycles, already scaled by the reference BHT's
	// access latency).
	FetchBubblePKI float64 `json:"fetch_bubble_pki"`
	// TLBStallPKI is TLB miss penalty cycles per kilo-instruction.
	TLBStallPKI float64 `json:"tlb_stall_pki"`

	// Reference geometry anchors for the power-law scaling.
	RefL1IBytes        int `json:"ref_l1i_bytes"`
	RefL1IWays         int `json:"ref_l1i_ways"`
	RefL1DBytes        int `json:"ref_l1d_bytes"`
	RefL1DWays         int `json:"ref_l1d_ways"`
	RefL2Bytes         int `json:"ref_l2_bytes"`
	RefL2Ways          int `json:"ref_l2_ways"`
	RefBHTEntries      int `json:"ref_bht_entries"`
	RefBHTAccessCycles int `json:"ref_bht_access_cycles"`
}

// MeasureFeatures extracts the feature vector from a uniprocessor detailed
// run at configuration cfg (the calibration reference).
func MeasureFeatures(cfg config.Config, r *system.Report) (Features, error) {
	if len(r.CPUs) != 1 {
		return Features{}, fmt.Errorf("analytic: features need a uniprocessor run, got %d CPUs", len(r.CPUs))
	}
	c := &r.CPUs[0]
	if c.Core.Committed == 0 {
		return Features{}, fmt.Errorf("analytic: reference run committed no instructions")
	}
	ki := float64(c.Core.Committed) / 1000
	f := Features{
		Workload:           r.Workload,
		ClassWeights:       make(map[string]float64),
		L1IMPKI:            float64(c.L1I.DemandMisses) / ki,
		L1DMPKI:            float64(c.L1D.DemandMisses) / ki,
		L2MPKI:             float64(c.L2.DemandMisses) / ki,
		L2MPKINoPf:         float64(c.L2.DemandMisses+c.L2.PrefetchMisses) / ki,
		BranchMPKI:         float64(c.Branch.Mispredicts()) / ki,
		FetchBubblePKI:     float64(c.Core.FetchBubbles) / ki,
		TLBStallPKI:        float64(c.TLBStallCycles) / ki,
		RefL1IBytes:        cfg.L1I.SizeBytes,
		RefL1IWays:         cfg.L1I.Ways,
		RefL1DBytes:        cfg.L1D.SizeBytes,
		RefL1DWays:         cfg.L1D.Ways,
		RefL2Bytes:         cfg.Mem.L2.SizeBytes,
		RefL2Ways:          cfg.Mem.L2.Ways,
		RefBHTEntries:      cfg.BHT.Entries,
		RefBHTAccessCycles: cfg.BHT.AccessCycles,
	}
	for op, n := range c.Core.CommittedByClass {
		if n > 0 {
			f.ClassWeights[isa.Class(op).String()] = float64(n) / float64(c.Core.Committed)
		}
	}
	return f, nil
}

// Terms are the three grouped regressors of the CPI model, each in
// cycles-per-instruction units so the fitted coefficients are dimensionless
// overlap factors.
type Terms struct {
	// Core is ideal issue occupancy plus latency-over-single-cycle
	// execution work.
	Core float64 `json:"core"`
	// Mem is the additive L1I + L1D + L2 + TLB miss penalty.
	Mem float64 `json:"mem"`
	// Branch is the mispredict redirect plus taken-branch fetch-bubble
	// penalty.
	Branch float64 `json:"branch"`
}

// Terms evaluates the model's regressors for configuration cfg, scaling the
// measured reference rates to cfg's geometry. The second return value
// itemizes the contributions (uncalibrated, for explainability).
func (f *Features) Terms(cfg config.Config) (Terms, map[string]float64) {
	var t Terms
	parts := make(map[string]float64)

	// Core: 1/width of perfectly packed issue, plus per-class execution
	// latency beyond a single cycle (mostly hidden by the out-of-order
	// window; the calibrated coefficient prices how much is not).
	issue := 1 / float64(cfg.CPU.IssueWidth)
	// Summed in class order, not map order, so the estimate is the same
	// to the bit on every call.
	var exec float64
	for cl := isa.Class(0); int(cl) < isa.NumClasses; cl++ {
		if w, ok := f.ClassWeights[cl.String()]; ok {
			exec += w * float64(cfg.CPU.Latencies[cl].Cycles-1)
		}
	}
	t.Core = issue + exec
	parts["issue"] = issue
	parts["exec"] = exec

	// Mem: each miss population times its exposed latency. An L1 miss is
	// served by the L2 (plus the chip crossing when the L2 is off chip);
	// an L2 miss is served by memory.
	l1Cost := float64(cfg.Mem.L2.HitCycles)
	if cfg.Mem.L2OffChip {
		l1Cost += float64(cfg.Mem.OffChipPenalty)
	}
	memLat := float64(cfg.Mem.DRAMCycles)
	l1i := scaleCache(f.L1IMPKI, f.RefL1IBytes, cfg.L1I.SizeBytes, f.RefL1IWays, cfg.L1I.Ways) / 1000 * l1Cost
	l1d := scaleCache(f.L1DMPKI, f.RefL1DBytes, cfg.L1D.SizeBytes, f.RefL1DWays, cfg.L1D.Ways) / 1000 * l1Cost
	l2mpki := f.L2MPKI
	if !cfg.Mem.Prefetch {
		l2mpki = f.L2MPKINoPf
	}
	l2 := scaleCache(l2mpki, f.RefL2Bytes, cfg.Mem.L2.SizeBytes, f.RefL2Ways, cfg.Mem.L2.Ways) / 1000 * memLat
	tlb := f.TLBStallPKI / 1000
	t.Mem = l1i + l1d + l2 + tlb
	parts["l1i"] = l1i
	parts["l1d"] = l1d
	parts["l2"] = l2
	parts["tlb"] = tlb

	// Branch: a mispredict drains the front end (redirect plus fetch and
	// decode refill); a predicted-taken branch inserts BHT-access bubbles,
	// scaled from the reference table's latency.
	brMPKI := scalePow(f.BranchMPKI, f.RefBHTEntries, cfg.BHT.Entries, bhtExp)
	brPenalty := float64(cfg.CPU.MispredictRedirect + cfg.CPU.FetchPipeStages + cfg.CPU.DecodeStages)
	br := brMPKI / 1000 * brPenalty
	var bub float64
	if f.RefBHTAccessCycles > 0 {
		bub = f.FetchBubblePKI / 1000 * float64(cfg.BHT.AccessCycles) / float64(f.RefBHTAccessCycles)
	}
	t.Branch = br + bub
	parts["mispredict"] = br
	parts["bubble"] = bub

	return t, parts
}

// scalePow scales a measured rate from a reference geometry parameter to
// the configured one: rate · (ref/cur)^exp. Shrinking the resource (cur <
// ref) raises the rate.
func scalePow(rate float64, ref, cur int, exp float64) float64 {
	if ref <= 0 || cur <= 0 || ref == cur {
		return rate
	}
	return rate * math.Pow(float64(ref)/float64(cur), exp)
}

// scaleCache applies the capacity and associativity power laws together.
func scaleCache(mpki float64, refBytes, curBytes, refWays, curWays int) float64 {
	return scalePow(scalePow(mpki, refBytes, curBytes, sizeExp), refWays, curWays, waysExp)
}

// Coefficients are the calibrated per-workload weights of the grouped
// terms. Core/Mem/Branch are overlap factors (how much of each additive
// penalty the out-of-order machine actually exposes, typically in (0,1]);
// Const absorbs workload-constant cost the terms do not carry.
type Coefficients struct {
	Core   float64 `json:"core"`
	Mem    float64 `json:"mem"`
	Branch float64 `json:"branch"`
	Const  float64 `json:"const"`
}

// CPI applies the coefficients to a term vector.
func (k Coefficients) CPI(t Terms) float64 {
	return k.Core*t.Core + k.Mem*t.Mem + k.Branch*t.Branch + k.Const
}

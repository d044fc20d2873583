package analytic

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/system"
)

// synthTerms builds a spread of term vectors resembling a real ladder.
func synthTerms() []Terms {
	return []Terms{
		{Core: 0.30, Mem: 0.40, Branch: 0.10},
		{Core: 0.55, Mem: 0.40, Branch: 0.10},
		{Core: 0.30, Mem: 0.90, Branch: 0.10},
		{Core: 0.30, Mem: 0.55, Branch: 0.10},
		{Core: 0.30, Mem: 0.40, Branch: 0.22},
		{Core: 0.30, Mem: 0.70, Branch: 0.13},
		{Core: 0.30, Mem: 0.60, Branch: 0.10},
		{Core: 0.30, Mem: 0.80, Branch: 0.16},
	}
}

func TestFitRecoversKnownCoefficients(t *testing.T) {
	want := Coefficients{Core: 0.8, Mem: 0.5, Branch: 1.2, Const: 0.3}
	terms := synthTerms()
	y := make([]float64, len(terms))
	for i, tr := range terms {
		y[i] = want.CPI(tr)
	}
	got := fit(terms, y)
	for name, pair := range map[string][2]float64{
		"core":   {got.Core, want.Core},
		"mem":    {got.Mem, want.Mem},
		"branch": {got.Branch, want.Branch},
		"const":  {got.Const, want.Const},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-6 {
			t.Errorf("fit %s = %v, want %v", name, pair[0], pair[1])
		}
	}
}

func TestFitClampsNegativeSlopes(t *testing.T) {
	// A response that decreases with the Branch term would fit a negative
	// slope unconstrained; the active-set pass must clamp it to zero.
	gen := Coefficients{Core: 0.8, Mem: 0.5, Branch: -2.0, Const: 0.3}
	terms := synthTerms()
	y := make([]float64, len(terms))
	for i, tr := range terms {
		y[i] = gen.CPI(tr)
	}
	got := fit(terms, y)
	if got.Branch != 0 {
		t.Errorf("fit branch = %v, want clamped 0", got.Branch)
	}
	if got.Core < 0 || got.Mem < 0 {
		t.Errorf("fit produced negative slope: %+v", got)
	}
}

func TestScalePow(t *testing.T) {
	// Halving a cache under the square-root rule raises the miss rate by
	// sqrt(2); growing it lowers the rate; same size is identity.
	if got := scalePow(10, 128, 64, 0.5); math.Abs(got-10*math.Sqrt2) > 1e-9 {
		t.Errorf("shrink: got %v", got)
	}
	if got := scalePow(10, 64, 128, 0.5); got >= 10 {
		t.Errorf("grow did not lower the rate: %v", got)
	}
	if got := scalePow(10, 64, 64, 0.5); got != 10 {
		t.Errorf("identity: got %v", got)
	}
}

func TestDefaultArtifact(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if cal.ModelVersion != core.ModelVersion {
		t.Fatalf("artifact model version %q, want %q — regenerate with cmd/calibrate",
			cal.ModelVersion, core.ModelVersion)
	}
	if len(cal.Workloads) < 6 {
		t.Fatalf("artifact has %d workloads, want >= 6", len(cal.Workloads))
	}
	for _, wc := range cal.Workloads {
		name := wc.Features.Workload
		if wc.MaxRelErr >= 0.15 {
			t.Errorf("%s: max ladder residual %.1f%% >= 15%%", name, 100*wc.MaxRelErr)
		}
		var base *Residual
		for i := range wc.Residuals {
			if wc.Residuals[i].Config == "sparc64v.base" {
				base = &wc.Residuals[i]
			}
		}
		if base == nil {
			t.Errorf("%s: no base-configuration residual", name)
			continue
		}
		if math.Abs(base.RelErr) >= 0.10 {
			t.Errorf("%s: base residual %.1f%% >= 10%%", name, 100*base.RelErr)
		}
	}
}

func TestEstimate(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	e, err := cal.Estimate(config.Base(), "specint95")
	if err != nil {
		t.Fatal(err)
	}
	if e.CPI <= 0 || e.IPC <= 0 || math.Abs(e.CPI*e.IPC-1) > 1e-9 {
		t.Errorf("CPI/IPC inconsistent: %+v", e)
	}
	if !(e.CPILow <= e.CPI && e.CPI <= e.CPIHigh) {
		t.Errorf("band does not bracket the estimate: [%v, %v] around %v", e.CPILow, e.CPIHigh, e.CPI)
	}
	if e.ModelVersion != core.ModelVersion || e.CalibrationInsts <= 0 {
		t.Errorf("missing provenance: %+v", e)
	}
	for _, part := range []string{"issue", "exec", "l1i", "l1d", "l2", "tlb", "mispredict", "bubble"} {
		if _, ok := e.Terms[part]; !ok {
			t.Errorf("terms missing %q", part)
		}
	}
	// Workload names resolve case-insensitively, as in workload.ByName.
	if _, err := cal.Estimate(config.Base(), "SPECint95"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
}

func TestEstimateUncalibrated(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Estimate(config.Base(), "nosuch"); !errors.Is(err, ErrUncalibrated) {
		t.Errorf("unknown workload: got %v, want ErrUncalibrated", err)
	}
	if _, err := cal.Estimate(config.Base().WithCPUs(16), "specint95"); !errors.Is(err, ErrUncalibrated) {
		t.Errorf("MP configuration: got %v, want ErrUncalibrated", err)
	}
}

func TestEstimateCacheTrend(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	base := config.Base()
	ladder := []config.Config{
		base,
		base.WithL1Capacity(64<<10, 2),
		base.WithL1Capacity(32<<10, 1),
	}
	for _, wc := range cal.Workloads {
		prev := -1.0
		for _, cfg := range ladder {
			e, err := cal.Estimate(cfg, wc.Features.Workload)
			if err != nil {
				t.Fatalf("%s/%s: %v", wc.Features.Workload, cfg.Name, err)
			}
			if e.CPI < prev {
				t.Errorf("%s: CPI fell from %.4f to %.4f when the L1 shrank (%s)",
					wc.Features.Workload, prev, e.CPI, cfg.Name)
			}
			prev = e.CPI
		}
		// Disabling the prefetcher can only expose more L2 misses.
		on, _ := cal.Estimate(base, wc.Features.Workload)
		off, err := cal.Estimate(base.WithoutPrefetch(), wc.Features.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if off.CPI < on.CPI {
			t.Errorf("%s: prefetch-off CPI %.4f < prefetch-on %.4f",
				wc.Features.Workload, off.CPI, on.CPI)
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	a, err := cal.Estimate(config.Base().WithSmallBHT(), "tpc-c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cal.Estimate(config.Base().WithSmallBHT(), "tpc-c")
	if err != nil {
		t.Fatal(err)
	}
	if a.CPI != b.CPI || a.CPILow != b.CPILow || a.CPIHigh != b.CPIHigh {
		t.Errorf("estimate not deterministic: %+v vs %+v", a, b)
	}
}

func TestMeasureFeaturesRejectsMP(t *testing.T) {
	r := system.Report{CPUs: make([]system.CPUReport, 2)}
	if _, err := MeasureFeatures(config.Base(), &r); err == nil ||
		!strings.Contains(err.Error(), "uniprocessor") {
		t.Errorf("MP report: got %v", err)
	}
}

// TestEstimateBitReproducible pins the fast tier to the bit: repeating an
// estimate of the same (configuration, workload) must return the identical
// CPI every time, whatever order Go iterates the feature maps in.
func TestEstimateBitReproducible(t *testing.T) {
	cal, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cal.Workloads {
		name := w.Features.Workload
		for _, cfg := range Ladder(config.Base()) {
			first, err := cal.Estimate(cfg, name)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			for i := 0; i < 200; i++ {
				e, err := cal.Estimate(cfg, name)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(e.CPI) != math.Float64bits(first.CPI) {
					t.Fatalf("%s/%s: call %d CPI %x, first call %x", name, cfg.Name, i,
						math.Float64bits(e.CPI), math.Float64bits(first.CPI))
				}
			}
		}
	}
}

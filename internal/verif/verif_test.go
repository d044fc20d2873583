package verif

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func collect(p workload.Profile, seed int64, n int) []trace.Record {
	return trace.Collect(trace.NewLimitSource(workload.New(p, seed, 0), n), 0)
}

func TestReverseTracerExactReplay(t *testing.T) {
	for _, p := range []workload.Profile{workload.SPECint95(), workload.TPCC()} {
		recs := collect(p, 3, 30000)
		prog, err := FromTrace(trace.NewSliceSource(recs))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prog.Len() != len(recs) {
			t.Fatalf("%s: Len=%d want %d", p.Name, prog.Len(), len(recs))
		}
		got := trace.Collect(prog.Replay(), 0)
		if len(got) != len(recs) {
			t.Fatalf("%s: replay yielded %d records, want %d", p.Name, len(got), len(recs))
		}
		for i := range recs {
			want := recs[i]
			if want.Op.IsBranch() && !want.Taken {
				want.EA = 0 // not-taken targets are not semantic
			}
			if got[i] != want {
				t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", p.Name, i, got[i], want)
			}
		}
		if prog.StaticInstrs() >= len(recs) {
			t.Errorf("%s: program has no static compression (%d static for %d dynamic)",
				p.Name, prog.StaticInstrs(), len(recs))
		}
	}
}

// Property: replay is exact for arbitrary seeds and window sizes.
func TestReverseTracerQuick(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		count := int(n)%4000 + 100
		recs := collect(workload.SPECint2000(), seed, count)
		prog, err := FromTrace(trace.NewSliceSource(recs))
		if err != nil {
			return false
		}
		got := trace.Collect(prog.Replay(), 0)
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			want := recs[i]
			if want.Op.IsBranch() && !want.Taken {
				want.EA = 0
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestReverseTracerRejectsBrokenFlow(t *testing.T) {
	recs := collect(workload.SPECint95(), 1, 100)
	recs[50].PC += 4 // break control flow
	if _, err := FromTrace(trace.NewSliceSource(recs)); err == nil {
		t.Fatal("broken control flow accepted")
	}
}

func TestProgramSerialization(t *testing.T) {
	recs := collect(workload.SPECfp95(), 9, 20000)
	prog, err := FromTrace(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prog.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Collect(prog.Replay(), 0)
	b := trace.Collect(back.Replay(), 0)
	if len(a) != len(b) {
		t.Fatalf("decoded program replays %d records, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
	if _, err := ReadProgram(bytes.NewReader([]byte("junkjunk"))); err == nil {
		t.Error("bad magic accepted")
	}
}

// The model must produce identical timing for the original trace and the
// reverse-traced program — the paper's "detailed match" requirement
// between the performance model and logic-simulator test programs.
func TestModelTimingMatchesReplay(t *testing.T) {
	recs := collect(workload.SPECint95(), 5, 40000)
	prog, err := FromTrace(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.NewModel(config.Base())
	opt := core.RunOptions{Insts: len(recs), Warmup: 1}
	r1, err := m.RunSourcesContext(context.Background(), "orig", []trace.Source{trace.NewSliceSource(recs)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.RunSourcesContext(context.Background(), "replay", []trace.Source{prog.Replay()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Committed != r2.Committed {
		t.Fatalf("timing mismatch: %d/%d vs %d/%d cycles/instrs",
			r1.Cycles, r1.Committed, r2.Cycles, r2.Committed)
	}
}

func TestReferenceModelBasics(t *testing.T) {
	rf := NewReference(config.Base())
	rf.RunContext(context.Background(), trace.NewLimitSource(workload.New(workload.SPECint95(), 2, 0), 50000))
	cpi := rf.CPI()
	if cpi < 1 || cpi > 50 {
		t.Fatalf("reference CPI = %.2f implausible", cpi)
	}
	if NewReference(config.Base()).CPI() != 0 {
		t.Error("empty reference CPI != 0")
	}
}

// The reference and detailed models must agree on the direction of the
// paper's design changes (the initial-model validation methodology).
func TestTrendAgreement(t *testing.T) {
	base := config.Base()
	opt := core.RunOptions{Insts: 80_000}
	cases := []struct {
		name    string
		variant config.Config
	}{
		{"small L1", base.WithSmallL1()},
		{"off-chip direct-mapped L2", base.WithOffChipL2(1)},
	}
	for _, c := range cases {
		tc, err := RunTrendCheckContext(context.Background(), c.name, base, c.variant, workload.TPCC(), opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !tc.Agree() {
			t.Errorf("%s: models disagree: model %.4f vs reference %.4f",
				c.name, tc.ModelDelta, tc.ReferenceDelta)
		}
	}
}

func TestAccuracyStudy(t *testing.T) {
	study, err := RunAccuracyStudyContext(context.Background(), config.Base(), workload.SPECint2000(),
		core.RunOptions{Insts: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 8 {
		t.Fatalf("%d points", len(study.Points))
	}
	// v1 must overestimate performance relative to v8.
	if study.Points[0].RatioToFinal < 1 {
		t.Errorf("v1 ratio %.3f < 1", study.Points[0].RatioToFinal)
	}
	// v8's ratio is 1 by construction.
	if r := study.Points[7].RatioToFinal; r < 0.999 || r > 1.001 {
		t.Errorf("v8 ratio %.3f != 1", r)
	}
	// The final model must land within the paper's error budget (<5%)
	// of the physical-machine proxy.
	if study.FinalError() > 0.05 {
		t.Errorf("final error %.3f exceeds 5%%", study.FinalError())
	}
	// The machine proxy differs from every early version.
	if study.MachineIPC <= 0 {
		t.Error("machine proxy IPC not positive")
	}
}

// TestAccuracyStudyBatchedMatchesSerial: the ladder's lockstep-batched path
// (opt.Batch > 1) must reproduce the serial study exactly — same IPCs, same
// ratios — including when the chunk size forces the nine rungs to split
// across several batches.
func TestAccuracyStudyBatchedMatchesSerial(t *testing.T) {
	opt := core.RunOptions{Insts: 40_000, Workers: 1}
	want, err := RunAccuracyStudyContext(context.Background(), config.Base(), workload.SPECint2000(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{4, 16} {
		bo := opt
		bo.Batch = batch
		bo.Workers = 2
		got, err := RunAccuracyStudyContext(context.Background(), config.Base(), workload.SPECint2000(), bo)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if got.MachineIPC != want.MachineIPC {
			t.Errorf("batch=%d: machine IPC %v, want %v", batch, got.MachineIPC, want.MachineIPC)
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("batch=%d: point %d = %+v, want %+v", batch, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// TestAccuracyStudyContextCancelled: the fidelity ladder must report the
// cancellation instead of running all nine simulations.
func TestAccuracyStudyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAccuracyStudyContext(ctx, config.Base(), workload.SPECint95(),
		core.RunOptions{Insts: 30_000, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAccuracyStudyContext err = %v", err)
	}
}

// TestReferenceRunContextCancelled: the in-order reference loop polls its
// context on an instruction stride.
func TestReferenceRunContextCancelled(t *testing.T) {
	rf := NewReference(config.Base())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rf.RunContext(ctx, trace.NewLimitSource(workload.New(workload.SPECint95(), 1, 0), 1_000_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Reference.RunContext err = %v", err)
	}
	if rf.Instructions >= 1_000_000 {
		t.Fatalf("reference consumed the whole trace (%d instrs) despite cancellation", rf.Instructions)
	}
}

// TestTrendCheckContextCancelled covers the four-way scheduled trend run.
func TestTrendCheckContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := config.Base()
	_, err := RunTrendCheckContext(ctx, "x", base, base.WithSmallBHT(), workload.SPECint95(),
		core.RunOptions{Insts: 30_000, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTrendCheckContext err = %v", err)
	}
}

// TestAnalyticRung: the grey-box estimator renders as a v0 rung scored
// against the same machine proxy and final model as the simulated ladder,
// and workloads outside the calibration set degrade to an error rather
// than a fabricated rung.
func TestAnalyticRung(t *testing.T) {
	cal, err := analytic.Default()
	if err != nil {
		t.Fatal(err)
	}
	study := AccuracyStudy{
		Workload:   "SPECint2000",
		MachineIPC: 0.50,
		Points: []VersionPoint{
			{Name: "v1", IPC: 0.90},
			{Name: "v8", IPC: 0.48},
		},
	}
	v0, err := AnalyticRung(cal, config.Base(), &study)
	if err != nil {
		t.Fatal(err)
	}
	if v0.Name != "v0" || v0.IPC <= 0 {
		t.Fatalf("rung = %+v", v0)
	}
	if want := v0.IPC / 0.48; v0.RatioToFinal != want {
		t.Errorf("RatioToFinal = %v, want %v", v0.RatioToFinal, want)
	}
	if want := (v0.IPC - 0.50) / 0.50; v0.ErrorVsMachine < want-1e-9 || v0.ErrorVsMachine > want+1e-9 {
		t.Errorf("ErrorVsMachine = %v, want %v", v0.ErrorVsMachine, want)
	}

	study.Workload = "quake3"
	if _, err := AnalyticRung(cal, config.Base(), &study); !errors.Is(err, analytic.ErrUncalibrated) {
		t.Errorf("uncalibrated workload: err = %v, want ErrUncalibrated", err)
	}
	study.Workload = "SPECint2000"
	study.Points = nil
	if _, err := AnalyticRung(cal, config.Base(), &study); err == nil {
		t.Error("empty ladder: err = nil, want error")
	}
}

package core

import (
	"context"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/workload"
)

// TestRunManyParallelMatchesSerial pins the scheduler contract at the
// harness level: fanning the seed sweep onto workers must reproduce the
// serial reports seed for seed, in order.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	opt := RunOptions{Insts: 20_000, Workers: 1}
	serial, err := m.RunManyContext(context.Background(), workload.SPECint95(), opt, n)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = n
	parallel, err := m.RunManyContext(context.Background(), workload.SPECint95(), opt, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Reports) != n || len(parallel.Reports) != n {
		t.Fatalf("report counts: serial %d, parallel %d", len(serial.Reports), len(parallel.Reports))
	}
	for i := range serial.Reports {
		s, p := serial.Reports[i], parallel.Reports[i]
		if s.Cycles != p.Cycles || s.Committed != p.Committed {
			t.Errorf("seed %d: serial %d cycles/%d committed, parallel %d cycles/%d committed",
				i, s.Cycles, s.Committed, p.Cycles, p.Committed)
		}
	}
	if serial.MeanIPC != parallel.MeanIPC || serial.StdIPC != parallel.StdIPC {
		t.Errorf("aggregate stats differ: serial %.9f±%.9f, parallel %.9f±%.9f",
			serial.MeanIPC, serial.StdIPC, parallel.MeanIPC, parallel.StdIPC)
	}
}

// TestBreakdownParallelMatchesSerial does the same for the four-run
// perfect-ization study.
func TestBreakdownParallelMatchesSerial(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{Insts: 20_000, Workers: 1}
	serial, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parallel, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Breakdown != parallel.Breakdown {
		t.Errorf("breakdown differs: serial %+v, parallel %+v", serial.Breakdown, parallel.Breakdown)
	}
	if serial.Base.Cycles != parallel.Base.Cycles ||
		serial.PerfectAll.Cycles != parallel.PerfectAll.Cycles {
		t.Errorf("cycle counts differ: base %d/%d, perfect-all %d/%d",
			serial.Base.Cycles, parallel.Base.Cycles,
			serial.PerfectAll.Cycles, parallel.PerfectAll.Cycles)
	}
}

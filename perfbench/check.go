package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"sparc64v/internal/cache"
	"sparc64v/internal/core"
	"sparc64v/internal/system"
)

// Correctness. Every simulated result is digested. For a (workload, seed,
// schedule, model version) with recorded digests the result must match
// them in order; otherwise the benchmark checks conservation instead. A
// mismatch or a failed conservation check counts as a failed operation.

// digestFile is the recorded-digest table (digests.json).
type digestFile struct {
	// Runs maps a run identity (see digestKey) to the 16-hex-digit
	// digests of its results, in schedule order.
	Runs map[string][]string `json:"runs"`
}

//go:embed digests.json
var recordedDigests []byte

// digestPath is where --record writes the table, relative to the
// repository root the benchmark runs from.
const digestPath = "perfbench/digests.json"

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(recordedDigests, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	if d.Runs == nil {
		d.Runs = map[string][]string{}
	}
	return d, nil
}

// digestKey names one run's results: workload, seed, a fingerprint of the
// schedule (so resizing the workload never compares against stale
// digests) and the model version.
func digestKey(workload string, seed int64, schedule string) string {
	sum := sha256.Sum256([]byte(schedule))
	return fmt.Sprintf("%s/seed=%d/sched=%s/%s", workload, seed, hex.EncodeToString(sum[:4]), core.ModelVersion)
}

// digest is the first 64 bits of SHA-256 over v's JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checker compares a run's digests with the recorded ones.
type checker struct {
	key      string
	recorded []string
	got      []string
	// keep bounds how many digests record stores (0 = all).
	keep int
}

func newChecker(workload string, seed int64, schedule string) (*checker, error) {
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	k := digestKey(workload, seed, schedule)
	return &checker{key: k, recorded: d.Runs[k]}, nil
}

// check records the i-th result's digest. It returns "" when the digest
// matches the recorded one, when no digest is recorded for i and fallback
// (the conservation check) passes, or the reason the result is wrong.
func (c *checker) check(i int, dg string, fallback func() string) string {
	for len(c.got) <= i {
		c.got = append(c.got, "")
	}
	c.got[i] = dg
	if i < len(c.recorded) {
		if c.recorded[i] != dg {
			return fmt.Sprintf("digest %s != recorded %s", dg, c.recorded[i])
		}
		return ""
	}
	return fallback()
}

// record writes this run's digests into the table file.
func (c *checker) record() error {
	d := digestFile{Runs: map[string][]string{}}
	if b, err := os.ReadFile(digestPath); err == nil {
		if err := json.Unmarshal(b, &d); err != nil {
			return fmt.Errorf("%s: %w", digestPath, err)
		}
	}
	if d.Runs == nil {
		d.Runs = map[string][]string{}
	}
	got := c.got
	if c.keep > 0 && len(got) > c.keep {
		got = got[:c.keep]
	}
	d.Runs[c.key] = got
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath, append(b, '\n'), 0o644)
}

// conserveFull checks a full (unsampled) detailed run: every post-warm-up
// instruction committed on every CPU, no cycle cap, fetched >= committed
// and misses <= accesses at every cache level.
func conserveFull(r *system.Report, insts int, warmup uint64, cpus int) string {
	if r.HitCap {
		return "hit the cycle cap"
	}
	if len(r.CPUs) != cpus {
		return fmt.Sprintf("%d CPU reports, want %d", len(r.CPUs), cpus)
	}
	want := (uint64(insts) - warmup) * uint64(cpus)
	if r.Committed != want {
		return fmt.Sprintf("committed %d, want (insts-warmup)*cpus = %d", r.Committed, want)
	}
	for i := range r.CPUs {
		c := &r.CPUs[i]
		if c.Core.Fetched < c.Core.Committed {
			return fmt.Sprintf("cpu%d fetched %d < committed %d", i, c.Core.Fetched, c.Core.Committed)
		}
		for _, s := range []*cache.Stats{&c.L1I, &c.L1D, &c.L2} {
			if s.DemandMisses > s.DemandAccesses || s.PrefetchMisses > s.PrefetchAccesses {
				return fmt.Sprintf("cpu%d cache misses exceed accesses: %+v", i, *s)
			}
		}
	}
	return ""
}

// conserveSummary checks a /v1/run response's stats. A full run must
// commit (insts-warmup)*cpus; a sampled run must report its measured
// instructions as committed. Either way fetched >= committed per CPU and
// every miss rate lies in [0, 1].
func conserveSummary(s *system.Summary, insts int, warmup uint64, cpus int, sampled bool) string {
	if len(s.PerCPU) != cpus {
		return fmt.Sprintf("%d CPU summaries, want %d", len(s.PerCPU), cpus)
	}
	switch {
	case sampled && s.Sampling == nil:
		return "sampled run without a sampling block"
	case sampled && (s.Sampling.Windows < 1 || s.Sampling.MeasuredInsts != s.Committed):
		return fmt.Sprintf("sampling block inconsistent: %d windows, measured %d, committed %d",
			s.Sampling.Windows, s.Sampling.MeasuredInsts, s.Committed)
	case !sampled && s.Committed != (uint64(insts)-warmup)*uint64(cpus):
		return fmt.Sprintf("committed %d, want (insts-warmup)*cpus = %d", s.Committed, (uint64(insts)-warmup)*uint64(cpus))
	}
	for i, c := range s.PerCPU {
		if c.Fetched < c.Committed {
			return fmt.Sprintf("cpu%d fetched %d < committed %d", i, c.Fetched, c.Committed)
		}
	}
	for _, r := range []float64{s.L1IMissRate, s.L1DMissRate, s.L2DemandMiss, s.L2TotalMiss, s.BranchFailRate} {
		if r < 0 || r > 1 {
			return fmt.Sprintf("rate %g outside [0,1]", r)
		}
	}
	return ""
}

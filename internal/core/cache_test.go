package core

import (
	"context"
	"reflect"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/workload"
)

// testCacheOpt returns a small, fast run configuration.
func testCacheOpt(cache *runcache.Cache) RunOptions {
	return RunOptions{Insts: 30_000, Seed: 7, Workers: 1, Cache: cache}
}

// TestCachedRunByteIdentical pins the cache's core guarantee: for an
// identical (config, workload, seed, insts, version) tuple, the cached and
// uncached paths return exactly equal reports — every table derived from
// them renders byte-identically.
func TestCachedRunByteIdentical(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SPECint95()

	fresh, err := m.RunContext(context.Background(), p, testCacheOpt(nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.RunContext(context.Background(), p, testCacheOpt(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.RunContext(context.Background(), p, testCacheOpt(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cold) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Fatal("warm cached run differs from uncached run")
	}
	s := cache.Stats()
	if s.Misses != 1 || s.MemoryHits != 1 {
		t.Fatalf("stats: %+v (want 1 miss, 1 memory hit)", s)
	}

	// A second process over the same cache dir serves from disk, again
	// exactly equal.
	cache2, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := m.RunContext(context.Background(), p, testCacheOpt(cache2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, disk) {
		t.Fatal("disk-served run differs from uncached run")
	}
	if s := cache2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats: %+v (want 1 disk hit, 0 misses)", s)
	}
}

// TestCacheKeySensitivity pins that changing any run parameter re-simulates
// instead of serving a stale entry.
func TestCacheKeySensitivity(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SPECint95()
	base := config.Base()
	m, _ := NewModel(base)

	opt := testCacheOpt(cache)
	if _, err := m.RunContext(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	// Different seed.
	o := opt
	o.Seed = 8
	if _, err := m.RunContext(context.Background(), p, o); err != nil {
		t.Fatal(err)
	}
	// Different config.
	m2, _ := NewModel(base.WithIssueWidth(2))
	if _, err := m2.RunContext(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	// Different workload, same display name: profile hash must separate.
	p2 := p
	p2.BlockLen++
	if _, err := m.RunContext(context.Background(), p2, opt); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 4 || s.Hits() != 0 {
		t.Fatalf("stats: %+v (want 4 distinct misses)", s)
	}
}

// TestBreakdownWarmCache pins the incremental-sweep behavior at the study
// level: a second Breakdown over a warm cache runs zero simulations and
// returns identical results.
func TestBreakdownWarmCache(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	opt := testCacheOpt(cache)

	cold, err := m.BreakdownContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	warm, err := m.BreakdownContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm breakdown differs from cold")
	}
	s := cache.Stats()
	if s.Misses != misses {
		t.Fatalf("warm breakdown re-simulated: %d -> %d misses", misses, s.Misses)
	}
	if s.Hits() == 0 {
		t.Fatal("warm breakdown did not hit the cache")
	}
}

// TestRunManyDedup pins singleflight at the harness level: identical seeds
// submitted concurrently share one simulation.
func TestRunManyDedup(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	opt := testCacheOpt(cache)
	opt.Workers = 4

	// RunMany over n seeds twice concurrently: the second wave must share
	// or hit, never duplicate a simulation.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := m.RunManyContext(context.Background(), p, opt, 3)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != 3 {
		t.Fatalf("6 submitted runs over 3 seeds simulated %d times, want 3 (stats %+v)", s.Misses, s)
	}
}

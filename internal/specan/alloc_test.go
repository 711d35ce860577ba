package specan

import (
	"runtime"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
	"fase/internal/microbench"
)

// TestSweepSteadyStateAllocs pins the per-sweep allocation count of the
// serial capture path. After warm-up the big scratch (FFT buffers, bin
// arrays) comes from pools and the plan cache is hot; what remains is the
// result assembly (specs/parts slices, trace averager, stitched spectrum,
// ~30 allocations) plus a handful of small per-render objects some
// emitters still rebuild per capture. The refresh renderer's per-rank
// weights and per-pulse position/area arrays come from a pool, so a
// refresh-bearing scene (asserted below) adds nothing per capture.
// Pinning the total turns "the sweep got chattier with the allocator" —
// e.g. a pooled buffer quietly replaced by make, one extra object per
// capture — into a test failure instead of a silent perf regression.
func TestSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	// The pin must cover the pooled refresh scratch: if the scene model
	// ever drops its refresh emitter the measurement silently stops
	// exercising that path, so assert it is present.
	if sys.Refresh == nil {
		t.Fatal("i7-desktop scene no longer bears a refresh emitter; pick a refresh-bearing scene for the alloc pin")
	}
	// MaxFFT 4096 forces 4 segments over the 1.2 MHz span (12000 bins at
	// 3072 usable per segment), i.e. 16 captures per sweep; Parallelism 1
	// keeps the measurement on the serial path AllocsPerRun can count
	// deterministically (goroutine stacks are not allocation-stable).
	an := New(Config{Fres: 100, MaxFFT: 4096, Parallelism: 1})
	req := Request{Scene: sys.Scene(1, true), F1: 100e3, F2: 1.3e6, Seed: 1}
	for i := 0; i < 2; i++ { // warm pools and plan cache
		req.Seed++
		an.Sweep(req)
	}
	allocs := testing.AllocsPerRun(5, func() {
		req.Seed++
		if sp := an.Sweep(req); sp.Bins() == 0 {
			t.Fatal("empty sweep")
		}
	})
	// Measured 2026-08: 83 allocs/sweep (down from 148 before the refresh
	// renderer's weights/pulse arrays were pooled). The bound leaves ~10%
	// headroom for toolchain drift — less than the +16 a single extra
	// allocation per capture would add.
	t.Logf("measured %.0f allocs/sweep", allocs)
	const maxAllocs = 92
	if allocs > maxAllocs {
		t.Errorf("steady-state sweep made %.0f allocations, want <= %d", allocs, maxAllocs)
	}
}

// TestSweepReuseStaticSteadyStateAllocs pins the same bound with the
// static render cache enabled and warm: serving a capture's static layer
// from the cache must add zero per-sweep allocations. The lookup path is
// a struct-keyed map read under an RWMutex (no boxing, no insertion) and
// replay writes into the already-pooled capture buffer, so a warm sweep
// stays within the base pin — if caching starts allocating (say the key
// gains a pointer that escapes, or replay grows a scratch slice), this
// fails alongside the perf regression it would cause.
func TestSweepReuseStaticSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	an := New(Config{Fres: 100, MaxFFT: 4096, Parallelism: 1, Statics: NewStaticCache()})
	// Unlike the base test the seed is fixed: the cache keys on capture
	// identity, and the steady state being pinned is "every capture
	// replayed from a warm entry".
	req := Request{Scene: sys.Scene(1, true), F1: 100e3, F2: 1.3e6, Seed: 1}
	for i := 0; i < 2; i++ { // warm pools, plan cache, and static cache
		an.Sweep(req)
	}
	misses := staticMissesTotal.Value()
	allocs := testing.AllocsPerRun(5, func() {
		if sp := an.Sweep(req); sp.Bins() == 0 {
			t.Fatal("empty sweep")
		}
	})
	if staticMissesTotal.Value() != misses {
		t.Fatal("steady-state sweeps rebuilt static entries; the measurement is not warm")
	}
	// Measured 2026-08: 25 allocs/sweep — conditionally static layers
	// replay from the warm cache, so most per-render scratch never runs.
	t.Logf("measured %.0f allocs/sweep", allocs)
	const maxAllocs = 32
	if allocs > maxAllocs {
		t.Errorf("warm cached sweep made %.0f allocations, want <= %d", allocs, maxAllocs)
	}
}

// TestSweepColdStaticBytes pins the bytes, not just the allocation count,
// of filling a cold static cache: an i7-desktop sweep over 200–900 kHz at
// 100 Hz RBW (one 16384-sample segment, 4 captures) under a campaign's
// LDM/LDL1 alternation, on an analyzer whose cache has never seen the
// request. Each capture's static layer is one summed 16384-sample buffer
// (256 KiB), so the cold sweep stays near 2.5 MB including the analyzer's
// first plan and arena buffers; caching one addend stream per harmonic
// instead would cost about 70 MB and fail here. A warm-up sweep on another
// analyzer and cache first fills the process-wide pools and FFT plans.
func TestSweepColdStaticBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Fres: 100, Parallelism: 1, Statics: NewStaticCache()}
	req := Request{
		Scene: sys.Scene(1, true), F1: 200e3, F2: 900e3, Seed: 1,
		Activity: microbench.Generate(microbench.Config{
			X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
			Jitter: microbench.DefaultJitter(), Seed: 1,
		}, 1.0),
	}
	New(cfg).Sweep(req)
	cfg.Statics = NewStaticCache()
	an := New(cfg)
	if got := an.SweepCaptures(req.F1, req.F2); got != 4 {
		t.Fatalf("sweep renders %d captures, want 4", got)
	}
	misses := staticMissesTotal.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	an.Sweep(req)
	runtime.ReadMemStats(&after)
	if built := staticMissesTotal.Value() - misses; built != 4 {
		t.Fatalf("cold sweep built %d static sets, want 4", built)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("cold cached sweep allocated %.2f MB", mb)
	const maxMB = 4
	if mb > maxMB {
		t.Errorf("cold cached sweep allocated %.2f MB, want <= %d MB", mb, maxMB)
	}
}

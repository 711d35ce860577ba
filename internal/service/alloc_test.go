package service

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"fase/internal/core"
	"fase/internal/obs"
)

// TestShardedJobBuildsOnePlan: an exhaustive job's five shard analyzers
// share the campaign's render cache, so the job builds each segment's
// plan once, as RunE of the same campaign does: its manifest reads
// plans_built 1 and one specan_plan miss for the one-segment scan, and
// the planner block and plan-cache counts equal RunE's.
func TestShardedJobBuildsOnePlan(t *testing.T) {
	req := tinyRequest("acme", 91)
	m := submitDone(t, newServer(t, Config{Workers: 2}), req).result()
	c, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	scene, err := defaultSceneFor(req.System, req.Scan.Seed, req.Environment)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun()
	if _, err := (&core.Runner{Scene: scene, Obs: run}).RunE(c); err != nil {
		t.Fatal(err)
	}
	want := run.Manifest()
	if m.Planner.PlansBuilt != 1 || m.Caches["specan_plan"].Misses != 1 {
		t.Errorf("job built %d plans with %d plan-cache misses, want 1 and 1",
			m.Planner.PlansBuilt, m.Caches["specan_plan"].Misses)
	}
	if !reflect.DeepEqual(m.Planner, want.Planner) || m.Caches["specan_plan"] != want.Caches["specan_plan"] {
		t.Errorf("job planner %+v, plan cache %+v; RunE %+v, %+v",
			m.Planner, m.Caches["specan_plan"], want.Planner, want.Caches["specan_plan"])
	}
}

// TestRenderedJobAllocBytes pins the bytes the service allocates per
// rendered job, for each of the benchmark's job kinds (fasebench
// service): the one-segment small scan, the wide 250–550 kHz scan at
// 200 Hz, and the budgeted adaptive scan of the accuracy-corpus geometry,
// all with the RF environment. Each kind's median over five seeds is
// measured in-process at GOMAXPROCS 1 (sync.Pool keeps a slot per P)
// after one warm-up job of the kind has filled the pools, FFT plans and
// window tables; it counts everything the server does for the job, from
// admission to the archived manifest.
func TestRenderedJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newServer(t, Config{})
	small := ScanSpec{F1: 300e3, F2: 360e3, Fres: 500, FAlt1: 43.3e3, FDelta: 1e3}
	wide := small
	wide.F1, wide.F2, wide.Fres = 250e3, 550e3, 200
	adaptive := ScanSpec{F1: 200e3, F2: 900e3, Fres: 100, FAlt1: 43.3e3, FDelta: 1e3,
		MaxFFT: 2048, Adaptive: true, Budget: 30}
	// Measured on a 2-vCPU x86-64 host with Go 1.24, in MB per job
	// (median), against the code before traces stored 8-byte switch times,
	// captures kept only their bins and a job's analyzers shared one
	// render cache: small 0.195 (0.404 before), wide 0.773 (1.621 before),
	// adaptive 1.085 (1.580 before; its median moves by about 0.1 MB
	// between runs with the collector's timing). Each bound is 1.25 times
	// the measurement.
	for _, k := range []struct {
		name  string
		spec  ScanSpec
		maxMB float64
	}{
		{"small", small, 1.25 * 0.195},
		{"wide", wide, 1.25 * 0.773},
		{"adaptive", adaptive, 1.25 * 1.085},
	} {
		job := func(seed int64) float64 {
			sp := k.spec
			sp.Seed = seed
			req := &ScanRequest{Tenant: "acme", System: "i7-desktop", Environment: true, Scan: sp}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			submitDone(t, s, req)
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		}
		job(1000)
		mb := make([]float64, 5)
		for i := range mb {
			mb[i] = job(int64(i + 1))
		}
		sort.Float64s(mb)
		t.Logf("%s job: %.3f MB (median; seeds read %.3f to %.3f MB)", k.name, mb[2], mb[0], mb[4])
		if mb[2] > k.maxMB {
			t.Errorf("%s job allocated %.3f MB, want <= %.3f MB", k.name, mb[2], k.maxMB)
		}
	}
}

package specan

import (
	"math"
	"runtime"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/obs"
)

// TestSweepEquivalencePlannedUnplanned is the end-to-end counterpart of
// the machine-level render equivalence test: one Request swept with plan
// culling and without it, serial and parallel, must produce the same
// spectrum bit for bit. The unculled cases sweep opaqueScene, whose
// components the planner cannot cull.
func TestSweepEquivalencePlannedUnplanned(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	req := func(scene *emsim.Scene, run *obs.Run) Request {
		return Request{
			Scene: scene, F1: 250e3, F2: 750e3, Seed: 17, Events: run.Track(1),
			Activity: microbench.Generate(microbench.Config{
				X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
				Jitter: microbench.DefaultJitter(), Seed: 17,
			}, 1.0),
		}
	}
	var ref *spectral.Spectrum
	for _, tc := range []struct {
		name     string
		cfg      Config
		unculled bool
	}{
		{"planned serial", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1}, false},
		{"unculled serial", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1}, true},
		{"planned parallel", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: runtime.GOMAXPROCS(0)}, false},
		{"unculled parallel", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: runtime.GOMAXPROCS(0)}, true},
		// Observability on must not change a single bit: timings, the
		// journal and the trace's capture timings observe the pipeline,
		// never steer it.
		{"instrumented serial", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, Obs: tracedRun()}, false},
		{"instrumented parallel", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: runtime.GOMAXPROCS(0), Obs: tracedRun()}, false},
		{"instrumented unculled", Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: runtime.GOMAXPROCS(0), Obs: tracedRun()}, true},
	} {
		scene := sys.Scene(17, true)
		if tc.unculled {
			scene = opaqueScene(scene)
		}
		s := New(tc.cfg).Sweep(req(scene, tc.cfg.Obs))
		if ref == nil {
			ref = s
			continue
		}
		if s.F0 != ref.F0 || s.Fres != ref.Fres || s.Bins() != ref.Bins() {
			t.Fatalf("%s: geometry %g/%g/%d, want %g/%g/%d",
				tc.name, s.F0, s.Fres, s.Bins(), ref.F0, ref.Fres, ref.Bins())
		}
		for i := range s.PmW {
			if math.Float64bits(s.PmW[i]) != math.Float64bits(ref.PmW[i]) {
				t.Fatalf("%s: bin %d (%.1f Hz) = %x, reference %x",
					tc.name, i, s.Freq(i), math.Float64bits(s.PmW[i]),
					math.Float64bits(ref.PmW[i]))
			}
		}
	}
}

// tracedRun builds a traced obs.Run with a journal, the fully
// instrumented configuration the equivalence cases exercise.
func tracedRun() *obs.Run {
	run := obs.NewRun()
	run.Trace, run.Journal = true, obs.NewJournal()
	return run
}

// TestSweepPlanCacheReuse checks the analyzer caches plans per segment:
// a second sweep of the same scene and geometry reuses the cached entries
// rather than recomputing (observable as identical plan pointers).
func TestSweepPlanCacheReuse(t *testing.T) {
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 0.5e6, dbm: -80}, &emsim.Background{FloorDBmPerHz: -172})
	an := New(Config{Fres: 200, MaxFFT: 4096, Parallelism: 1})
	an.Sweep(Request{Scene: scene, F1: 0.2e6, F2: 0.8e6, Seed: 1})
	var first []*emsim.RenderPlan
	an.plans.Range(func(_, v any) bool {
		first = append(first, v.(*planEntry).plan)
		return true
	})
	if len(first) == 0 {
		t.Fatal("sweep left no cached plans")
	}
	an.Sweep(Request{Scene: scene, F1: 0.2e6, F2: 0.8e6, Seed: 2})
	count := 0
	an.plans.Range(func(_, v any) bool {
		count++
		return true
	})
	if count != len(first) {
		t.Errorf("second sweep grew the plan cache to %d entries (was %d)", count, len(first))
	}
}

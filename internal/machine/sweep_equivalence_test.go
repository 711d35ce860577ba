package machine

import (
	"math"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/specan"
)

// TestSweepEquivalenceSegmented holds the production render path to the
// sweep-level contract: a sweep through it (run-length segmented
// regulators/clocks, blocked refresh, planner culling and preparation,
// conditional static splits) must match the oracle scene — per-sample
// kernels, nothing culled, no cache, serial — bit for bit: culled and
// unculled, serial and parallel, with and without the static cache, and
// with a fault plan mangling the capture chain. Runs under the race
// detector via `make equivalence` (the parallel cases exercise the shared
// cond-key scratch pool and two-level cache).
func TestSweepEquivalenceSegmented(t *testing.T) {
	sys, err := Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	reqFor := func(scene *emsim.Scene, act *activity.Trace) specan.Request {
		return specan.Request{Scene: scene, F1: 250e3, F2: 750e3, Seed: 23, Activity: act}
	}
	alt := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
		Jitter: microbench.DefaultJitter(), Seed: 23,
	}, 1.0)
	faults := &emsim.FaultPlan{
		Seed: 7, DropProb: 0.2, TruncProb: 0.2,
		ExtraNoiseDBmPerHz: -165, BurstProb: 0.3,
	}
	// One reference per (trace, fault) combination, rendered the dumbest
	// way available: per-sample oracles, nothing culled or cached, serial.
	refFor := func(act *activity.Trace, fp *emsim.FaultPlan) *spectral.Spectrum {
		an := specan.New(specan.Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, Faults: fp})
		return an.Sweep(reqFor(oracleScene(sys.Scene(23, true)), act))
	}
	refs := map[*activity.Trace]map[bool]*spectral.Spectrum{
		nil: {false: refFor(nil, nil)},
		alt: {false: refFor(alt, nil), true: refFor(alt, faults)},
	}

	for _, tc := range []struct {
		name     string
		act      *activity.Trace
		par      int
		unculled bool
		cached   bool
		faulted  bool
	}{
		{"idle planned serial", nil, 1, false, false, false},
		{"planned serial", alt, 1, false, false, false},
		{"planned parallel", alt, 4, false, false, false},
		{"unculled serial", alt, 1, true, false, false},
		{"cached serial", alt, 1, false, true, false},
		{"cached parallel", alt, 4, false, true, false},
		{"faulted serial", alt, 1, false, false, true},
		{"faulted parallel", alt, 4, false, false, true},
	} {
		cfg := specan.Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: tc.par}
		if tc.cached {
			cfg.Statics = specan.NewStaticCache()
		}
		if tc.faulted {
			cfg.Faults = faults
		}
		scene := sys.Scene(23, true)
		if tc.unculled {
			scene = opaqueScene(scene)
		}
		got := specan.New(cfg).Sweep(reqFor(scene, tc.act))
		compareSpectraBits(t, tc.name, got, refs[tc.act][tc.faulted])
	}
}

func compareSpectraBits(t *testing.T, name string, s, ref *spectral.Spectrum) {
	t.Helper()
	if s.F0 != ref.F0 || s.Fres != ref.Fres || s.Bins() != ref.Bins() {
		t.Fatalf("%s: geometry %g/%g/%d, want %g/%g/%d",
			name, s.F0, s.Fres, s.Bins(), ref.F0, ref.Fres, ref.Bins())
	}
	for i := range s.PmW {
		if math.Float64bits(s.PmW[i]) != math.Float64bits(ref.PmW[i]) {
			t.Fatalf("%s: bin %d (%.1f Hz) = %x, reference %x",
				name, i, s.Freq(i), math.Float64bits(s.PmW[i]),
				math.Float64bits(ref.PmW[i]))
		}
	}
}

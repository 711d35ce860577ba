package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
)

// synthSpectra builds N flat spectra with a static carrier at carrierBin
// and, when modulated, side-bands that move with each measurement's falt.
func synthSpectra(n, bins, carrierBin int, fres float64, falts []float64, modulated bool) []*spectral.Spectrum {
	r := rand.New(rand.NewSource(7))
	out := make([]*spectral.Spectrum, n)
	for i := 0; i < n; i++ {
		s := spectral.New(0, fres, bins)
		for k := range s.PmW {
			s.PmW[k] = 1e-15 * (0.8 + 0.4*r.Float64()) // floor with ripple
		}
		s.PmW[carrierBin] += 1e-11 // static carrier in every measurement
		if modulated {
			shift := int(math.Round(falts[i] / fres))
			for _, sb := range []int{carrierBin + shift, carrierBin - shift} {
				if sb >= 0 && sb < bins {
					s.PmW[sb] += 1e-13 // side-band at ±falt_i
				}
			}
		}
		out[i] = s
	}
	return out
}

var testFalts = []float64{43300, 43800, 44300, 44800, 45300}

func TestScoreSpikesAtModulatedCarrier(t *testing.T) {
	fres := 50.0
	bins := 4000
	carrier := 2000
	sp := synthSpectra(5, bins, carrier, fres, testFalts, true)
	for _, h := range []int{1, -1} {
		sc := Score(sp, testFalts, h)
		// Peak at the carrier bin.
		best, bv := 0, 0.0
		for k, v := range sc {
			if v > bv {
				best, bv = k, v
			}
		}
		if best != carrier {
			t.Errorf("h=%d: peak at bin %d, want %d", h, best, carrier)
		}
		if bv < 1000 {
			t.Errorf("h=%d: peak score %g too small", h, bv)
		}
	}
}

func TestScoreFlatForUnmodulatedCarrier(t *testing.T) {
	fres := 50.0
	sp := synthSpectra(5, 4000, 2000, fres, testFalts, false)
	sc := Score(sp, testFalts, 1)
	for k, v := range sc {
		if v > 20 {
			t.Errorf("unmodulated: score %g at bin %d", v, k)
		}
	}
}

func TestScoreIdenticalSpectraIsUnity(t *testing.T) {
	// Property: if all measurements are identical, every in-range score
	// is exactly 1 (numerator equals the leave-one-out mean).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bins := 200 + r.Intn(200)
		base := spectral.New(0, 100, bins)
		for k := range base.PmW {
			base.PmW[k] = r.Float64() + 0.1
		}
		sp := make([]*spectral.Spectrum, 4)
		falts := make([]float64, 4)
		for i := range sp {
			sp[i] = base.Clone()
			falts[i] = 2000 + 100*float64(i)
		}
		sc := Score(sp, falts, 1)
		for _, v := range sc {
			if math.Abs(v-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestScoreObscuredSidebandsStillDetect(t *testing.T) {
	// §2.3: even with several side-bands buried, remaining sub-scores
	// raise the product well above the flat baseline.
	fres := 50.0
	bins := 4000
	carrier := 2000
	sp := synthSpectra(5, bins, carrier, fres, testFalts, true)
	// Obscure the +falt side-band of measurements 0 and 1 with a strong
	// interferer present in all spectra at those frequencies.
	for _, i := range []int{0, 1} {
		bin := carrier + int(math.Round(testFalts[i]/fres))
		for j := range sp {
			sp[j].PmW[bin] += 1e-10
		}
	}
	sc := Score(sp, testFalts, 1)
	if sc[carrier] < 100 {
		t.Errorf("obscured-side-band score %g, want > 100", sc[carrier])
	}
}

func TestScoreHigherHarmonicSpacing(t *testing.T) {
	// Side-bands at ±2·falt_i are found by h=±2, not h=±1.
	fres := 50.0
	bins := 6000
	carrier := 3000
	r := rand.New(rand.NewSource(9))
	sp := make([]*spectral.Spectrum, 5)
	for i := range sp {
		s := spectral.New(0, fres, bins)
		for k := range s.PmW {
			s.PmW[k] = 1e-15 * (0.8 + 0.4*r.Float64())
		}
		shift := 2 * int(math.Round(testFalts[i]/fres))
		s.PmW[carrier+shift] += 1e-13
		sp[i] = s
	}
	sc2 := Score(sp, testFalts, 2)
	sc1 := Score(sp, testFalts, 1)
	if sc2[carrier] < 1000 {
		t.Errorf("h=2 score %g at carrier, want large", sc2[carrier])
	}
	if sc1[carrier] > sc2[carrier]/100 {
		t.Errorf("h=1 score %g should be far below h=2 %g", sc1[carrier], sc2[carrier])
	}
}

// TestScoreShiftInvariance: translating every measurement's bins by the
// same offset translates the score trace by that offset (away from the
// edges) — the heuristic has no preferred absolute frequency.
func TestScoreShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bins := 3000
		shift := 1 + r.Intn(40)
		falts := []float64{20e3, 21e3, 22e3}
		base := make([]*spectral.Spectrum, 3)
		moved := make([]*spectral.Spectrum, 3)
		for i := range base {
			b := spectral.New(0, 50, bins)
			m := spectral.New(0, 50, bins)
			vals := make([]float64, bins)
			for k := range vals {
				vals[k] = r.Float64() + 0.01
			}
			for k := 0; k < bins; k++ {
				b.PmW[k] = vals[k]
				if k+shift < bins {
					m.PmW[k+shift] = vals[k]
				} else {
					m.PmW[k+shift-bins] = vals[k]
				}
			}
			base[i], moved[i] = b, m
		}
		sb := Score(base, falts, 1)
		sm := Score(moved, falts, 1)
		// Compare interior bins.
		for k := 500; k < bins-500-shift; k++ {
			if math.Abs(sb[k]-sm[k+shift]) > 1e-9*(sb[k]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestGroupHarmonicsPartition: grouping covers every detection exactly
// once and each member's frequency matches its order × fundamental.
func TestGroupHarmonicsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var dets []Detection
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			dets = append(dets, Detection{Freq: 50e3 + r.Float64()*2e6})
		}
		sets := GroupHarmonics(dets, 0.004)
		total := 0
		for _, s := range sets {
			if len(s.Members) != len(s.Orders) {
				return false
			}
			total += len(s.Members)
			for i, m := range s.Members {
				want := float64(s.Orders[i]) * s.Fundamental
				if math.Abs(m.Freq-want) > 0.01*m.Freq {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScorePanics(t *testing.T) {
	sp := synthSpectra(2, 100, 50, 50, testFalts[:2], false)
	mustPanic(t, func() { Score(sp[:1], testFalts[:1], 1) })
	mustPanic(t, func() { Score(sp, testFalts[:3], 1) })
	mustPanic(t, func() { Score(sp, testFalts[:2], 0) })
	bad := []*spectral.Spectrum{sp[0], spectral.New(10, 50, 100)}
	mustPanic(t, func() { Score(bad, testFalts[:2], 1) })
}

func TestSmoothSpectrum(t *testing.T) {
	s := spectral.New(0, 1, 11)
	s.PmW[5] = 11
	sm := SmoothSpectrum(s, 5)
	// Mean preserved away from edges; impulse spread over 5 bins.
	for k := 3; k <= 7; k++ {
		if math.Abs(sm.PmW[k]-11.0/5) > 1e-12 {
			t.Errorf("smoothed bin %d = %g, want 2.2", k, sm.PmW[k])
		}
	}
	if sm.PmW[2] != 0 || sm.PmW[8] != 0 {
		t.Error("smoothing leaked beyond window")
	}
	// Width 1 and below: identity copy.
	id := SmoothSpectrum(s, 1)
	for k := range s.PmW {
		if id.PmW[k] != s.PmW[k] {
			t.Fatal("width-1 smoothing should be identity")
		}
	}
	id.PmW[0] = 99
	if s.PmW[0] == 99 {
		t.Error("SmoothSpectrum must not alias its input")
	}
	// Even width is promoted to odd, constant stays constant.
	c := spectral.New(0, 1, 32)
	for k := range c.PmW {
		c.PmW[k] = 3
	}
	cs := SmoothSpectrum(c, 4)
	for k := 2; k < 30; k++ {
		if math.Abs(cs.PmW[k]-3) > 1e-12 {
			t.Errorf("constant not preserved at %d: %g", k, cs.PmW[k])
		}
	}
}

func TestFAltsLadder(t *testing.T) {
	c := Campaign{FAlt1: 43.3e3, FDelta: 0.5e3}
	got := c.FAlts()
	want := testFalts
	if len(got) != 5 {
		t.Fatalf("ladder size %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("falt[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestPaperCampaigns(t *testing.T) {
	cs := PaperCampaigns(activity.LDM, activity.LDL1)
	if len(cs) != 3 {
		t.Fatalf("want 3 campaigns (Figure 10)")
	}
	// Figure 10 rows.
	if cs[0].Fres != 50 || cs[0].FAlt1 != 43.3e3 || cs[0].FDelta != 0.5e3 {
		t.Error("campaign 1 parameters wrong")
	}
	if cs[1].Fres != 500 || cs[1].FAlt1 != 43.3e3 || cs[1].FDelta != 5e3 {
		t.Error("campaign 2 parameters wrong")
	}
	if cs[2].Fres != 500 || cs[2].FAlt1 != 1.8e6 || cs[2].FDelta != 100e3 {
		t.Error("campaign 3 parameters wrong")
	}
	if cs[2].F2 != 1200e6 {
		t.Error("campaign 3 must reach 1.2 GHz")
	}
}

func TestCampaignDefaultsAndValidation(t *testing.T) {
	c := Campaign{FAlt1: 40e3, FDelta: 1e3, Fres: 100}.withDefaults()
	if c.NumAlts != 5 || c.Averages != 4 || c.MinScore != 30 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.Harmonics) != 10 {
		t.Errorf("default harmonics: %v", c.Harmonics)
	}
	if c.SmoothBins != 9 {
		t.Errorf("adaptive smooth bins = %d, want 9 for fΔ/fres = 10", c.SmoothBins)
	}
	c2 := Campaign{FAlt1: 40e3, FDelta: 0.5e3, Fres: 100}.withDefaults()
	if c2.SmoothBins != 3 {
		t.Errorf("adaptive smooth bins = %d, want 3 for fΔ/fres = 5", c2.SmoothBins)
	}
	// Misconfiguration is reported by Validate (and RunE), not by panics
	// buried in withDefaults.
	bad := []Campaign{
		{FAlt1: 0, FDelta: 1, Fres: 100, F1: 0, F2: 1e5},            // no alternation frequency
		{FAlt1: 1e3, FDelta: 1e3, NumAlts: 1, Fres: 100, F2: 1e5},   // single measurement
		{FAlt1: 1e3, FDelta: 1e3, Fres: 0, F2: 1e5},                 // no resolution
		{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F1: 1e6, F2: 1e5},      // inverted range
		{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F1: 1e5, F2: 1e5},      // empty range
		{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F2: 1e5, MinScore: -2}, // negative threshold
		{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F2: 1e5, Averages: -1}, // negative averages
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad campaign %d validated: %+v", i, c)
		}
		if _, err := (&Runner{Scene: &emsim.Scene{}}).RunE(c); err == nil {
			t.Errorf("RunE accepted bad campaign %d", i)
		}
	}
	if err := (Campaign{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F2: 1e5, MinScore: MinScoreZero}).Validate(); err != nil {
		t.Errorf("MinScoreZero sentinel rejected: %v", err)
	}
	// The sentinel resolves to a literal zero threshold, while a zero
	// MinScore still means "default".
	if got := (Campaign{MinScore: MinScoreZero}).withDefaults().MinScore; got != 0 {
		t.Errorf("MinScoreZero resolved to %g, want 0", got)
	}
	if got := (Campaign{}).withDefaults().MinScore; got != 30 {
		t.Errorf("zero MinScore resolved to %g, want default 30", got)
	}
	// A Runner without a Scene is an error from RunE and a panic from Run.
	if _, err := (&Runner{}).RunE(Campaign{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F1: 0, F2: 1e5}); err == nil {
		t.Error("RunE accepted a Runner without a Scene")
	}
	mustPanic(t, func() { (&Runner{}).Run(Campaign{FAlt1: 1e3, FDelta: 1e3, Fres: 100, F1: 0, F2: 1e5}) })
}

// regulatorScene builds a small scene with the i7's regulators + refresh.
func regulatorScene() (*machine.System, *emsim.Scene) {
	sys := machine.IntelCoreI7Desktop()
	scene := &emsim.Scene{}
	scene.Add(sys.MemRegulator, sys.MemCtlRegulator, sys.CoreRegulator, sys.Refresh)
	scene.Add(&emsim.Background{FloorDBmPerHz: -172})
	return sys, scene
}

func TestCampaignEndToEndMemoryPair(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	res := runner.Run(Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	})
	wantCarriers := []float64{315e3, 475e3, 512e3}
	if len(res.Detections) != len(wantCarriers) {
		t.Fatalf("detections: %+v", res.Detections)
	}
	for i, want := range wantCarriers {
		d := res.Detections[i]
		if math.Abs(d.Freq-want) > 500 {
			t.Errorf("detection %d at %.1f kHz, want %.1f", i, d.Freq/1e3, want/1e3)
		}
		if d.Score < 30 {
			t.Errorf("detection %d score %g", i, d.Score)
		}
	}
	// The core regulator (332.5 kHz) must NOT be detected: LDM and LDL1
	// load the cores equally.
	for _, d := range res.Detections {
		if math.Abs(d.Freq-332.5e3) < 2e3 {
			t.Error("core regulator falsely detected under LDM/LDL1")
		}
	}
}

// TestCampaignObservabilityEquivalence runs the same campaign bare and
// fully instrumented (traced run + journal) and requires bit-identical spectra
// and detections — observability must watch the pipeline, never steer
// it. It then checks the manifest the instrumented run produced: valid
// against the schema, stage walls summing to the total, planner skips
// non-zero for the full i7-desktop scene, and per-detection provenance.
func TestCampaignObservabilityEquivalence(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	c := Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	}
	bare, err := (&Runner{Scene: sys.Scene(21, true)}).RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun()
	run.Trace, run.Journal = true, obs.NewJournal()
	inst, err := (&Runner{Scene: sys.Scene(21, true), Obs: run}).RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Measurements) != len(bare.Measurements) {
		t.Fatal("measurement count differs under instrumentation")
	}
	for i := range bare.Measurements {
		a, b := bare.Measurements[i].Spectrum, inst.Measurements[i].Spectrum
		for k := range a.PmW {
			if math.Float64bits(a.PmW[k]) != math.Float64bits(b.PmW[k]) {
				t.Fatalf("measurement %d bin %d differs under instrumentation", i, k)
			}
		}
	}
	if len(inst.Detections) != len(bare.Detections) {
		t.Fatalf("detections differ: %d vs %d", len(inst.Detections), len(bare.Detections))
	}
	for i := range bare.Detections {
		if bare.Detections[i].Freq != inst.Detections[i].Freq || bare.Detections[i].Score != inst.Detections[i].Score {
			t.Errorf("detection %d differs under instrumentation", i)
		}
	}
	m := run.Manifest()
	if m == nil {
		t.Fatal("instrumented run produced no manifest")
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifest(data); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	names := make([]string, len(m.Stages))
	for i, st := range m.Stages {
		names[i] = st.Name
	}
	if !slices.Equal(names, []string{"sweeps", "smooth", "score", "detect"}) {
		t.Errorf("stages %v", names)
	}
	if m.Planner.ComponentsSkipped == 0 || m.Planner.RenderSkips == 0 {
		t.Errorf("planner skips must be non-zero for the i7-desktop scene: %+v", m.Planner)
	}
	if m.Captures == 0 || m.RenderSeconds <= 0 {
		t.Errorf("capture accounting empty: captures=%d render=%gs", m.Captures, m.RenderSeconds)
	}
	if m.SimulatedAnalyzerSeconds != inst.SimulatedSeconds || inst.SimulatedSeconds <= 0 {
		t.Errorf("simulated time %g vs result %g", m.SimulatedAnalyzerSeconds, inst.SimulatedSeconds)
	}
	if len(m.Detections) != len(inst.Detections) {
		t.Fatalf("manifest has %d detections, result %d", len(m.Detections), len(inst.Detections))
	}
	for i, d := range m.Detections {
		if len(d.SubScores) != len(inst.Campaign.Harmonics) {
			t.Errorf("detection %d: %d sub-scores, want %d", i, len(d.SubScores), len(inst.Campaign.Harmonics))
		}
		best := d.SubScores[0].Score
		for _, s := range d.SubScores {
			if s.Harmonic == d.BestHarmonic {
				best = s.Score
			}
		}
		if math.Abs(best-d.Score) > 1e-9*math.Abs(d.Score) {
			t.Errorf("detection %d: best-harmonic sub-score %g != score %g", i, best, d.Score)
		}
	}
	// The trace holds the campaign, its stages, and every sweep/capture.
	checkTrace(t, run)
}

func TestCampaignEndToEndOnChipPair(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	res := runner.Run(Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDL2, Y: activity.LDL1, Seed: 22,
	})
	if len(res.Detections) != 1 {
		t.Fatalf("want exactly the core regulator, got %+v", res.Detections)
	}
	if math.Abs(res.Detections[0].Freq-332.5e3) > 500 {
		t.Errorf("detected %.1f kHz, want 332.5", res.Detections[0].Freq/1e3)
	}
}

func TestCampaignControlPairFindsNothing(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	res := runner.Run(Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDL1, Y: activity.LDL1, Seed: 23,
	})
	if len(res.Detections) != 0 {
		t.Errorf("LDL1/LDL1 control should detect nothing, got %+v", res.Detections)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	c := Campaign{F1: 0.3e6, F2: 0.34e6, Fres: 100,
		FAlt1: 10e3, FDelta: 1e3, X: activity.LDM, Y: activity.LDL1, Seed: 24}
	a := runner.Run(c)
	b := runner.Run(c)
	if len(a.Detections) != len(b.Detections) {
		t.Fatal("non-deterministic detection count")
	}
	for i := range a.Detections {
		if a.Detections[i].Freq != b.Detections[i].Freq || a.Detections[i].Score != b.Detections[i].Score {
			t.Fatal("non-deterministic detections")
		}
	}
}

func TestCampaignParallelismInvariant(t *testing.T) {
	// A campaign's output must not depend on the Parallelism knob: every
	// measurement spectrum and every detection must match a Parallelism-1
	// run bit for bit.
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	run := func(par int) *Result {
		return runner.Run(Campaign{F1: 0.3e6, F2: 0.34e6, Fres: 100,
			FAlt1: 10e3, FDelta: 1e3, X: activity.LDM, Y: activity.LDL1,
			Seed: 24, Parallelism: par})
	}
	seq := run(1)
	par := run(4)
	for i, m := range par.Measurements {
		want := seq.Measurements[i].Spectrum
		if m.Spectrum.Bins() != want.Bins() {
			t.Fatalf("measurement %d: %d bins, want %d", i, m.Spectrum.Bins(), want.Bins())
		}
		for k := range m.Spectrum.PmW {
			if math.Float64bits(m.Spectrum.PmW[k]) != math.Float64bits(want.PmW[k]) {
				t.Fatalf("measurement %d bin %d differs between Parallelism 4 and 1", i, k)
			}
		}
	}
	if len(par.Detections) != len(seq.Detections) {
		t.Fatalf("detections: %d parallel vs %d sequential", len(par.Detections), len(seq.Detections))
	}
	for i := range par.Detections {
		a, b := par.Detections[i], seq.Detections[i]
		if a.Freq != b.Freq || a.Score != b.Score || a.BestHarmonic != b.BestHarmonic ||
			a.MagnitudeDBm != b.MagnitudeDBm || a.DepthDB != b.DepthDB ||
			!slices.Equal(a.Harmonics, b.Harmonics) {
			t.Fatalf("detection %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestGroupHarmonics(t *testing.T) {
	dets := []Detection{
		{Freq: 315.02e3}, {Freq: 630.1e3}, {Freq: 944.9e3},
		{Freq: 512e3}, {Freq: 1024.05e3},
		{Freq: 777e3},
	}
	sets := GroupHarmonics(dets, 0.004)
	if len(sets) != 3 {
		t.Fatalf("sets = %d: %+v", len(sets), sets)
	}
	var reg, refresh, lone *HarmonicSet
	for i := range sets {
		switch len(sets[i].Members) {
		case 3:
			reg = &sets[i]
		case 2:
			refresh = &sets[i]
		case 1:
			lone = &sets[i]
		}
	}
	if reg == nil || refresh == nil || lone == nil {
		t.Fatalf("unexpected set sizes: %+v", sets)
	}
	if math.Abs(reg.Fundamental-315e3) > 500 {
		t.Errorf("regulator fundamental %g", reg.Fundamental)
	}
	if reg.Orders[0] != 1 || reg.Orders[1] != 2 || reg.Orders[2] != 3 {
		t.Errorf("regulator orders %v", reg.Orders)
	}
	if math.Abs(refresh.Fundamental-512e3) > 500 {
		t.Errorf("refresh fundamental %g", refresh.Fundamental)
	}
	if lone.Members[0].Freq != 777e3 {
		t.Errorf("lone member %g", lone.Members[0].Freq)
	}
}

func TestGroupHarmonicsEmpty(t *testing.T) {
	if sets := GroupHarmonics(nil, 0); sets != nil {
		t.Errorf("empty input should give no sets, got %+v", sets)
	}
}

func TestClassify(t *testing.T) {
	mem := &Result{
		Campaign:   Campaign{X: activity.LDM, Y: activity.LDL1},
		Detections: []Detection{{Freq: 315e3, Score: 100}, {Freq: 512e3, Score: 50}},
	}
	chip := &Result{
		Campaign:   Campaign{X: activity.LDL2, Y: activity.LDL1},
		Detections: []Detection{{Freq: 332.5e3, Score: 80}, {Freq: 315.2e3, Score: 60}},
	}
	cc := Classify(mem, chip, 1e3)
	if len(cc) != 3 {
		t.Fatalf("classified = %+v", cc)
	}
	byFreq := map[float64]ClassifiedCarrier{}
	for _, c := range cc {
		byFreq[math.Round(c.Freq/1e3)] = c
	}
	if byFreq[315].Class != BothRelated {
		t.Errorf("315 kHz class %v, want both", byFreq[315].Class)
	}
	if byFreq[512].Class != MemoryRelated {
		t.Errorf("512 kHz class %v", byFreq[512].Class)
	}
	if byFreq[333].Class != OnChipRelated {
		t.Errorf("332.5 kHz class %v", byFreq[333].Class)
	}
	if len(byFreq[315].Pairs) != 2 {
		t.Errorf("315 kHz pairs %v", byFreq[315].Pairs)
	}
	// Class names.
	if MemoryRelated.String() != "memory-related" || OnChipRelated.String() != "on-chip-related" ||
		BothRelated.String() != "memory+on-chip" || ModulationClass(9).String() != "unknown" {
		t.Error("class names wrong")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

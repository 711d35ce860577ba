package machine

import (
	"math"
	"math/cmplx"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/specan"
)

// sweep measures a single-emitter scene over [f1, f2].
func sweep(t *testing.T, c emsim.Component, f1, f2, fres float64, tr interface {
	At(float64) activity.Load
}, seed int64, near bool) *spectral.Spectrum {
	t.Helper()
	scene := &emsim.Scene{}
	scene.Add(c, &emsim.Background{FloorDBmPerHz: -172})
	an := specan.New(specan.Config{Fres: fres})
	var act *activity.Trace
	if tr != nil {
		act = tr.(*activity.Trace)
	}
	return an.Sweep(specan.Request{Scene: scene, F1: f1, F2: f2, Activity: act,
		Seed: seed, NearField: near})
}

func dbmAt(s *spectral.Spectrum, f, half float64) float64 {
	i := s.MaxIn(f-half, f+half)
	if i < 0 {
		return -300
	}
	return spectral.DBmFromMw(s.PmW[i])
}

func integratedDbm(s *spectral.Spectrum, f1, f2 float64) float64 {
	var tot float64
	for _, p := range s.Slice(f1, f2).PmW {
		tot += p
	}
	return spectral.DBmFromMw(tot)
}

func TestRegulatorCarrierPowerAndHarmonics(t *testing.T) {
	reg := IntelCoreI7Desktop().MemRegulator
	s := sweep(t, reg, 250e3, 1000e3, 100, nil, 1, false)
	// Integrated fundamental power ~ -104 dBm (+~3 dB window NENBW).
	got := integratedDbm(s, 313e3, 317e3)
	if math.Abs(got-(-101)) > 2.5 {
		t.Errorf("fundamental integrated power %.1f dBm, want ~-101", got)
	}
	// Harmonics at 630 and 945 kHz present well above the floor.
	if dbmAt(s, 630e3, 2e3) < -130 || dbmAt(s, 945e3, 2e3) < -135 {
		t.Errorf("harmonics missing: 2nd %.1f, 3rd %.1f dBm",
			dbmAt(s, 630e3, 2e3), dbmAt(s, 945e3, 2e3))
	}
	// Small duty cycle: even harmonic is NOT suppressed (§4.1 clue).
	if dbmAt(s, 630e3, 2e3) < dbmAt(s, 945e3, 2e3)-10 {
		t.Error("even harmonic should be strong for a small duty cycle")
	}
}

func TestRegulatorSidebandsAppearOnlyUnderAlternation(t *testing.T) {
	reg := IntelCoreI7Desktop().MemRegulator
	falt := 40e3
	tr := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: falt,
		Jitter: microbench.DefaultJitter(), Seed: 2}, 1.0)
	mod := sweep(t, reg, 250e3, 400e3, 100, tr, 1, false)
	idle := sweep(t, reg, 250e3, 400e3, 100, nil, 1, false)
	for _, f := range []float64{315e3 - falt, 315e3 + falt} {
		up := dbmAt(mod, f, 3e3) - dbmAt(idle, f, 3e3)
		if up < 10 {
			t.Errorf("sideband at %.0f kHz only %.1f dB above idle", f/1e3, up)
		}
	}
	// A control alternating identical activities must produce no
	// sidebands (LDL1/LDL1 of Figures 7 and 12).
	ctl := microbench.Generate(microbench.Config{
		X: activity.LDL1, Y: activity.LDL1, FAlt: falt,
		Jitter: microbench.DefaultJitter(), Seed: 3}, 1.0)
	ctlS := sweep(t, reg, 250e3, 400e3, 100, ctl, 1, false)
	for _, f := range []float64{315e3 - falt, 315e3 + falt} {
		up := dbmAt(ctlS, f, 3e3) - dbmAt(idle, f, 3e3)
		if up > 6 {
			t.Errorf("control sideband at %.0f kHz is %.1f dB above idle", f/1e3, up)
		}
	}
}

func TestRegulatorDomainSelectivity(t *testing.T) {
	// The core regulator must not grow sidebands under LDM/LDL1 (equal
	// core load), but must under LDL2/LDL1 — the paper's Figure 11 vs 13.
	reg := IntelCoreI7Desktop().CoreRegulator
	falt := 40e3
	fc := reg.FSw
	idle := sweep(t, reg, 250e3, 420e3, 100, nil, 4, false)
	mem := microbench.Generate(microbench.Config{X: activity.LDM, Y: activity.LDL1,
		FAlt: falt, Jitter: microbench.DefaultJitter(), Seed: 5}, 1.0)
	memS := sweep(t, reg, 250e3, 420e3, 100, mem, 4, false)
	chip := microbench.Generate(microbench.Config{X: activity.LDL2, Y: activity.LDL1,
		FAlt: falt, Jitter: microbench.DefaultJitter(), Seed: 6}, 1.0)
	chipS := sweep(t, reg, 250e3, 420e3, 100, chip, 4, false)
	memUp := dbmAt(memS, fc+falt, 3e3) - dbmAt(idle, fc+falt, 3e3)
	chipUp := dbmAt(chipS, fc+falt, 3e3) - dbmAt(idle, fc+falt, 3e3)
	if memUp > 6 {
		t.Errorf("core regulator shows %.1f dB sideband under LDM/LDL1", memUp)
	}
	if chipUp < 10 {
		t.Errorf("core regulator sideband only %.1f dB under LDL2/LDL1", chipUp)
	}
}

func TestRefreshCombAndInverseActivity(t *testing.T) {
	ref := IntelCoreI7Desktop().Refresh
	idle := sweep(t, ref, 100e3, 1100e3, 100, nil, 7, false)
	// Far field: strong lines at 512k and 1024k, weak at 128k/256k.
	if dbmAt(idle, 512e3, 1e3) < -130 || dbmAt(idle, 1024e3, 1e3) < -130 {
		t.Errorf("far-field 512k comb missing: %.1f / %.1f dBm",
			dbmAt(idle, 512e3, 1e3), dbmAt(idle, 1024e3, 1e3))
	}
	if dbmAt(idle, 128e3, 1e3) > -138 {
		t.Errorf("far-field 128k line too strong: %.1f dBm", dbmAt(idle, 128e3, 1e3))
	}
	// The paper's counterintuitive finding: continuous memory activity
	// WEAKENS the refresh lines (§4.2).
	busy := sweep(t, ref, 100e3, 1100e3, 100, microbench.Constant(activity.LDM), 7, false)
	drop := dbmAt(idle, 512e3, 1e3) - dbmAt(busy, 512e3, 1e3)
	if drop < 8 {
		t.Errorf("refresh line should weaken under load: dropped only %.1f dB", drop)
	}
}

func TestRefreshNearFieldRevealsGCD(t *testing.T) {
	// Near-field probing reveals the 128 kHz greatest common divisor
	// (§4.2: "further measurements with small probes close to the memory
	// revealed many additional harmonics with a GCD of 128 kHz").
	ref := IntelCoreI7Desktop().Refresh
	near := sweep(t, ref, 100e3, 600e3, 100, nil, 8, true)
	for _, f := range []float64{128e3, 256e3, 384e3, 512e3} {
		if dbmAt(near, f, 1e3) < -120 {
			t.Errorf("near-field line at %.0f kHz missing: %.1f dBm", f/1e3, dbmAt(near, f, 1e3))
		}
	}
}

// TestNearFieldGain pins the near-field probe's gain: the i7 core
// regulator rendered with NearField is its far-field render scaled by
// 10^(30/20), sample for sample. Written as an untyped 30, the gain
// constant would make nearFieldGainDB/20 integer division, a 20 dB gain.
func TestNearFieldGain(t *testing.T) {
	reg := IntelCoreI7Desktop().CoreRegulator
	scene := &emsim.Scene{}
	scene.Add(reg)
	capture := emsim.Capture{Band: emsim.Band{Center: reg.FSw, SampleRate: 102.4e3}, N: 4096, Seed: 5}
	far := scene.Render(capture)
	capture.NearField = true
	near := scene.Render(capture)
	gain := math.Pow(10, 30.0/20)
	peak := 0.0
	for _, v := range far {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	if peak == 0 {
		t.Fatal("the far-field render is empty")
	}
	worst := 0.0
	for i := range far {
		worst = math.Max(worst, cmplx.Abs(near[i]-complex(gain, 0)*far[i]))
	}
	if worst > 1e-12*gain*peak {
		t.Errorf("near-field render departs from %.2f × far field by %.3g of the scaled peak",
			gain, worst/(gain*peak))
	}
}

func TestSSCClockSpreadAndActivity(t *testing.T) {
	clk := IntelCoreI7Desktop().DRAMClock
	an := specan.New(specan.Config{Fres: 500})
	scene := &emsim.Scene{}
	scene.Add(clk, &emsim.Background{FloorDBmPerHz: -172})
	idle := an.Sweep(specan.Request{Scene: scene, F1: 330e6, F2: 335e6, Seed: 9})
	busy := an.Sweep(specan.Request{Scene: scene, F1: 330e6, F2: 335e6,
		Activity: microbench.Constant(activity.LDM), Seed: 9})
	// Energy confined to the spread range [332, 333] MHz.
	inHi := dbmAt(busy, 332.5e6, 400e3)
	outLo := dbmAt(busy, 331.5e6, 300e3)
	outHi := dbmAt(busy, 334e6, 300e3)
	if inHi-outLo < 10 || inHi-outHi < 10 {
		t.Errorf("SSC energy not confined: in %.1f, out %.1f/%.1f", inHi, outLo, outHi)
	}
	// DRAM activity strengthens the emission (§2.2).
	gain := dbmAt(busy, 332.5e6, 500e3) - dbmAt(idle, 332.5e6, 500e3)
	if gain < 3 {
		t.Errorf("DRAM clock should emit more under activity: +%.1f dB", gain)
	}
	// Sine sweep dwells at the edges: horns above mid-spread level.
	horn := dbmAt(busy, 332.97e6, 40e3)
	if horn < dbmAt(busy, 332.5e6, 20e3)-2 {
		t.Errorf("upper horn %.1f dBm not pronounced vs mid %.1f", horn, dbmAt(busy, 332.5e6, 20e3))
	}
}

func TestUnmodulatedClockIgnoresActivity(t *testing.T) {
	clk := &UnmodulatedClock{Label: "test clock", F0: 500e3, FundamentalDBm: -110, MaxHarmonics: 3, WanderSigma: 10, WanderTau: 1e-3}
	falt := 40e3
	tr := microbench.Generate(microbench.Config{X: activity.LDM, Y: activity.LDL1,
		FAlt: falt, Jitter: microbench.DefaultJitter(), Seed: 10}, 1.0)
	mod := sweep(t, clk, 400e3, 600e3, 100, tr, 11, false)
	idle := sweep(t, clk, 400e3, 600e3, 100, nil, 11, false)
	if dbmAt(idle, 500e3, 1e3) < -115 {
		t.Fatalf("clock carrier missing: %.1f dBm", dbmAt(idle, 500e3, 1e3))
	}
	for _, f := range []float64{500e3 - falt, 500e3 + falt} {
		up := dbmAt(mod, f, 3e3) - dbmAt(idle, f, 3e3)
		if up > 6 {
			t.Errorf("unmodulated clock grew a sideband at %.0f kHz: +%.1f dB", f/1e3, up)
		}
	}
}

func TestFMRegulatorSpectrumSmears(t *testing.T) {
	// The constant-on-time regulator's comb must be smeared over tens of
	// kHz (large wander), unlike the sharp AM regulator lines.
	fm := AMDTurionX2Laptop2007().FMCoreRegulator
	s := sweep(t, fm, 300e3, 500e3, 100, nil, 12, false)
	peak := dbmAt(s, 390e3, 50e3)
	// Energy within ±5 kHz of nominal vs ±50 kHz: a sharp line would
	// concentrate; FM smear spreads it.
	narrow := integratedDbm(s, 385e3, 395e3)
	wide := integratedDbm(s, 340e3, 440e3)
	if wide-narrow < 3 {
		t.Errorf("FM regulator not smeared: narrow %.1f wide %.1f dBm", narrow, wide)
	}
	if peak < -135 {
		t.Errorf("FM regulator invisible: %.1f dBm", peak)
	}
}

func TestGroundTruthTable(t *testing.T) {
	sys := IntelCoreI7Desktop()
	scene := sys.Scene(1, false)
	gt := scene.GroundTruth(100e3, 4e6, activity.LDM, activity.LDL1, 0.25)
	modCount, unmodCount := 0, 0
	sawRefresh, sawMemReg, sawCore := false, false, false
	for _, g := range gt {
		if g.Modulated {
			modCount++
		} else {
			unmodCount++
		}
		switch {
		case g.Source == sys.Refresh.Label && g.Modulated:
			sawRefresh = true
		case g.Source == sys.MemRegulator.Label && g.Modulated:
			sawMemReg = true
		case g.Source == sys.CoreRegulator.Label && g.Modulated:
			sawCore = true
		}
	}
	if !sawRefresh || !sawMemReg {
		t.Error("refresh and memory regulator must be modulated by LDM/LDL1")
	}
	if sawCore {
		t.Error("core regulator must NOT be modulated by LDM/LDL1 (equal core load)")
	}
	if unmodCount == 0 {
		t.Error("ground truth must include unmodulated carriers to reject")
	}
	// LDL2/LDL1: only the core regulator is modulated.
	gt2 := scene.GroundTruth(100e3, 4e6, activity.LDL2, activity.LDL1, 0.25)
	for _, g := range gt2 {
		if g.Modulated && g.Source != sys.CoreRegulator.Label {
			t.Errorf("LDL2/LDL1 should only modulate the core regulator, got %q", g.Source)
		}
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 5 {
		t.Fatalf("registry has %d systems, want 5", len(reg))
	}
	for name, mk := range reg {
		sys := mk()
		if sys.Name == "" || len(sys.Emitters) == 0 {
			t.Errorf("system %q incomplete", name)
		}
		if sys.Refresh == nil || sys.DRAMClock == nil || sys.MemRegulator == nil {
			t.Errorf("system %q missing role handles", name)
		}
	}
	if _, err := Lookup("i7-desktop"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Error("Lookup of unknown system should fail")
	}
	// The error lists the registry sorted, so its text (also the body of a
	// fase serve 400) is the same on every call.
	const want = `machine: unknown system "bogus" (have [fivr-desktop i3-laptop i7-desktop p3m-laptop turion-laptop])`
	for i := 0; i < 20; i++ {
		if _, err := Lookup("bogus"); err == nil || err.Error() != want {
			t.Fatalf("Lookup error %v, want %s", err, want)
		}
	}
}

func TestTurionRefreshAt132kHz(t *testing.T) {
	sys := AMDTurionX2Laptop2007()
	got := 1 / sys.Refresh.TRefi
	if math.Abs(got-132e3) > 1 {
		t.Errorf("Turion refresh at %.0f Hz, want 132 kHz (§4.4)", got)
	}
	// Other systems use the DDR3 128 kHz interval.
	for _, mk := range []func() *System{IntelCoreI7Desktop, IntelCoreI3Laptop2010, IntelPentium3M2002} {
		s := mk()
		if math.Abs(1/s.Refresh.TRefi-128e3) > 1 {
			t.Errorf("%s refresh at %.0f Hz, want 128 kHz", s.Name, 1/s.Refresh.TRefi)
		}
	}
}

func TestCarrierLists(t *testing.T) {
	sys := IntelCoreI7Desktop()
	cs := sys.MemRegulator.Carriers(0, 1e6)
	want := []float64{315e3, 630e3, 945e3}
	if len(cs) != 3 {
		t.Fatalf("regulator carriers = %v", cs)
	}
	for i, f := range want {
		if cs[i] != f {
			t.Errorf("carrier %d = %g, want %g", i, cs[i], f)
		}
	}
	rs := sys.Refresh.Carriers(0, 1.2e6)
	if len(rs) != 2 || rs[0] != 512e3 || rs[1] != 1024e3 {
		t.Errorf("refresh far-field carriers = %v", rs)
	}
	// SSC clock reports its spread edges.
	es := sys.DRAMClock.Carriers(330e6, 336e6)
	if len(es) != 2 || es[0] != 332e6 || es[1] != 333e6 {
		t.Errorf("SSC carriers = %v", es)
	}
	// Unspread clock reports harmonics directly.
	p3m := IntelPentium3M2002()
	us := p3m.DRAMClock.Carriers(0, 200e6)
	if len(us) != 1 || us[0] != 133e6 {
		t.Errorf("unspread clock carriers = %v", us)
	}
}

func TestRefreshIntervalDitherMitigation(t *testing.T) {
	// The paper's §4.2 mitigation: dithering refresh issue times spreads
	// the comb's energy, collapsing the 512 kHz line.
	plain := IntelCoreI7Desktop().Refresh
	dithered := IntelCoreI7Desktop().Refresh
	dithered.IntervalDither = 0.3
	before := sweep(t, plain, 500e3, 524e3, 100, nil, 55, false)
	after := sweep(t, dithered, 500e3, 524e3, 100, nil, 55, false)
	drop := dbmAt(before, 512e3, 1e3) - dbmAt(after, 512e3, 1e3)
	if drop < 8 {
		t.Errorf("dither reduced the 512 kHz line by only %.1f dB", drop)
	}
}

func TestSystemSceneWithEnvironment(t *testing.T) {
	sys := IntelCoreI7Desktop()
	bare := sys.Scene(1, false)
	full := sys.Scene(1, true)
	if len(full.Components) <= len(bare.Components) {
		t.Error("environment scene should have more components")
	}
}

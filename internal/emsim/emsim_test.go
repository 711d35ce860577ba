package emsim

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
)

func TestBandContains(t *testing.T) {
	b := Band{Center: 1e6, SampleRate: 1e5}
	if !b.Contains(1e6) || !b.Contains(1.04e6) || !b.Contains(0.96e6) {
		t.Error("in-band frequencies rejected")
	}
	if b.Contains(1.05e6) || b.Contains(0.95e6) || b.Contains(2e6) {
		t.Error("out-of-band frequencies accepted (guard band)")
	}
}

// testTone is a minimal component for framework tests.
type testTone struct {
	freq float64
	amp  float64
	dom  activity.Domain
	am   bool
}

func (c *testTone) Name() string { return "test tone" }
func (c *testTone) Render(dst []complex128, ctx *Context) {
	if !ctx.Band.Contains(c.freq) {
		return
	}
	dt := ctx.Dt()
	for i := range dst {
		t := ctx.Start + float64(i)*dt
		ph := 2 * math.Pi * (c.freq - ctx.Band.Center) * t
		s, cs := math.Sincos(ph)
		dst[i] += complex(c.amp*cs, c.amp*s)
	}
}
func (c *testTone) Carriers(f1, f2 float64) []float64 {
	if c.freq >= f1 && c.freq <= f2 {
		return []float64{c.freq}
	}
	return nil
}
func (c *testTone) Domain() activity.Domain { return c.dom }
func (c *testTone) AMModulated() bool       { return c.am }

func TestSceneRenderDeterministic(t *testing.T) {
	s := &Scene{}
	s.Add(&testTone{freq: 1e6, amp: 1}, &Background{FloorDBmPerHz: -170})
	cap := Capture{Band: Band{Center: 1e6, SampleRate: 1e5}, N: 1024, Seed: 9}
	a := s.Render(cap)
	b := s.Render(cap)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must render identical captures")
		}
	}
	cap.Seed = 10
	c := s.Render(cap)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should render different noise")
	}
}

func TestSceneRenderToneVisible(t *testing.T) {
	s := &Scene{}
	s.Add(&testTone{freq: 1.01e6, amp: math.Sqrt(spectral.MwFromDBm(-80))})
	cap := Capture{Band: Band{Center: 1e6, SampleRate: 1e5}, N: 8192, Seed: 1}
	x := s.Render(cap)
	sp := spectral.Periodogram(x, 1e5, 1e6, window.Hann)
	i, p := sp.MaxBin()
	if math.Abs(sp.Freq(i)-1.01e6) > sp.Fres {
		t.Errorf("tone at %g, want 1.01 MHz", sp.Freq(i))
	}
	if math.Abs(spectral.DBmFromMw(p)-(-80)) > 0.5 {
		t.Errorf("tone power %.2f dBm, want -80", spectral.DBmFromMw(p))
	}
}

func TestEmittersAndGroundTruth(t *testing.T) {
	s := &Scene{}
	mod := &testTone{freq: 1e6, amp: 1, dom: activity.DomainDRAM, am: true}
	unmod := &testTone{freq: 2e6, amp: 1, dom: activity.DomainNone, am: false}
	fmOnly := &testTone{freq: 3e6, amp: 1, dom: activity.DomainCore, am: false}
	s.Add(mod, unmod, fmOnly, &Background{FloorDBmPerHz: -170})
	if len(s.Emitters()) != 3 {
		t.Fatalf("emitters = %d, want 3 (background is not an emitter)", len(s.Emitters()))
	}
	gt := s.GroundTruth(0, 10e6, activity.LDM, activity.LDL1, 0.3)
	if len(gt) != 3 {
		t.Fatalf("ground truth entries = %d, want 3", len(gt))
	}
	byFreq := map[float64]GroundTruthCarrier{}
	for _, g := range gt {
		byFreq[g.Freq] = g
	}
	if !byFreq[1e6].Modulated {
		t.Error("DRAM-domain AM emitter must be modulated by LDM/LDL1")
	}
	if byFreq[2e6].Modulated {
		t.Error("DomainNone emitter must not be modulated")
	}
	if byFreq[3e6].Modulated {
		t.Error("FM-only emitter must not count as AM-modulated")
	}
	// LDL2/LDL1 does not change DRAM load: nothing modulated.
	gt2 := s.GroundTruth(0, 10e6, activity.LDL2, activity.LDL1, 0.3)
	for _, g := range gt2 {
		if g.Freq == 1e6 && g.Modulated {
			t.Error("DRAM emitter must not be modulated by LDL2/LDL1")
		}
	}
	// Core-domain emitter with AM would be modulated by LDL2/LDL1.
	coreAM := &testTone{freq: 4e6, amp: 1, dom: activity.DomainCore, am: true}
	s.Add(coreAM)
	gt3 := s.GroundTruth(0, 10e6, activity.LDL2, activity.LDL1, 0.2)
	found := false
	for _, g := range gt3 {
		if g.Freq == 4e6 {
			found = true
			if !g.Modulated {
				t.Error("core AM emitter must be modulated by LDL2/LDL1")
			}
		}
	}
	if !found {
		t.Error("core emitter missing from ground truth")
	}
}

func TestContextLoadsNilActivity(t *testing.T) {
	ctx := &Context{Band: Band{Center: 0, SampleRate: 1e6}, N: 10}
	cur := ctx.Loads()
	if cur.At(0) != activity.LoadOf(activity.Idle) {
		t.Error("nil activity should read as idle")
	}
}

func TestRenderPanics(t *testing.T) {
	s := &Scene{}
	mustPanic(t, func() { s.Render(Capture{Band: Band{SampleRate: 1e6}, N: 0}) })
	mustPanic(t, func() { s.Render(Capture{Band: Band{SampleRate: 0}, N: 10}) })
}

func TestAMStationSidebands(t *testing.T) {
	st := &AMStation{Call: "TEST", Freq: 1e6, PowerMw: spectral.MwFromDBm(-80), Depth: 0.8}
	s := &Scene{}
	s.Add(st)
	fs := 65536.0
	n := 65536
	x := s.Render(Capture{Band: Band{Center: 1e6, SampleRate: fs}, N: n, Seed: 3})
	sp := spectral.Periodogram(x, fs, 1e6, window.BlackmanHarris)
	carrier := sp.PmW[sp.Index(1e6)]
	if math.Abs(spectral.DBmFromMw(carrier)-(-80)) > 1 {
		t.Errorf("carrier %.1f dBm, want -80", spectral.DBmFromMw(carrier))
	}
	// Audio sidebands within ±4 kHz must carry energy well above the
	// (noise-free) far spectrum.
	sideband := 0.0
	for _, p := range sp.Slice(1e6+200, 1e6+4200).PmW {
		sideband += p
	}
	if spectral.DBmFromMw(sideband) < -100 {
		t.Errorf("sidebands too weak: %.1f dBm", spectral.DBmFromMw(sideband))
	}
	if st.Name() == "" {
		t.Error("station must have a name")
	}
}

func TestFMStationSpectrum(t *testing.T) {
	st := &FMStation{Call: "WTEST", Freq: 98.5e6, PowerMw: spectral.MwFromDBm(-85), AudioSeed: 7}
	s := &Scene{}
	s.Add(st)
	fs := 1e6
	n := 1 << 15
	x := s.Render(Capture{Band: Band{Center: 98.5e6, SampleRate: fs}, N: n, Seed: 2})
	sp := spectral.Periodogram(x, fs, 98.5e6, window.BlackmanHarris)
	// FM spreads energy over ~2×(75 kHz + audio): no single bin carries
	// the full -85 dBm, but the ±150 kHz integral does.
	var tot float64
	for _, p := range sp.Slice(98.5e6-150e3, 98.5e6+150e3).PmW {
		tot += p
	}
	got := spectral.DBmFromMw(tot)
	if math.Abs(got-(-85)) > 4 {
		t.Errorf("FM station integrated power %.1f dBm, want ~-85", got)
	}
	if st.Name() == "" {
		t.Error("station must have a name")
	}
	// Out-of-band skip.
	y := s.Render(Capture{Band: Band{Center: 1e6, SampleRate: 1e5}, N: 128, Seed: 3})
	for _, v := range y {
		if v != 0 {
			t.Fatal("out-of-band FM station should contribute nothing")
		}
	}
}

func TestAMStationOutOfBandSkipped(t *testing.T) {
	st := &AMStation{Call: "X", Freq: 10e6, PowerMw: 1}
	s := &Scene{}
	s.Add(st)
	x := s.Render(Capture{Band: Band{Center: 1e6, SampleRate: 1e5}, N: 256, Seed: 1})
	for _, v := range x {
		if v != 0 {
			t.Fatal("out-of-band station should contribute nothing")
		}
	}
}

func TestBackgroundFloorLevel(t *testing.T) {
	bg := &Background{FloorDBmPerHz: -170}
	s := &Scene{}
	s.Add(bg)
	fs := 1e6
	n := 16384
	var avg spectral.Averager
	for i := 0; i < 6; i++ {
		x := s.Render(Capture{Band: Band{Center: 2e6, SampleRate: fs}, N: n, Seed: int64(i)})
		avg.Add(spectral.Periodogram(x, fs, 2e6, window.Hann))
	}
	sp := avg.Mean()
	var mean float64
	for _, p := range sp.PmW {
		mean += p
	}
	mean /= float64(sp.Bins())
	want := spectral.MwFromDBm(-170) * window.NENBW(window.New(window.Hann, n)) * sp.Fres
	ratio := mean / want
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("floor ratio %g (got %.1f dBm/bin, want %.1f)", ratio, spectral.DBmFromMw(mean), spectral.DBmFromMw(want))
	}
}

func TestBackgroundHills(t *testing.T) {
	bg := &Background{
		FloorDBmPerHz: -170,
		Hills:         []Hill{{Center: 2e6, Width: 50e3, GainDB: 20}},
	}
	s := &Scene{}
	s.Add(bg)
	fs := 1e6
	n := 16384
	var avg spectral.Averager
	for i := 0; i < 6; i++ {
		x := s.Render(Capture{Band: Band{Center: 2e6, SampleRate: fs}, N: n, Seed: int64(i)})
		avg.Add(spectral.Periodogram(x, fs, 2e6, window.Hann))
	}
	sp := avg.Mean()
	center := sp.PmW[sp.Index(2e6)]
	edge := sp.PmW[sp.Index(1.6e6)]
	gain := spectral.DBmFromMw(center) - spectral.DBmFromMw(edge)
	if gain < 14 || gain > 26 {
		t.Errorf("hill gain %.1f dB, want ~20", gain)
	}
}

// TestBackgroundPrepareMatchesDensity holds the per-bin deviations to
// their definition, sqrt(n·N0(f)·fs/2) with N0 = 10^(dB/10) mW/Hz, to
// rounding.
func TestBackgroundPrepareMatchesDensity(t *testing.T) {
	bg := &Background{FloorDBmPerHz: -172, Hills: []Hill{
		{Center: 450e3, Width: 120e3, GainDB: 4}, {Center: 1.2e6, Width: 300e3, GainDB: -3},
	}}
	band := Band{Center: 600e3, SampleRate: 1.6384e6}
	const n = 2048
	sd := bg.Prepare(band, n).(*bgPrep).sd
	fres := band.SampleRate / n
	for k, got := range sd {
		f := band.Center - band.SampleRate/2 + float64(k)*fres
		db := bg.FloorDBmPerHz
		for _, h := range bg.Hills {
			d := (f - h.Center) / h.Width
			db += h.GainDB * math.Exp(-d*d/2)
		}
		want := math.Sqrt(n * math.Pow(10, db/10) * band.SampleRate / 2)
		if math.Abs(got-want) > 1e-13*want {
			t.Fatalf("bin %d: deviation %g, want %g", k, got, want)
		}
	}
}

func TestStandardEnvironment(t *testing.T) {
	env := StandardEnvironment(rand.New(rand.NewSource(1)))
	if len(env) < 10 {
		t.Fatalf("environment too sparse: %d components", len(env))
	}
	stations := 0
	backgrounds := 0
	for _, c := range env {
		switch c.(type) {
		case *AMStation:
			stations++
		case *Background:
			backgrounds++
		}
		if _, isEmitter := c.(Emitter); isEmitter {
			t.Errorf("environment component %q must not be a ground-truth emitter", c.Name())
		}
	}
	if stations < 10 || backgrounds != 1 {
		t.Errorf("stations=%d backgrounds=%d", stations, backgrounds)
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

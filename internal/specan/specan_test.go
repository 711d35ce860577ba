package specan

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
)

// tone is a fixed test emitter.
type tone struct {
	freq float64
	dbm  float64
}

func (c *tone) Name() string { return "tone" }
func (c *tone) Render(dst []complex128, ctx *emsim.Context) {
	if !ctx.Band.Contains(c.freq) {
		return
	}
	a := math.Sqrt(spectral.MwFromDBm(c.dbm))
	dt := ctx.Dt()
	for i := range dst {
		t := ctx.Start + float64(i)*dt
		dst[i] += complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*(c.freq-ctx.Band.Center)*t))
	}
}

func TestSweepFindsToneAtCalibratedPower(t *testing.T) {
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 1.2345e6, dbm: -70})
	an := New(Config{Fres: 100})
	s := an.Sweep(Request{Scene: scene, F1: 1e6, F2: 1.5e6, Seed: 1})
	if s.F0 != 1e6 || math.Abs(s.FEnd()-1.5e6) > 1 {
		t.Fatalf("sweep range [%g, %g]", s.F0, s.FEnd())
	}
	if s.Fres != 100 {
		t.Fatalf("fres %g", s.Fres)
	}
	i, p := s.MaxBin()
	if math.Abs(s.Freq(i)-1.2345e6) > 100 {
		t.Errorf("peak at %g, want 1.2345 MHz", s.Freq(i))
	}
	if math.Abs(spectral.DBmFromMw(p)-(-70)) > 0.5 {
		t.Errorf("peak power %.2f dBm, want -70", spectral.DBmFromMw(p))
	}
}

func TestSweepMultiSegmentStitching(t *testing.T) {
	// A sweep wide enough to need several segments must still find tones
	// in each segment at calibrated power, with no seams.
	scene := &emsim.Scene{}
	freqs := []float64{0.3e6, 1.1e6, 2.7e6, 3.9e6}
	for _, f := range freqs {
		scene.Add(&tone{freq: f, dbm: -75})
	}
	an := New(Config{Fres: 200, MaxFFT: 4096})
	s := an.Sweep(Request{Scene: scene, F1: 0.1e6, F2: 4e6, Seed: 2})
	wantBins := int(math.Round((4e6 - 0.1e6) / 200))
	if s.Bins() != wantBins {
		t.Fatalf("bins = %d, want %d", s.Bins(), wantBins)
	}
	for _, f := range freqs {
		i := s.MaxIn(f-500, f+500)
		got := spectral.DBmFromMw(s.PmW[i])
		if math.Abs(got-(-75)) > 0.7 {
			t.Errorf("tone at %.2g MHz reads %.2f dBm, want -75", f/1e6, got)
		}
	}
}

func TestSweepGridAlignment(t *testing.T) {
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 1e6, dbm: -80})
	an := New(Config{Fres: 50, MaxFFT: 1 << 14})
	s := an.Sweep(Request{Scene: scene, F1: 0.9e6, F2: 1.2e6, Seed: 3})
	// Every bin must land on the f1 + k·fres grid.
	if r := math.Mod(s.F0-0.9e6, 50); math.Abs(r) > 1e-6 && math.Abs(r-50) > 1e-6 {
		t.Errorf("grid misaligned: F0 = %v", s.F0)
	}
}

func TestTotalDuration(t *testing.T) {
	an := New(Config{Fres: 100, MaxFFT: 4096, Averages: 4})
	// One trace takes 1/fres = 10 ms.
	if d := an.CaptureDuration(); d != 0.01 {
		t.Errorf("capture duration %g", d)
	}
	tot := an.TotalDuration(0, 1e6)
	// 10000 bins, 3072 usable per segment -> 4 segments × 4 avgs × 10 ms.
	if math.Abs(tot-0.16) > 1e-9 {
		t.Errorf("total duration %g, want 0.16", tot)
	}
}

func TestNearFieldPassesThrough(t *testing.T) {
	// Near-field flag must reach the components (verified via a probe
	// component that records it).
	probe := &recorder{}
	scene := &emsim.Scene{}
	scene.Add(probe)
	// Parallelism 1: the probe component records unsynchronized.
	an := New(Config{Fres: 1000, MaxFFT: 1024, Parallelism: 1})
	an.Sweep(Request{Scene: scene, F1: 0, F2: 100e3, NearField: true})
	if !probe.sawNearField {
		t.Errorf("near-field context not propagated: %+v", probe)
	}
}

type recorder struct {
	sawNearField bool
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Render(dst []complex128, ctx *emsim.Context) {
	r.sawNearField = ctx.NearField
}

func TestSweepParallelBitIdentical(t *testing.T) {
	// The worker pool must not change the output at all: a parallel sweep
	// and a Parallelism-1 sweep of the same request are compared bit for
	// bit. The scene includes noise so per-capture seeding is exercised.
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 0.7e6, dbm: -75})
	scene.Add(&emsim.Background{FloorDBmPerHz: -172})
	sweep := func(par int) *spectral.Spectrum {
		an := New(Config{Fres: 200, MaxFFT: 4096, Parallelism: par})
		return an.Sweep(Request{Scene: scene, F1: 0.1e6, F2: 2e6, Seed: 77})
	}
	seq := sweep(1)
	for _, par := range []int{2, 4, 8} {
		got := sweep(par)
		if got.F0 != seq.F0 || got.Fres != seq.Fres || got.Bins() != seq.Bins() {
			t.Fatalf("parallelism %d: geometry %g/%g/%d, want %g/%g/%d",
				par, got.F0, got.Fres, got.Bins(), seq.F0, seq.Fres, seq.Bins())
		}
		for i := range got.PmW {
			if math.Float64bits(got.PmW[i]) != math.Float64bits(seq.PmW[i]) {
				t.Fatalf("parallelism %d: bin %d = %x, want %x",
					par, i, math.Float64bits(got.PmW[i]), math.Float64bits(seq.PmW[i]))
			}
		}
	}
}

func TestSweepConcurrentOnSharedAnalyzer(t *testing.T) {
	// Several goroutines sweeping through ONE analyzer (the campaign
	// runner's shape) must each get the same spectrum a lone sweep gets.
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 0.4e6, dbm: -70})
	scene.Add(&emsim.Background{FloorDBmPerHz: -172})
	req := func(seed int64) Request {
		return Request{Scene: scene, F1: 0.2e6, F2: 0.8e6, Seed: seed}
	}
	ref := New(Config{Fres: 500, MaxFFT: 2048, Parallelism: 1})
	want := make([]*spectral.Spectrum, 4)
	for i := range want {
		want[i] = ref.Sweep(req(int64(100 + i)))
	}
	an := New(Config{Fres: 500, MaxFFT: 2048, Parallelism: 3})
	got := make([]*spectral.Spectrum, len(want))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = an.Sweep(req(int64(100 + i)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		for k := range got[i].PmW {
			if math.Float64bits(got[i].PmW[k]) != math.Float64bits(want[i].PmW[k]) {
				t.Fatalf("sweep %d bin %d differs from sequential reference", i, k)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic(t, func() { New(Config{Fres: 0}) })
	mustPanic(t, func() { New(Config{Fres: -5}) })
	an := New(Config{Fres: 100})
	mustPanic(t, func() { an.Sweep(Request{Scene: nil, F1: 0, F2: 1e6}) })
	mustPanic(t, func() { an.Sweep(Request{Scene: &emsim.Scene{}, F1: 1e6, F2: 1e6}) })
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

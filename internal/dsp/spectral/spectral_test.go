package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"fase/internal/dsp/window"
)

// tone synthesizes a complex-baseband tone at offset Hz with the given
// power in dBm (envelope magnitude sqrt(mW)).
func tone(n int, fs, offset, dBm float64) []complex128 {
	a := math.Sqrt(MwFromDBm(dBm))
	x := make([]complex128, n)
	for i := range x {
		t := float64(i) / fs
		x[i] = complex(a, 0) * cmplx.Exp(complex(0, 2*math.Pi*offset*t))
	}
	return x
}

func TestToneCalibration(t *testing.T) {
	// A -50 dBm tone must read -50 dBm at its bin for every window whose
	// scalloping loss is negligible when the tone is bin-centered.
	n := 4096
	fs := 1e6
	fres := fs / float64(n)
	offset := 100 * fres // exactly bin-centered
	for _, wt := range []window.Type{window.Rectangular, window.Hann, window.Blackman, window.FlatTop} {
		s := Periodogram(tone(n, fs, offset, -50), fs, 0, wt)
		i := s.Index(offset)
		if got := s.DBm(i); math.Abs(got-(-50)) > 0.01 {
			t.Errorf("%v: tone reads %.3f dBm, want -50", wt, got)
		}
	}
}

func TestToneFrequency(t *testing.T) {
	n := 8192
	fs := 2e6
	fc := 5e6
	offset := 123456.0
	s := Periodogram(tone(n, fs, offset, -30), fs, fc, window.Hann)
	i, _ := s.MaxBin()
	if got := s.Freq(i); math.Abs(got-(fc+offset)) > s.Fres {
		t.Errorf("peak at %g Hz, want %g", got, fc+offset)
	}
}

func TestNegativeOffsetTone(t *testing.T) {
	n := 4096
	fs := 1e6
	s := Periodogram(tone(n, fs, -200e3, -40), fs, 1e6, window.Hann)
	i, _ := s.MaxBin()
	if got := s.Freq(i); math.Abs(got-800e3) > s.Fres {
		t.Errorf("peak at %g Hz, want 800 kHz", got)
	}
}

func TestNoiseFloorCalibration(t *testing.T) {
	// White complex noise with per-sample variance sigma² = N0·fs should
	// read N0·NENBW·fres per bin on average.
	r := rand.New(rand.NewSource(42))
	n := 16384
	fs := 1e6
	n0 := MwFromDBm(-160) // mW/Hz
	sigma := math.Sqrt(n0 * fs)
	var avg Averager
	for trial := 0; trial < 8; trial++ {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(sigma/math.Sqrt2, 0)
		}
		avg.Add(Periodogram(x, fs, 0, window.Hann))
	}
	s := avg.Mean()
	var mean float64
	for _, p := range s.PmW {
		mean += p
	}
	mean /= float64(s.Bins())
	wantP := n0 * window.NENBW(window.New(window.Hann, n)) * s.Fres
	ratio := mean / wantP
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("noise floor ratio %g, want ~1 (got %.1f dBm, want %.1f)", ratio, DBmFromMw(mean), DBmFromMw(wantP))
	}
}

func TestSpectrumGeometry(t *testing.T) {
	s := New(1000, 10, 100)
	if s.Freq(0) != 1000 || s.Freq(99) != 1990 || s.FEnd() != 2000 {
		t.Error("Freq/FEnd wrong")
	}
	if s.Index(1000) != 0 || s.Index(1994) != 99 || s.Index(1996) != 99 {
		t.Error("Index wrong")
	}
	if s.Index(-5000) != 0 || s.Index(1e9) != 99 {
		t.Error("Index clamping wrong")
	}
	if !s.Contains(1500) || s.Contains(2000) || s.Contains(999) {
		t.Error("Contains wrong")
	}
}

func TestSliceAndClone(t *testing.T) {
	s := New(0, 10, 100)
	for i := range s.PmW {
		s.PmW[i] = float64(i)
	}
	sub := s.Slice(250, 500)
	if sub.F0 != 250 || sub.Bins() != 25 {
		t.Fatalf("Slice geometry: F0=%g bins=%d", sub.F0, sub.Bins())
	}
	if sub.PmW[0] != 25 || sub.PmW[24] != 49 {
		t.Error("Slice content wrong")
	}
	sub.PmW[0] = -1
	if s.PmW[25] == -1 {
		t.Error("Slice aliases parent")
	}
	c := s.Clone()
	c.PmW[3] = -7
	if s.PmW[3] == -7 {
		t.Error("Clone aliases parent")
	}
	empty := s.Slice(5000, 6000)
	if empty.Bins() != 0 {
		t.Error("out-of-range slice should be empty")
	}
}

func TestMaxAndMedian(t *testing.T) {
	s := New(0, 1, 5)
	copy(s.PmW, []float64{1, 9, 3, 7, 5})
	i, p := s.MaxBin()
	if i != 1 || p != 9 {
		t.Errorf("MaxBin = (%d, %g)", i, p)
	}
	if got := s.MaxIn(2, 4); got != 3 {
		t.Errorf("MaxIn = %d, want 3", got)
	}
	if m := s.MedianPower(); m != 5 {
		t.Errorf("median %g, want 5", m)
	}
	if tp := s.TotalPower(); tp != 25 {
		t.Errorf("total %g, want 25", tp)
	}
}

func TestMedianProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		s := New(0, 1, n)
		for i := range s.PmW {
			s.PmW[i] = r.Float64()
		}
		m := s.MedianPower()
		// At least half the values are <= m+eps and at least half >= m-eps.
		lo, hi := 0, 0
		for _, v := range s.PmW {
			if v <= m {
				lo++
			}
			if v >= m {
				hi++
			}
		}
		return lo >= (n+1)/2 && hi >= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTrip(t *testing.T) {
	for _, d := range []float64{-150, -42.5, 0, 13} {
		if got := DBmFromMw(MwFromDBm(d)); math.Abs(got-d) > 1e-9 {
			t.Errorf("dBm roundtrip %g -> %g", d, got)
		}
	}
	if DBmFromMw(0) != -300 {
		t.Error("zero power should floor at -300 dBm")
	}
}

func TestAverager(t *testing.T) {
	a := &Averager{}
	if a.Mean() != nil {
		t.Error("empty averager should return nil")
	}
	s1 := New(0, 1, 3)
	copy(s1.PmW, []float64{1, 2, 3})
	s2 := New(0, 1, 3)
	copy(s2.PmW, []float64{3, 2, 1})
	a.Add(s1)
	a.Add(s2)
	m := a.Mean()
	for i, want := range []float64{2, 2, 2} {
		if m.PmW[i] != want {
			t.Errorf("mean[%d] = %g", i, m.PmW[i])
		}
	}
	mustPanic(t, func() { a.Add(New(5, 1, 3)) })
	mustPanic(t, func() { a.Add(New(0, 2, 3)) })
	mustPanic(t, func() { a.Add(New(0, 1, 4)) })
}

func TestStitch(t *testing.T) {
	p1 := New(0, 10, 5)
	p2 := New(50, 10, 5)
	for i := range p1.PmW {
		p1.PmW[i] = float64(i)
		p2.PmW[i] = float64(i + 5)
	}
	s := Stitch([]*Spectrum{p1, p2})
	if s.Bins() != 10 || s.F0 != 0 {
		t.Fatalf("stitch geometry wrong")
	}
	for i := 0; i < 10; i++ {
		if s.PmW[i] != float64(i) {
			t.Errorf("stitched bin %d = %g", i, s.PmW[i])
		}
	}
	mustPanic(t, func() { Stitch(nil) })
	mustPanic(t, func() { Stitch([]*Spectrum{p1, New(60, 10, 5)}) }) // gap
	mustPanic(t, func() { Stitch([]*Spectrum{p1, New(50, 20, 5)}) }) // fres mismatch
}

// TestSliceStitchRoundTrip: cutting a spectrum into contiguous pieces and
// stitching them back reproduces the original exactly.
func TestSliceStitchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(500)
		s := New(r.Float64()*1e6, 1+r.Float64()*1e3, n)
		for i := range s.PmW {
			s.PmW[i] = r.Float64()
		}
		// Random cut points.
		cuts := []float64{s.F0}
		at := s.F0
		for at < s.FEnd() {
			at += s.Fres * float64(1+r.Intn(n))
			if at > s.FEnd() {
				at = s.FEnd()
			}
			cuts = append(cuts, at)
		}
		var parts []*Spectrum
		for i := 1; i < len(cuts); i++ {
			parts = append(parts, s.Slice(cuts[i-1], cuts[i]))
		}
		back := Stitch(parts)
		if back.Bins() != s.Bins() || back.F0 != s.F0 {
			return false
		}
		for i := range s.PmW {
			if back.PmW[i] != s.PmW[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGoertzelMatchesDFTBin(t *testing.T) {
	// Goertzel at a bin frequency matches the amplitude-calibrated DFT.
	r := rand.New(rand.NewSource(12))
	n := 512
	fs := 1e4
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64() + 3*math.Cos(2*math.Pi*400*float64(i)/fs)
	}
	if p := Goertzel(x, fs, 400); math.Abs(p-9) > 1.5 {
		t.Errorf("Goertzel at tone reads %g, want ~9", p)
	}
}

func TestPeriodogramPanics(t *testing.T) {
	mustPanic(t, func() { Periodogram(nil, 1e6, 0, window.Hann) })
	mustPanic(t, func() { New(0, -1, 10) })
	mustPanic(t, func() { New(0, 1, 10).Slice(100, 50) })
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

package demod

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"fase/internal/dsp/fft"
	"fase/internal/dsp/window"
)

func TestEnvelopeComplex(t *testing.T) {
	x := []complex128{3 + 4i, 1, -2i}
	env := EnvelopeComplex(x)
	want := []float64{5, 1, 2}
	for i := range want {
		if math.Abs(env[i]-want[i]) > 1e-12 {
			t.Errorf("envelope[%d] = %g, want %g", i, env[i], want[i])
		}
	}
}

func TestInstFreqConstantTone(t *testing.T) {
	fs := 1e6
	f0 := 12345.0
	n := 1000
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*f0*float64(i)/fs))
	}
	f := InstFreq(x, fs)
	for i, v := range f {
		if math.Abs(v-f0) > 1e-6 {
			t.Fatalf("inst freq at %d: %g, want %g", i, v, f0)
		}
	}
}

func TestInstFreqSweep(t *testing.T) {
	// Linear chirp: instantaneous frequency must ramp.
	fs := 1e6
	n := 10000
	x := make([]complex128, n)
	phase := 0.0
	for i := range x {
		f := 1000 + 50000*float64(i)/float64(n)
		phase += 2 * math.Pi * f / fs
		x[i] = cmplx.Exp(complex(0, phase))
	}
	f := InstFreq(x, fs)
	if math.Abs(f[n/2]-26000) > 300 {
		t.Errorf("midpoint inst freq %g, want ~26 kHz", f[n/2])
	}
	if f[n-1] < f[100] {
		t.Error("chirp frequency should increase")
	}
}

func TestMeasureFM(t *testing.T) {
	// FSK between ±10 kHz: RMS deviation ~10 kHz, peak-to-peak ~20 kHz.
	fs := 1e6
	n := 20000
	x := make([]complex128, n)
	phase := 0.0
	for i := range x {
		f := 10000.0
		if (i/1000)%2 == 1 {
			f = -10000.0
		}
		phase += 2 * math.Pi * f / fs
		x[i] = cmplx.Exp(complex(0, phase))
	}
	st := MeasureFM(x, fs, 8)
	if math.Abs(st.MeanHz) > 500 {
		t.Errorf("mean %g, want ~0", st.MeanHz)
	}
	if math.Abs(st.DeviationHz-10000) > 1000 {
		t.Errorf("deviation %g, want ~10 kHz", st.DeviationHz)
	}
	if st.PeakToPeak < 15000 {
		t.Errorf("peak-to-peak %g, want ~20 kHz", st.PeakToPeak)
	}
	// An unmodulated tone has near-zero deviation.
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*5000*float64(i)/fs))
	}
	st = MeasureFM(x, fs, 1)
	if st.DeviationHz > 1 {
		t.Errorf("unmodulated deviation %g, want ~0", st.DeviationHz)
	}
}

func TestSTFTGeometryAndTone(t *testing.T) {
	fs := 1e5
	fc := 1e6
	offset := 10e3
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*offset*float64(i)/fs))
	}
	sg := STFT(x, fs, fc, 512, 256)
	wantFrames := (n-512)/256 + 1
	if len(sg.PmW) != wantFrames {
		t.Fatalf("frames = %d, want %d", len(sg.PmW), wantFrames)
	}
	if sg.Bins() != 512 {
		t.Fatalf("bins = %d", sg.Bins())
	}
	track := sg.PeakTrack()
	for i, f := range track {
		if math.Abs(f-(fc+offset)) > fs/512 {
			t.Fatalf("frame %d peak at %g, want %g", i, f, fc+offset)
		}
	}
	if sg.FrameTime[1]-sg.FrameTime[0] != 256/fs {
		t.Error("frame time spacing wrong")
	}
}

// TestSTFTMatchesUnfusedFrames holds each STFT frame to the pipeline it
// replaced: Hann multiply, ordered FFT, fftshift and calibrated power, at
// a power-of-two and a Bluestein frame length.
func TestSTFTMatchesUnfusedFrames(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const fs, fc = 1e6, 5e5
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*123e3*float64(i)/fs)) +
			complex(r.NormFloat64(), r.NormFloat64())*1e-3
	}
	for _, frameLen := range []int{512, 600} {
		sg := STFT(x, fs, fc, frameLen, 300)
		pc := window.For(stftWindow, frameLen)
		norm := 1 / (float64(frameLen) * pc.CoherentGain)
		h := (frameLen + 1) / 2
		for f, got := range sg.PmW {
			start := f * 300
			buf := make([]complex128, frameLen)
			for i := range buf {
				buf[i] = x[start+i] * complex(pc.W[i], 0)
			}
			buf = fft.Forward(buf)
			var peak, worst float64
			for k := range got {
				v := buf[(k+h)%frameLen]
				want := (real(v)*real(v) + imag(v)*imag(v)) * norm * norm
				peak = math.Max(peak, want)
				worst = math.Max(worst, math.Abs(got[k]-want))
			}
			if worst > 1e-12*peak {
				t.Fatalf("frameLen %d frame %d: bins differ by %.3g of the peak", frameLen, f, worst/peak)
			}
		}
	}
}

func TestSTFTTracksFSK(t *testing.T) {
	// Spectrogram peak tracking must follow a two-tone switch — the
	// paper's §4.4 FM confirmation method.
	fs := 1e6
	n := 1 << 15
	x := make([]complex128, n)
	phase := 0.0
	for i := range x {
		f := 100e3
		if (i/8192)%2 == 1 {
			f = 200e3
		}
		phase += 2 * math.Pi * f / fs
		x[i] = cmplx.Exp(complex(0, phase))
	}
	sg := STFT(x, fs, 0, 1024, 1024)
	track := sg.PeakTrack()
	sawLow, sawHigh := false, false
	for _, f := range track {
		if math.Abs(f-100e3) < 5e3 {
			sawLow = true
		}
		if math.Abs(f-200e3) < 5e3 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Errorf("spectrogram failed to see both FSK tones: low=%v high=%v", sawLow, sawHigh)
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { InstFreq([]complex128{1}, 1) })
	mustPanic(t, func() { STFT(make([]complex128, 10), 1, 0, 0, 1) })
	mustPanic(t, func() { STFT(make([]complex128, 10), 1, 0, 16, 1) })
	mustPanic(t, func() { STFT(make([]complex128, 10), 1, 0, 4, 0) })
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

package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gainAt measures the steady-state amplitude gain of a filter function at
// normalized frequency f (cycles/sample) by driving it with a sine.
func gainAt(step func(float64) float64, f float64) float64 {
	n := 4000
	var maxOut float64
	for i := 0; i < n; i++ {
		y := step(math.Sin(2 * math.Pi * f * float64(i)))
		if i > n/2 && math.Abs(y) > maxOut {
			maxOut = math.Abs(y)
		}
	}
	return maxOut
}

func TestLowpassFIRDCGain(t *testing.T) {
	h := LowpassFIR(0.1, 63)
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain %g, want 1", sum)
	}
}

func TestLowpassFIRResponse(t *testing.T) {
	h := LowpassFIR(0.1, 101)
	x := make([]float64, 2000)
	// Passband tone at 0.02, stopband tone at 0.3.
	for i := range x {
		x[i] = math.Sin(2*math.Pi*0.02*float64(i)) + math.Sin(2*math.Pi*0.3*float64(i))
	}
	xc := make([]complex128, len(x))
	for i, v := range x {
		xc[i] = complex(v, 0)
	}
	y := ConvolveComplex(xc, h)
	// Measure residual stopband energy vs passband energy mid-signal.
	var pass, total float64
	for i := 500; i < 1500; i++ {
		ref := math.Sin(2 * math.Pi * 0.02 * float64(i))
		pass += ref * ref
		d := y[i] - complex(ref, 0)
		total += real(d)*real(d) + imag(d)*imag(d)
	}
	if total/pass > 0.01 {
		t.Errorf("stopband leakage ratio %g, want < 0.01", total/pass)
	}
}

func TestLowpassFIRSymmetry(t *testing.T) {
	// Linear phase requires a symmetric impulse response.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		taps := 3 + 2*r.Intn(60)
		cutoff := 0.01 + 0.47*r.Float64()
		h := LowpassFIR(cutoff, taps)
		for i := range h {
			if math.Abs(h[i]-h[len(h)-1-i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConvolveIdentity(t *testing.T) {
	xc := []complex128{1i, 2, 3i}
	yc := ConvolveComplex(xc, []float64{1})
	for i := range xc {
		if yc[i] != xc[i] {
			t.Fatalf("complex identity convolution failed at %d", i)
		}
	}
}

func TestConvolveShift(t *testing.T) {
	// Kernel [0,0,1] (center-aligned) delays by one sample.
	x := []complex128{1, 2i, 3, 4i}
	y := ConvolveComplex(x, []float64{0, 0, 1})
	want := []complex128{0, 1, 2i, 3}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("shift convolution: got %v want %v", y, want)
		}
	}
}

func TestOnePoleTracksDC(t *testing.T) {
	p := NewOnePole(1000, 1e6)
	var y float64
	for i := 0; i < 100000; i++ {
		y = p.Step(3.5)
	}
	if math.Abs(y-3.5) > 1e-9 {
		t.Errorf("one-pole DC tracking: %g", y)
	}
}

func TestOnePolePrimesOnFirstSample(t *testing.T) {
	p := NewOnePole(10, 1000)
	if got := p.Step(7); got != 7 {
		t.Errorf("first sample should prime state: %g", got)
	}
}

func TestOnePoleBandwidth(t *testing.T) {
	// At its -3 dB bandwidth the gain must be close to 1/sqrt(2).
	bw, fs := 0.02, 1.0
	p := NewOnePole(bw, fs)
	g := gainAt(p.Step, bw)
	if math.Abs(g-1/math.Sqrt2) > 0.05 {
		t.Errorf("gain at bandwidth %g, want ~0.707", g)
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { LowpassFIR(0, 11) })
	mustPanic(t, func() { LowpassFIR(0.5, 11) })
	mustPanic(t, func() { LowpassFIR(0.1, 10) })
	mustPanic(t, func() { LowpassFIR(0.1, 1) })
	mustPanic(t, func() { NewOnePole(0, 100) })
	mustPanic(t, func() { NewOnePole(60, 100) })
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

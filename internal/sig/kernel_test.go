package sig

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// Add is the exact per-pulse reference deposit AddTrain is held to: it
// deposits an impulse of the given complex area (in units of
// value·seconds) at continuous sample position pos into dst, where dst is
// sampled at rate fs, evaluating every tap of the windowed sinc by trig
// recurrence. sin(π(u+1)) = −sin(πu) makes the sinc numerator alternate
// sign, and the window cosine follows the Chebyshev recurrence
// cos(θ+Δ) = 2cosΔ·cosθ − cos(θ−Δ), so three trig calls seed the taps.
// Positions outside dst are clipped sample-by-sample. It is declared in a
// test file because production deposits every pulse train through
// AddTrain's polyphase table.
func (k *ImpulseKernel) Add(dst []complex128, pos float64, area complex128, fs float64) {
	center := int(math.Round(pos))
	// The impulse in sample units has height area·fs distributed over the
	// windowed sinc.
	amp := area * complex(fs, 0)
	const h = kernelHalfTaps
	dTheta := math.Pi / float64(h+1) // window phase step between taps
	twoCosD := 2 * math.Cos(dTheta)  // the Chebyshev recurrence coefficient
	lo := center - h
	u0 := float64(lo) - pos // distance of the first tap from the impulse
	// Seed the sinc numerator at the centre tap, whose distance
	// center − pos is exact, and step it back h taps:
	// sin(π(u−h)) = (−1)^h·sin(πu). Seeded at the first tap, sin(π·u0)
	// loses a small offset to cancellation: a pulse 1e-9 samples from an
	// integer position got a peak tap up to 9e-7 off, one 1e-12 away up
	// to 7e-4.
	s := math.Sin(math.Pi * (float64(center) - pos))
	if h%2 == 1 {
		s = -s
	}
	theta0 := u0 * dTheta
	c := math.Cos(theta0)
	cPrev := math.Cos(theta0 - dTheta)
	if lo >= 0 && center+h < len(dst) {
		// Fully interior impulse (the common case): same tap arithmetic
		// as below, minus the per-tap clip test.
		for i := lo; i <= center+h; i++ {
			u := float64(i) - pos
			var snc float64
			if u == 0 {
				snc = 1
			} else {
				snc = s / (math.Pi * u)
			}
			w := 0.54 + 0.46*c
			dst[i] += amp * complex(snc*w, 0)
			s = -s
			c, cPrev = twoCosD*c-cPrev, c
		}
		return
	}
	for i := lo; i <= center+h; i++ {
		if i >= 0 && i < len(dst) {
			u := float64(i) - pos
			var snc float64
			if u == 0 {
				snc = 1
			} else {
				snc = s / (math.Pi * u)
			}
			w := 0.54 + 0.46*c
			dst[i] += amp * complex(snc*w, 0)
		}
		s = -s
		c, cPrev = twoCosD*c-cPrev, c
	}
}

// TestImpulseKernelBatchSplit: a train deposited in one AddTrain call is
// bit-identical to the same train split at random points into
// consecutive calls, the contract the blocked emitters rest on.
func TestImpulseKernelBatchSplit(t *testing.T) {
	k := NewImpulseKernel()
	r := rand.New(rand.NewSource(7))
	fs := 1.6384e6
	for trial := 0; trial < 50; trial++ {
		n, pos, tk, amp, omega := randomTrain(r)
		whole := make([]complex128, n)
		k.AddTrain(whole, pos, tk, amp, omega, fs)
		split := make([]complex128, n)
		for lo := 0; lo < len(pos); {
			hi := lo + 1 + r.Intn(len(pos)-lo)
			k.AddTrain(split, pos[lo:hi], tk[lo:hi], amp[lo:hi], omega, fs)
			lo = hi
		}
		for i := range whole {
			if math.Float64bits(real(whole[i])) != math.Float64bits(real(split[i])) ||
				math.Float64bits(imag(whole[i])) != math.Float64bits(imag(split[i])) {
				t.Fatalf("trial %d sample %d: one call %v, split calls %v", trial, i, whole[i], split[i])
			}
		}
	}
}

// TestImpulseKernelTableBytes pins the shared kernel's size: building
// NewImpulseKernel allocates at most 16 KB (its table is 67 × 17
// float64s, 9.1 KB). The process-wide kernel lives for the whole run, so
// its table counts in every retained-heap measurement.
func TestImpulseKernelTableBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k := NewImpulseKernel()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(k)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewImpulseKernel allocated %d bytes", b)
	if b > 16<<10 {
		t.Errorf("NewImpulseKernel allocated %d bytes, want <= %d", b, 16<<10)
	}
}

// FuzzImpulseKernel: a pulse at any finite position, half-integers and
// positions past both edges included, deposits without panicking and
// within tapTol of the exact kernel; one that reaches no sample deposits
// nothing.
func FuzzImpulseKernel(f *testing.F) {
	for _, pos := range []float64{0, 15.5, 16.25, -0.5, 31.5, 32.5, -8.5, -9.25, 40.5, 6.000000000000014, 1e300, -1e300, 9.3e18} {
		f.Add(pos)
	}
	k := NewImpulseKernel()
	f.Fuzz(func(t *testing.T, pos float64) {
		if math.IsNaN(pos) || math.IsInf(pos, 0) {
			t.Skip("not a finite position")
		}
		got := make([]complex128, 32)
		k.AddTrain(got, []float64{pos}, []float64{0}, []float64{1}, 0, 1)
		want := make([]complex128, 32)
		// Beyond ±100 no tap reaches the window; Add's int conversion of
		// the centre overflows past 2^63.
		if math.Abs(pos) < 100 {
			k.Add(want, pos, 1, 1)
		}
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > tapTol {
				t.Fatalf("pos %v sample %d: got %v want %v, error %g", pos, i, got[i], want[i], e)
			}
		}
	})
}

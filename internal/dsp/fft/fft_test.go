package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 64, 100, 128, 255, 256, 257} {
		x := randComplex(r, n)
		want := naiveDFT(x)
		got := Forward(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 11, 64, 129, 1000, 1024} {
		x := randComplex(r, n)
		orig := make([]complex128, n)
		copy(orig, x)
		p := NewPlan(n)
		p.Forward(x)
		p.Inverse(x)
		if e := maxErr(x, orig); e > 1e-9*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

// TestInversePow2BitIdentical pins the conjugate-twiddle inverse kernel to
// the conjugate → forward → conjugate formulation it replaced: the two
// must agree bit for bit, because Plan.Inverse sits on the golden-pinned
// Background render path.
func TestInversePow2BitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 8, 64, 1024, 4096} {
		p := PlanFor(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		ref := make([]complex128, n)
		copy(ref, x)
		// Reference: the elided-conjugate formulation.
		conjugate(ref)
		p.forwardPow2(ref)
		conjugate(ref)
		scale(ref, 1/float64(n))

		p.Inverse(x)
		for i := range x {
			if rb, ib := math.Float64bits(real(x[i])), math.Float64bits(imag(x[i])); rb != math.Float64bits(real(ref[i])) || ib != math.Float64bits(imag(ref[i])) {
				t.Fatalf("n=%d sample %d: inversePow2 %v != reference %v", n, i, x[i], ref[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 50, 128, 777} {
		x := randComplex(r, n)
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		X := Forward(x)
		var freqEnergy float64
		for _, v := range X {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
			t.Errorf("n=%d: Parseval violated: time %g freq %g", n, timeEnergy, freqEnergy)
		}
	}
}

func TestImpulseIsFlat(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	x[0] = 1
	X := Forward(x)
	for k, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d: impulse transform not flat: %v", k, v)
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	for _, n := range []int{64, 96} {
		k0 := 7
		x := make([]complex128, n)
		for i := range x {
			angle := 2 * math.Pi * float64(k0) * float64(i) / float64(n)
			x[i] = cmplx.Exp(complex(0, angle))
		}
		X := Forward(x)
		for k, v := range X {
			want := complex(0, 0)
			if k == k0 {
				want = complex(float64(n), 0)
			}
			if cmplx.Abs(v-want) > 1e-7*float64(n) {
				t.Errorf("n=%d bin %d: got %v want %v", n, k, v, want)
			}
		}
	}
}

// TestLinearity is a property test: FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(200)
		a := complex(r.NormFloat64(), r.NormFloat64())
		b := complex(r.NormFloat64(), r.NormFloat64())
		x := randComplex(rr, n)
		y := randComplex(rr, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + b*y[i]
		}
		Fs := Forward(sum)
		Fx := Forward(x)
		Fy := Forward(y)
		for i := range Fs {
			if cmplx.Abs(Fs[i]-(a*Fx[i]+b*Fy[i])) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTimeShiftPhase checks the shift theorem: delaying the input by d
// multiplies bin k by exp(-i2πkd/n).
func TestTimeShiftPhase(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, d := 128, 13
	x := randComplex(r, n)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[((i-d)%n+n)%n]
	}
	X := Forward(x)
	S := Forward(shifted)
	for k := range X {
		phase := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(d)/float64(n)))
		if cmplx.Abs(S[k]-X[k]*phase) > 1e-8*float64(n) {
			t.Fatalf("bin %d: shift theorem violated", k)
		}
	}
}

func TestShiftRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 5, 8, 9, 100, 101} {
		x := randComplex(r, n)
		orig := make([]complex128, n)
		copy(orig, x)
		Shift(x)
		// Rotating left by the rest of the length undoes Shift's
		// rotation by (n+1)/2.
		rotate(x, n-(n+1)/2)
		if e := maxErr(x, orig); e != 0 {
			t.Errorf("n=%d: Shift not undone by its complementary rotation, err %g", n, e)
		}
	}
}

func TestShiftCentersDC(t *testing.T) {
	for _, n := range []int{8, 9} {
		x := make([]complex128, n)
		x[0] = 1 // DC bin
		Shift(x)
		center := n / 2
		if n%2 == 1 {
			center = n / 2
		}
		if x[center] != 1 {
			t.Errorf("n=%d: DC not centered at %d: %v", n, center, x)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPlanLenAndPanics(t *testing.T) {
	p := NewPlan(16)
	if p.Len() != 16 {
		t.Errorf("Len = %d, want 16", p.Len())
	}
	mustPanic(t, func() { NewPlan(0) })
	mustPanic(t, func() { NewPlan(-3) })
	mustPanic(t, func() { p.Forward(make([]complex128, 8)) })
	mustPanic(t, func() { p.Inverse(make([]complex128, 32)) })
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

// TestPow2PlanConcurrentUse exercises the documented guarantee that
// power-of-two plans may be shared across goroutines (run with -race).
func TestPow2PlanConcurrentUse(t *testing.T) {
	p := NewPlan(1024)
	r := rand.New(rand.NewSource(11))
	ref := randComplex(r, 1024)
	want := Forward(ref)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			x := make([]complex128, len(ref))
			for iter := 0; iter < 20; iter++ {
				copy(x, ref)
				p.Forward(x)
				if e := maxErr(x, want); e > 1e-9 {
					done <- fmt.Errorf("concurrent transform diverged: %g", e)
					return
				}
				p.Inverse(x)
				if e := maxErr(x, ref); e > 1e-9 {
					done <- fmt.Errorf("concurrent roundtrip diverged: %g", e)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func BenchmarkFFTPow2_131072(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := randComplex(r, 131072)
	p := NewPlan(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFTBluestein_100000(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x := randComplex(r, 100000)
	p := NewPlan(len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

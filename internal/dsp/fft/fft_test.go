package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation. It reduces k·i modulo n
// before forming the angle, so the twiddles stay exact to rounding at
// every length.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			angle := -2 * math.Pi * float64(k*i%n) / float64(n)
			sum += x[i] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// radix2 is the oracle for power-of-two lengths: the iterative radix-2
// decimation-in-time transform the radix-2² kernel replaced (bit-reversal
// swaps, then log₂ n butterfly stages over the twiddles exp(-i2πk/n)).
func radix2(x []complex128) {
	n := len(x)
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := start; k < start+half; k++ {
				t := tw[(k-start)*step] * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
			}
		}
	}
}

// unpermuted gathers a ForwardPermuted result into natural order.
func unpermuted(p *Plan, x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for k, j := range p.Perm() {
		out[k] = x[j]
	}
	return out
}

// relErr is the largest error of got against want, relative to want's
// largest magnitude.
func relErr(got, want []complex128) float64 {
	var peak float64
	for _, v := range want {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	return maxErr(got, want) / peak
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
	for _, n := range []int{1, 2, 3, 4, 8, 11, 32, 64, 129, 1000, 1024, 2048} {
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

// TestInversePow2BitIdentical pins the power-of-two inverse to the
// conjugation identity Inverse(x) = conj(Forward(conj(x)))/N bit for bit,
// because Plan.Inverse sits on the golden-pinned Background render path.
func TestInversePow2BitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 2048, 4096} {
		p := PlanFor(n)
		x := randComplex(r, n)
		ref := make([]complex128, n)
		copy(ref, x)
		conjugate(ref)
		p.Forward(ref)
		conjugate(ref)
		scale(ref, 1/float64(n))

		p.Inverse(x)
		if !bitEqual(x, ref) {
			t.Fatalf("n=%d: Inverse differs from conj(Forward(conj(x)))/n", n)
		}
	}
}

// bitEqual reports whether a and b hold the same bits.
func bitEqual(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestPermutedMatchesNaive checks the radix-2² kernel at every power of
// two from 1 to 4096 (odd and even log₂ n) against the direct DFT, read
// through Perm.
func TestPermutedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for n := 1; n <= 4096; n *= 2 {
		x := randComplex(r, n)
		want := naiveDFT(x)
		p := NewPlan(n)
		p.ForwardPermuted(x, nil)
		if e := relErr(unpermuted(p, x), want); e > 1e-14 {
			t.Errorf("n=%d: error %.3g of the peak vs the direct DFT", n, e)
		}
	}
}

// TestForwardMatchesRadix2 checks Forward and Inverse against the radix-2
// oracle at every power of two up to 2^16.
func TestForwardMatchesRadix2(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for n := 1; n <= 1<<16; n *= 2 {
		x := randComplex(r, n)
		want := make([]complex128, n)
		copy(want, x)
		radix2(want)
		got := Forward(x)
		if e := relErr(got, want); e > 1e-14 {
			t.Errorf("n=%d: forward error %.3g of the peak vs radix-2", n, e)
		}
		// The inverse of x is conj(radix2(conj(x)))/n.
		copy(want, x)
		conjugate(want)
		radix2(want)
		conjugate(want)
		scale(want, 1/float64(n))
		if e := relErr(Inverse(x), want); e > 1e-14 {
			t.Errorf("n=%d: inverse error %.3g of the peak vs radix-2", n, e)
		}
	}
}

// TestWindowFoldedIntoFirstPass checks that ForwardPermuted's window is
// exactly a multiply of the input, power of two or not.
func TestWindowFoldedIntoFirstPass(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 2048, 100} {
		x := randComplex(r, n)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.Float64()
		}
		ref := make([]complex128, n)
		for i, v := range x {
			ref[i] = complex(real(v)*w[i], imag(v)*w[i])
		}
		p := NewPlan(n)
		p.ForwardPermuted(x, w)
		p.ForwardPermuted(ref, nil)
		if !bitEqual(x, ref) {
			t.Errorf("n=%d: windowed transform differs from the transform of the windowed input", n)
		}
	}
	mustPanic(t, func() { NewPlan(8).ForwardPermuted(make([]complex128, 8), make([]float64, 4)) })
}

// TestPermIsIdentityForBluestein checks that a non-power-of-two plan's
// permuted transforms are its ordered ones.
func TestPermIsIdentityForBluestein(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	const n = 96
	p := NewPlan(n)
	x := randComplex(r, n)
	got := make([]complex128, n)
	copy(got, x)
	p.ForwardPermuted(got, nil)
	if !bitEqual(got, Forward(x)) {
		t.Error("ForwardPermuted differs from Forward")
	}
	copy(got, x)
	p.InversePermuted(got)
	scale(got, 1/float64(n))
	if !bitEqual(got, Inverse(x)) {
		t.Error("InversePermuted/n differs from Inverse")
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

// BenchmarkKernels times, at the adaptive and campaign capture sizes, the
// radix-2² kernel left in Perm order, Forward, which adds the
// permutation, and Inverse, which adds two conjugations and the 1/N.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{2048, 16384} {
		x := randComplex(rand.New(rand.NewSource(9)), n)
		p := NewPlan(n)
		for _, k := range []struct {
			name string
			run  func([]complex128)
		}{
			{"permuted", func(x []complex128) { p.ForwardPermuted(x, nil) }},
			{"forward", p.Forward},
			{"inverse", p.Inverse},
		} {
			b.Run(fmt.Sprintf("%s/%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run(x)
				}
			})
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

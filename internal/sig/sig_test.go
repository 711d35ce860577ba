package sig

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOUStationaryStats(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := OU{Sigma: 2.5, Tau: 1e-3}
	p.Init(r)
	dt := 1e-5
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := p.Step(dt, r)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Errorf("OU mean %g, want ~0", mean)
	}
	if math.Abs(std-2.5) > 0.3 {
		t.Errorf("OU std %g, want ~2.5", std)
	}
}

func TestOUZeroSigmaIsIdeal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := OU{Sigma: 0, Tau: 1}
	for i := 0; i < 10; i++ {
		if p.Step(1e-6, r) != 0 {
			t.Fatal("zero-sigma OU must stay at zero")
		}
	}
}

// TestOUDiscretizeMatchesStep checks that the update Discretize returns,
// applied inline to the value it returns, follows Step's trajectory bit
// for bit from the same draws.
func TestOUDiscretizeMatchesStep(t *testing.T) {
	const dt = 1 / 409600.0
	p, q := OU{Sigma: 350, Tau: 1.2e-3}, OU{Sigma: 350, Tau: 1.2e-3}
	rp, rq := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	p.Init(rp)
	q.Init(rq)
	x, a, noise := q.Discretize(dt)
	for i := 0; i < 4096; i++ {
		x = a*x + noise*rq.NormFloat64()
		if got := p.Step(dt, rp); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("step %d: inline update %v, Step %v", i, x, got)
		}
	}
}

func TestOUCorrelationTime(t *testing.T) {
	// Successive samples dt << tau apart must be strongly correlated.
	r := rand.New(rand.NewSource(3))
	p := OU{Sigma: 1, Tau: 1e-3}
	p.Init(r)
	prev := p.Step(1e-7, r)
	var diffSum float64
	n := 10000
	for i := 0; i < n; i++ {
		v := p.Step(1e-7, r)
		diffSum += (v - prev) * (v - prev)
		prev = v
	}
	// RMS step for dt = tau/10000 should be about sigma·sqrt(2dt/tau) ≈ 0.014.
	rmsStep := math.Sqrt(diffSum / float64(n))
	if rmsStep > 0.05 {
		t.Errorf("OU steps too large for dt << tau: %g", rmsStep)
	}
}

func TestOscillatorIdealPhaseRamp(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	o := Oscillator{F0: 1e6}
	o.Start(r)
	start := o.Phase()
	dt := 1e-7
	for i := 0; i < 1000; i++ {
		o.Step(dt, 0.9e6, r)
	}
	// Offset frequency 100 kHz for 100 µs -> 2π·10 radians.
	want := start + 2*math.Pi*10
	if math.Abs(o.Phase()-want) > 1e-6 {
		t.Errorf("phase %g, want %g", o.Phase(), want)
	}
}

func TestPulseHarmonicProperties(t *testing.T) {
	// DC coefficient equals duty.
	if got := PulseHarmonic(0.3, 0); got != complex(0.3, 0) {
		t.Errorf("c0 = %v", got)
	}
	// 50% duty: even harmonics vanish, odd follow 1/n.
	for n := 2; n <= 8; n += 2 {
		if m := cmplx.Abs(PulseHarmonic(0.5, n)); m > 1e-12 {
			t.Errorf("even harmonic %d at 50%% duty: %g", n, m)
		}
	}
	c1 := cmplx.Abs(PulseHarmonic(0.5, 1))
	c3 := cmplx.Abs(PulseHarmonic(0.5, 3))
	if math.Abs(c1/c3-3) > 1e-9 {
		t.Errorf("odd harmonic ratio %g, want 3", c1/c3)
	}
	// Small duty: first few harmonics nearly equal (paper: refresh comb).
	c1 = cmplx.Abs(PulseHarmonic(0.026, 1))
	c5 := cmplx.Abs(PulseHarmonic(0.026, 5))
	if c5/c1 < 0.95 {
		t.Errorf("small-duty harmonics should be nearly flat: c5/c1 = %g", c5/c1)
	}
	// Negative harmonic index mirrors positive magnitude.
	if cmplx.Abs(PulseHarmonic(0.2, -3)) != cmplx.Abs(PulseHarmonic(0.2, 3)) {
		t.Error("negative harmonic magnitude mismatch")
	}
}

func TestPulseHarmonicMonotoneInDuty(t *testing.T) {
	// Property: while n·duty < 0.5, |c_n| = sin(πnd)/(πn) increases with
	// duty — the paper's duty-cycle AM mechanism, in the regulators'
	// small-duty regime.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		dMax := 0.45/float64(n) - 0.005
		d := 0.02 + (dMax-0.02)*r.Float64()
		return cmplx.Abs(PulseHarmonic(d+0.005, n)) > cmplx.Abs(PulseHarmonic(d, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSweepProfiles(t *testing.T) {
	tri := TriangleSweep{}
	if tri.Offset(0) != -1 || tri.Offset(0.25) != 0 || tri.Offset(0.5) != 1 || tri.Offset(0.75) != 0 {
		t.Error("triangle profile wrong")
	}
	sin := SineSweep{}
	if sin.Offset(0.25) != 1 || math.Abs(sin.Offset(0.5)) > 1e-12 {
		t.Error("sine profile wrong")
	}
	for _, u := range []float64{0, 0.1, 0.33, 0.9, 1.7, -0.2} {
		if v := tri.Offset(u); v < -1-1e-12 || v > 1+1e-12 {
			t.Errorf("triangle out of range at %g: %g", u, v)
		}
	}
	if tri.String() != "triangle" || sin.String() != "sine" {
		t.Error("profile names wrong")
	}
}

func TestSSCFrequencyBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := SSC{F0: 333e6, SpreadHz: 1e6, RateHz: 10e3, Profile: TriangleSweep{}}
	s.Start(r)
	dt := 1e-8
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 100000; i++ {
		f := s.Freq()
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
		s.Step(dt, 332.5e6)
	}
	if lo < 332e6-1 || hi > 333e6+1 {
		t.Errorf("down-spread SSC out of [332, 333] MHz: [%g, %g]", lo, hi)
	}
	if hi-lo < 0.9e6 {
		t.Errorf("sweep did not cover the spread: %g", hi-lo)
	}
}

func TestSSCWithoutProfileIsFixed(t *testing.T) {
	s := SSC{F0: 100e6}
	if s.Freq() != 100e6 {
		t.Error("profile-less SSC should sit at F0")
	}
}

// deposit is a one-pulse AddTrain of the real area at time 0, where the
// downconversion phasor is 1.
func deposit(k *ImpulseKernel, dst []complex128, pos, area, fs float64) {
	k.AddTrain(dst, []float64{pos}, []float64{0}, []float64{area}, 0, fs)
}

func TestImpulseKernelAreaAndPosition(t *testing.T) {
	fs := 1e6
	k := NewImpulseKernel()
	dst := make([]complex128, 64)
	deposit(k, dst, 32.0, 2e-6, fs) // area 2 µV·s
	// Sum of samples × dt must equal the area (kernel integrates to 1).
	var sum complex128
	for _, v := range dst {
		sum += v
	}
	got := real(sum) / fs
	if math.Abs(got-2e-6) > 1e-8 {
		t.Errorf("impulse area %g, want 2e-6", got)
	}
	// Peak sample at the impulse position.
	maxI, maxV := 0, 0.0
	for i, v := range dst {
		if cmplx.Abs(v) > maxV {
			maxI, maxV = i, cmplx.Abs(v)
		}
	}
	if maxI != 32 {
		t.Errorf("impulse peak at %d, want 32", maxI)
	}
}

func TestImpulseKernelSubSample(t *testing.T) {
	// An impulse between samples must split energy across neighbours and
	// preserve area.
	fs := 1.0
	k := NewImpulseKernel()
	dst := make([]complex128, 64)
	deposit(k, dst, 31.5, 1, fs)
	var sum complex128
	for _, v := range dst {
		sum += v
	}
	if math.Abs(real(sum)-1) > 0.01 {
		t.Errorf("sub-sample impulse area %g, want 1", real(sum))
	}
	if cmplx.Abs(dst[31]-dst[32]) > 1e-9 {
		t.Errorf("half-way impulse should be symmetric: %v vs %v", dst[31], dst[32])
	}
}

// TestImpulseKernelEdgeClip: a pulse overlapping either edge deposits
// exactly the in-window taps of the same pulse deposited whole into a
// wider buffer, and a pulse past either edge deposits nothing. The pad
// of 16 exceeds h+1 = 9, so every shifted pulse lands whole inside the
// wide buffer, while the 8-sample buffer is narrower than the 17-tap
// kernel, so every pulse reaching it clips. The positions are dyadic, so
// shifting them by the padding keeps their fractional offsets exact.
// Negative half-integers are left out: they round away from zero, to the
// other centre than their shifted twins
// (TestImpulseKernelAddTrainMatchesAdd covers them).
func TestImpulseKernelEdgeClip(t *testing.T) {
	k := NewImpulseKernel()
	const n, pad = 8, 16
	for _, pos := range []float64{-2, -0.25, 0.25, -2.375, 6.625, 9.5, 11.125, 12.5, -40, 1e300, -1e300} {
		dst := make([]complex128, n)
		deposit(k, dst, pos, 1, 1)
		wide := make([]complex128, n+2*pad)
		deposit(k, wide, pos+pad, 1, 1)
		for i := range dst {
			if dst[i] != wide[i+pad] {
				t.Fatalf("pos %g sample %d: clipped %v, unclipped %v", pos, i, dst[i], wide[i+pad])
			}
		}
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { PulseHarmonic(0, 1) })
	mustPanic(t, func() { PulseHarmonic(1, 1) })
	r := rand.New(rand.NewSource(6))
	mustPanic(t, func() {
		p := OU{Sigma: 1, Tau: 0}
		p.Step(1e-6, r)
	})
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

// TestRotatorAccuracy compares the rotation-recurrence oscillator against
// the direct Sincos form over a long capture: the renormalized recurrence
// must track the closed form to well below simulation noise floors.
func TestRotatorAccuracy(t *testing.T) {
	const n = 1 << 17
	phase0 := 0.7371
	delta := 2 * math.Pi * 0.0137 // an irrational-ish fraction of a cycle
	r := NewRotator(phase0, delta)
	var maxErr float64
	for i := 0; i < n; i++ {
		got := r.Next()
		s, c := math.Sincos(phase0 + float64(i)*delta)
		if e := cmplx.Abs(got - complex(c, s)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-9 {
		t.Fatalf("rotator drifted %g from the direct form over %d samples", maxErr, n)
	}
	// Magnitude must stay pinned to 1 by the periodic renormalization.
	if m := cmplx.Abs(r.Next()); math.Abs(m-1) > 1e-12 {
		t.Fatalf("rotator magnitude drifted to %g", m)
	}
}

// TestImpulseKernelMatchesDirectForm verifies the trig-recurrence tap
// generation against the direct per-tap evaluation it replaced.
func TestImpulseKernelMatchesDirectForm(t *testing.T) {
	k := NewImpulseKernel()
	fs := 1e6
	for _, pos := range []float64{40.0, 41.37, 39.5001, 3.2, 60.9} {
		got := make([]complex128, 64)
		k.Add(got, pos, complex(2.5e-9, -1e-9), fs)
		want := make([]complex128, 64)
		amp := complex(2.5e-9, -1e-9) * complex(fs, 0)
		center := int(math.Round(pos))
		for i := center - 8; i <= center+8; i++ {
			if i < 0 || i >= len(want) {
				continue
			}
			x := float64(i) - pos
			w := 0.54 + 0.46*math.Cos(math.Pi*x/9)
			want[i] += amp * complex(sinc(x)*w, 0)
		}
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-12*cmplx.Abs(amp) {
				t.Fatalf("pos %g tap %d: got %v want %v", pos, i, got[i], want[i])
			}
		}
	}
}

// tapTol is AddTrain's accuracy contract: every tap within 1e-7 of the
// exact kernel, whose peak is 1.
const tapTol = 1e-7

// randomTrain draws a pulse train over an n-sample window, its positions
// spread past both edges so the clipped tap path runs.
func randomTrain(r *rand.Rand) (n int, pos, tk, amp []float64, omega float64) {
	n = 64 + r.Intn(512)
	pulses := 1 + r.Intn(200)
	omega = -2 * math.Pi * (100e3 + 1e6*r.Float64())
	pos = make([]float64, pulses)
	tk = make([]float64, pulses)
	amp = make([]float64, pulses)
	for p := range pos {
		pos[p] = -12 + r.Float64()*(float64(n)+24)
		tk[p] = r.Float64() * 1e-2
		amp[p] = r.NormFloat64() * 1e-9
	}
	return n, pos, tk, amp, omega
}

// TestImpulseKernelAddTrainMatchesAdd holds the polyphase table to the
// exact kernel: AddTrain must match computing each pulse's downconversion
// phasor with math.Sincos and depositing it with the trig-recurrence Add,
// in pulse order, within tapTol·|amp·fs| per tap. It checks random
// trains, pulses clipped at both edges included, then single pulses tap
// by tap at 10⁵ random offsets, at every table node and at offsets of
// exactly ±½.
func TestImpulseKernelAddTrainMatchesAdd(t *testing.T) {
	k := NewImpulseKernel()
	r := rand.New(rand.NewSource(99))
	fs := 1.6384e6
	for trial := 0; trial < 50; trial++ {
		n, pos, tk, amp, omega := randomTrain(r)
		got := make([]complex128, n)
		k.AddTrain(got, pos, tk, amp, omega, fs)
		want := make([]complex128, n)
		// bound[i] sums the tolerance of every pulse reaching sample i.
		bound := make([]float64, n)
		for p := range pos {
			s, c := math.Sincos(omega * tk[p])
			k.Add(want, pos[p], complex(amp[p]*c, amp[p]*s), fs)
			center := int(math.Round(pos[p]))
			for i := max(center-8, 0); i <= min(center+8, n-1); i++ {
				bound[i] += tapTol * math.Abs(amp[p]) * fs
			}
		}
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > bound[i] {
				t.Fatalf("trial %d sample %d: got %v want %v, error %g > %g", trial, i, got[i], want[i], e, bound[i])
			}
		}
	}

	var offsets []float64
	for i := 0; i < 100000; i++ {
		offsets = append(offsets, r.Float64()-0.5)
	}
	for i := 0; i <= kernelPhases; i++ {
		offsets = append(offsets, float64(i)/kernelPhases-0.5)
	}
	got := make([]complex128, 48)
	want := make([]complex128, 48)
	worst := 0.0
	tapError := func(pos float64) {
		clear(got)
		clear(want)
		deposit(k, got, pos, 1, 1)
		k.Add(want, pos, 1, 1)
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > tapTol {
				t.Fatalf("pos %v sample %d: got %v want %v, error %g", pos, i, got[i], want[i], e)
			} else {
				worst = math.Max(worst, e)
			}
		}
	}
	for _, d := range offsets {
		tapError(20 + d)
	}
	// math.Round rounds half away from zero, so an offset of +½ occurs
	// only at negative half-integers, whose pulses clip at the left edge.
	for _, pos := range []float64{19.5, 0.5, -0.5, -3.5, 47.5} {
		tapError(pos)
	}
	t.Logf("worst tap error %.3g over %d offsets", worst, len(offsets)+5)
}

// Package sig provides the signal-generation primitives the EM emanation
// simulator is built from: phase-noise processes for non-ideal oscillators,
// rectangular pulse-train Fourier coefficients, and spread-spectrum sweep
// profiles.
//
// The paper's §2.1 develops exactly these ingredients: digital clocks are
// pulse trains whose harmonics' amplitudes depend on duty cycle; RC
// oscillators (switching regulators) have Gaussian-looking frequency
// wander; spread-spectrum clocks sweep their frequency periodically.
package sig

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// OU is an Ornstein-Uhlenbeck process, the standard model for oscillator
// frequency wander (jitter/phase noise): mean-reverting with stationary
// standard deviation Sigma and correlation time Tau.
type OU struct {
	Sigma float64 // stationary RMS value
	Tau   float64 // correlation time in seconds
	x     float64
	// Cached discretization coefficients for the last step size. Renderers
	// step with a constant dt (the sample period), so the exp/sqrt of the
	// exact OU discretization is paid once per capture, not once per
	// sample. The cached values are the same expressions Step evaluated
	// inline before, so the process trajectory is unchanged bit for bit.
	cdt, ca, cnoise float64
}

// Init draws the state from the stationary distribution so captures start
// in steady state rather than at zero wander.
func (p *OU) Init(r *rand.Rand) {
	p.x = p.Sigma * r.NormFloat64()
}

// Step advances the process by dt seconds and returns the new value.
func (p *OU) Step(dt float64, r *rand.Rand) float64 {
	if p.Sigma == 0 {
		return 0
	}
	if p.Tau <= 0 {
		panic(fmt.Sprintf("sig: OU tau must be positive, got %g", p.Tau))
	}
	if dt != p.cdt {
		_, p.ca, p.cnoise = p.Discretize(dt)
		p.cdt = dt
	}
	p.x = p.ca*p.x + p.cnoise*r.NormFloat64()
	return p.x
}

// Discretize returns the process's current value x and the coefficients
// of the exact discretization of the OU SDE for steps of dt,
// x ← a·x + noise·N(0, 1), which Step applies. A renderer that steps the
// process once per sample at one dt keeps x itself and inlines that
// update (Step, with its checks and cache, is too large to inline) for
// the same trajectory bit for bit, drawing the same NormFloat64 per step.
// A process with Sigma == 0 never moves and Step draws nothing for it, so
// callers skip the update.
func (p *OU) Discretize(dt float64) (x, a, noise float64) {
	if p.Tau <= 0 {
		panic(fmt.Sprintf("sig: OU tau must be positive, got %g", p.Tau))
	}
	a = math.Exp(-dt / p.Tau)
	return p.x, a, p.Sigma * math.Sqrt(1-a*a)
}

// Oscillator is a phase accumulator with optional OU frequency wander.
// It produces the *offset* phase relative to a chosen reference frequency,
// which is how complex-baseband renderers consume it.
type Oscillator struct {
	F0     float64 // nominal frequency, Hz
	Wander OU      // frequency wander about F0 (Sigma = 0 for crystal)
	phase  float64
}

// Start randomizes the initial phase and seeds the wander process. Call
// once per capture.
func (o *Oscillator) Start(r *rand.Rand) {
	o.phase = 2 * math.Pi * r.Float64()
	o.Wander.Init(r)
}

// Step advances the oscillator's offset phase 2π·(F0−fref)·t + ∫wander by
// dt against the reference frequency fref. It returns nothing: read
// Phase() before the first Step for sample 0, and after each Step for the
// next sample.
func (o *Oscillator) Step(dt, fref float64, r *rand.Rand) {
	f := o.F0 - fref + o.Wander.Step(dt, r)
	o.phase += 2 * math.Pi * f * dt
}

// Phase returns the current offset phase in radians.
func (o *Oscillator) Phase() float64 { return o.phase }

// RotatorRenorm is the renormalization period of phasor-rotation
// oscillators: after this many one-multiply steps the phasor magnitude is
// reset to 1. Each complex multiply perturbs the magnitude by O(ε) so the
// drift between renormalizations is bounded by ~RotatorRenorm·ε ≈ 6e-14,
// far below simulation noise floors.
const RotatorRenorm = 256

// Rotator synthesizes the complex exponential e^{i(φ0 + k·Δ)} sample by
// sample using the rotation recurrence z ← z·e^{iΔ}: one complex multiply
// per sample instead of a Sincos call, with periodic renormalization to
// bound magnitude drift. It is the workhorse for fixed-frequency carrier
// and audio-tone synthesis in the renderers.
type Rotator struct {
	z, step complex128
	k       int
}

// NewRotator creates a rotator starting at phase phase0 (radians) that
// advances by delta radians per step.
func NewRotator(phase0, delta float64) Rotator {
	s0, c0 := math.Sincos(phase0)
	s1, c1 := math.Sincos(delta)
	return Rotator{z: complex(c0, s0), step: complex(c1, s1)}
}

// Next returns the current phasor and advances one step.
func (r *Rotator) Next() complex128 {
	v := r.z
	r.z *= r.step
	if r.k++; r.k >= RotatorRenorm {
		r.k = 0
		r.z = Renormalize(r.z)
	}
	return v
}

// Next4 returns the current phasor and the next three, advancing four
// steps with a single renormalization check. The four values and the
// post-call rotator state are bit-identical to four consecutive Next
// calls provided the step counter is a multiple of 4 (true for rotators
// advanced only in batches of 4, since RotatorRenorm is too): the renorm
// boundary then always coincides with a batch boundary. Renderers unroll
// their per-sample loops around it to keep the phasor in registers.
func (r *Rotator) Next4() (v0, v1, v2, v3 complex128) {
	v0 = r.z
	v1 = v0 * r.step
	v2 = v1 * r.step
	v3 = v2 * r.step
	r.z = v3 * r.step
	if r.k += 4; r.k >= RotatorRenorm {
		r.k = 0
		r.z = Renormalize(r.z)
	}
	return
}

// smallAngle is the largest |x| SmallSincos evaluates by polynomial; larger
// arguments (and NaN, ±Inf, ±0) go to math.Sincos.
const smallAngle = 1.0 / 32

// Taylor coefficients of SmallSincos, as compile-time reciprocals.
const (
	sinC1, sinC2, sinC3, sinC4 = -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880
	cosC2, cosC3, cosC4        = 1.0 / 24, -1.0 / 720, 1.0 / 40320
)

// SmallSincos returns sin(x) and cos(x) for the small per-sample rotation
// angles of oscillator wander and duty updates (|x| ≈ 1e-3 rad), where the
// argument reduction and degree-6 polynomials of math.Sincos are wasted
// work. For |x| ≤ smallAngle it evaluates the Taylor series by Horner's
// rule, within 1 ulp of math.Sincos (the truncated terms are below 0.03
// ulp there); every other argument returns math.Sincos(x) exactly, so NaN
// and ±Inf propagate as they do there. Zero also falls back, which keeps
// the sign of sin(−0).
func SmallSincos(x float64) (sin, cos float64) {
	if a := math.Abs(x); !(a <= smallAngle) || a == 0 {
		return math.Sincos(x)
	}
	z := x * x
	sin = x + x*z*(((sinC4*z+sinC3)*z+sinC2)*z+sinC1)
	cos = 1 - 0.5*z + z*z*((cosC4*z+cosC3)*z+cosC2)
	return sin, cos
}

// Renormalize rescales a unit phasor back to magnitude 1, undoing the
// rounding drift accumulated by repeated rotation multiplies.
func Renormalize(z complex128) complex128 {
	m := math.Sqrt(real(z)*real(z) + imag(z)*imag(z))
	return complex(real(z)/m, imag(z)/m)
}

// PowChain fills dst[j] = w^ns[j] for an ascending list of positive
// harmonic numbers ns. Consecutive harmonics cost one multiply per unit of
// spacing; large gaps (sparse high harmonics) fall back to binary
// exponentiation. Comb renderers call this once per sample with the shared
// per-sample rotation (frequency wander or sweep offset) to advance every
// harmonic's phasor without per-harmonic trig.
func PowChain(dst []complex128, ns []int, w complex128) {
	cur := complex(1, 0)
	m := 0
	for j, n := range ns {
		d := n - m
		if d < 8 {
			for ; d > 0; d-- {
				cur *= w
			}
		} else {
			cur *= Ipow(w, d)
		}
		m = n
		dst[j] = cur
	}
}

// Ipow computes w^e by binary exponentiation. It is the gap fallback of
// PowChain, exported so renderers that fuse the power chain into their
// accumulation loop (avoiding the wpow round trip through memory) produce
// the exact same sequence of multiplies, and therefore the exact same
// bits, as a PowChain pass followed by a separate loop. The switching
// regulator also raises its duty and wander rotations to its first
// in-band harmonic with it.
func Ipow(w complex128, e int) complex128 {
	r := complex(1, 0)
	for e > 0 {
		if e&1 == 1 {
			r *= w
		}
		w *= w
		e >>= 1
	}
	return r
}

// PulseHarmonic returns the complex Fourier-series coefficient c_n of a
// unit-amplitude rectangular pulse train with the given duty cycle
// (0 < duty < 1), with the pulse starting at t=0:
//
//	c_n = duty · sinc(n·duty) · exp(−iπ·n·duty),  c_0 = duty.
//
// Properties the paper relies on (§2.1): at 50% duty, even harmonics
// vanish; for small duty the first harmonics have nearly equal magnitude;
// every harmonic's magnitude depends on duty, so duty-cycle (pulse-width)
// modulation amplitude-modulates all harmonics at once.
func PulseHarmonic(duty float64, n int) complex128 {
	if duty <= 0 || duty >= 1 {
		panic(fmt.Sprintf("sig: duty %g out of (0, 1)", duty))
	}
	if n < 0 {
		n = -n
	}
	if n == 0 {
		return complex(duty, 0)
	}
	x := float64(n) * duty
	mag := duty * sinc(x)
	return complex(mag, 0) * cmplx.Exp(complex(0, -math.Pi*x))
}

// sinc is the normalized sinc function sin(πx)/(πx).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// SweepProfile is the instantaneous frequency offset profile of a
// spread-spectrum clock, as a function of phase within the sweep period
// (u in [0, 1)). Implementations return an offset in [-1, 1] that is
// scaled by half the peak-to-peak spread.
type SweepProfile interface {
	Offset(u float64) float64
	String() string
}

// TriangleSweep is the linear up/down sweep commonly used by SSC
// generators ("swept back and forth", §4.3). Uniform dwell density with
// turnaround points at the extremes.
type TriangleSweep struct{}

// Offset maps u ∈ [0,1) to a triangle in [-1, 1].
func (TriangleSweep) Offset(u float64) float64 {
	u = u - math.Floor(u)
	if u < 0.5 {
		return 4*u - 1
	}
	return 3 - 4*u
}

func (TriangleSweep) String() string { return "triangle" }

// SineSweep dwells longest at the extremes, producing the pronounced
// "horns" at the edges of the spread spectrum.
type SineSweep struct{}

// Offset maps u ∈ [0,1) to sin(2πu).
func (SineSweep) Offset(u float64) float64 { return math.Sin(2 * math.Pi * u) }

func (SineSweep) String() string { return "sine" }

// SSC tracks the phase of a spread-spectrum clock: nominal frequency F0,
// peak-to-peak spread SpreadHz applied as a down-spread (the swept
// frequency stays in [F0−SpreadHz, F0]), sweeping at RateHz with the given
// profile.
type SSC struct {
	F0       float64
	SpreadHz float64
	RateHz   float64
	Profile  SweepProfile
	phase    float64 // accumulated offset phase
	u        float64 // position within sweep period
}

// Start randomizes the initial carrier phase and sweep position.
func (s *SSC) Start(r *rand.Rand) {
	s.phase = 2 * math.Pi * r.Float64()
	s.u = r.Float64()
}

// Freq returns the current instantaneous frequency.
func (s *SSC) Freq() float64 {
	if s.Profile == nil || s.SpreadHz == 0 {
		return s.F0
	}
	// Down-spread: center at F0 − Spread/2, swinging ±Spread/2.
	return s.F0 - s.SpreadHz/2 + s.SpreadHz/2*s.Profile.Offset(s.u)
}

// Step advances by dt against reference frequency fref.
func (s *SSC) Step(dt, fref float64) {
	s.phase += 2 * math.Pi * (s.Freq() - fref) * dt
	s.u += s.RateHz * dt
	if s.u >= 1 {
		s.u -= math.Floor(s.u)
	}
}

// Phase returns the accumulated offset phase.
func (s *SSC) Phase() float64 { return s.phase }

// kernelPhases is P, the number of table intervals ImpulseKernel spans
// across one sample of fractional offset: its rows sit 1/P apart over the
// offsets [−½, ½], with one guard row beyond each end so every interval
// has the four rows its Lagrange blend reads.
const kernelPhases = 64

// ImpulseKernel is a Hamming-windowed band-limited interpolation kernel
// used to place sub-sample-accurate impulses (e.g. DRAM refresh pulses much
// narrower than a sample period) into a sampled baseband stream.
//
// An impulse at continuous sample position pos deposits the taps
// k(x) = sinc(x)·(0.54 + 0.46·cos(πx/(h+1))), x = i − pos, on the 2h+1
// samples i around round(pos), h = halfTaps. The taps depend only on the
// fractional offset d = pos − round(pos) ∈ [−½, ½], so the kernel keeps
// them in a polyphase table: row r holds all 2h+1 taps at
// d = (r−1)/P − ½, for r = 0…P+2 (P = 64). For h = 8 that is 67 rows of
// 17 float64s, 9.1 KB, built once by NewImpulseKernel; a pulse's taps are
// the 4-point Lagrange blend of the four rows around its offset, within
// 3e-8 of the exact kernel, whose peak is 1 (the tests bound it at 1e-7).
type ImpulseKernel struct {
	halfTaps int
	// table holds the taps row by row, 2·halfTaps+1 per row.
	table []float64
}

// NewImpulseKernel creates a kernel with the given half-width in samples
// (total support 2·halfTaps+1). 8 is a good default.
func NewImpulseKernel(halfTaps int) *ImpulseKernel {
	if halfTaps < 1 {
		panic(fmt.Sprintf("sig: impulse kernel half-width must be >= 1, got %d", halfTaps))
	}
	n := 2*halfTaps + 1
	table := make([]float64, (kernelPhases+3)*n)
	for r := 0; r < kernelPhases+3; r++ {
		d := float64(r-1)/kernelPhases - 0.5
		for j := 0; j < n; j++ {
			x := float64(j-halfTaps) - d
			table[r*n+j] = sinc(x) * (0.54 + 0.46*math.Cos(math.Pi*x/float64(halfTaps+1)))
		}
	}
	return &ImpulseKernel{halfTaps: halfTaps, table: table}
}

// AddTrain deposits a batch of downconverted impulses: for each pulse p
// it computes the carrier phasor at the pulse time, area_p =
// amp[p]·e^{i·omega·t[p]} (in units of value·seconds), and deposits it at
// continuous sample position pos[p] into dst, sampled at rate fs.
// Positions outside dst are clipped sample-by-sample; a pulse more than
// halfTaps+1 samples outside dst, which reaches no sample, is skipped.
// Pulses deposit in order, and each pulse's arithmetic is independent of
// its batch, so splitting a train into consecutive batches changes
// nothing.
//
// A pulse costs one math.Round, one math.Sincos for its downconversion
// phasor and a table blend: its 4-point Lagrange weights come from its
// position within the table interval, and each tap is the weighted sum of
// the four table rows around it, deposited as complex(ar·v, ai·v). No tap
// loop calls trig or divides. Each tap is within 1e-7·|amp·fs| of the
// exact windowed sinc, which the package tests evaluate per pulse by trig
// recurrence; interior pulses run over a bounds-check-free subslice.
func (k *ImpulseKernel) AddTrain(dst []complex128, pos, t, amp []float64, omega, fs float64) {
	if len(pos) != len(t) || len(pos) != len(amp) {
		panic(fmt.Sprintf("sig: AddTrain with %d positions, %d times, %d amplitudes",
			len(pos), len(t), len(amp)))
	}
	h := k.halfTaps
	n := 2*h + 1
	tab := k.table
	// Skipping pulses beyond these bounds also keeps int(c) in range.
	minPos, maxPos := -float64(h)-1, float64(len(dst)+h)
	for p, ps := range pos {
		if !(ps > minPos && ps < maxPos) {
			continue
		}
		c := math.Round(ps)
		center := int(c)
		// ph is the offset ps − c ∈ [−½, ½] in table intervals from −½; an
		// offset of exactly +½ ends the last interval (tt = 1).
		ph := (ps - c + 0.5) * kernelPhases
		r := min(int(ph), kernelPhases-1)
		tt := ph - float64(r)
		// Lagrange weights of rows r…r+3, the nodes at tt = −1, 0, 1, 2.
		tp1, tm1, tm2 := tt+1, tt-1, tt-2
		w0 := -tt * tm1 * tm2 * (1.0 / 6)
		w1 := tp1 * tm1 * tm2 * 0.5
		w2 := -tp1 * tt * tm2 * 0.5
		w3 := tp1 * tt * tm1 * (1.0 / 6)
		rows := tab[r*n : (r+4)*n]
		t0, t1, t2, t3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
		osn, osc := math.Sincos(omega * t[p])
		a := amp[p] * fs
		ar, ai := a*osc, a*osn
		lo := center - h
		if lo >= 0 && center+h < len(dst) {
			// Interior impulse: re-slicing every row to the segment's length
			// lets the compiler drop the per-tap bounds checks.
			seg := dst[lo : lo+n]
			t0, t1, t2, t3 = t0[:len(seg)], t1[:len(seg)], t2[:len(seg)], t3[:len(seg)]
			for j := range seg {
				v := w0*t0[j] + w1*t1[j] + w2*t2[j] + w3*t3[j]
				seg[j] += complex(ar*v, ai*v)
			}
			continue
		}
		for j := range t0 {
			if i := lo + j; i >= 0 && i < len(dst) {
				v := w0*t0[j] + w1*t1[j] + w2*t2[j] + w3*t3[j]
				dst[i] += complex(ar*v, ai*v)
			}
		}
	}
}

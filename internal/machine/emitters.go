// Package machine models the EM-emitting components of a computer system:
// switching voltage regulators, DRAM refresh, and (spread-spectrum)
// clocks — the three signal classes the paper discovers (§4) — plus the
// thousands of periodic-but-unmodulated system signals FASE must reject.
//
// Each emitter implements emsim.Emitter, contributing complex-baseband
// signal to captures and exposing ground truth (carrier frequencies, the
// power domain that modulates it) for validating FASE's output.
package machine

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"fase/internal/activity"
	"fase/internal/dsp/filter"
	"fase/internal/emsim"
	"fase/internal/sig"
)

// combScratch holds the per-render working set of a harmonic-comb
// synthesis (phasors, power chains, amplitudes; the switching regulator
// keeps its line coefficients in z). A scene renders dozens of comb
// emitters per capture, so this state is pooled to keep steady-state
// rendering allocation-free.
type combScratch struct {
	z, wpow []complex128
	amp     []float64
}

var combPool = sync.Pool{New: func() any { return new(combScratch) }}

// grow sizes the phasor slices to k harmonics, reusing capacity.
func (cs *combScratch) grow(k int) {
	if cap(cs.z) < k {
		cs.z = make([]complex128, k)
		cs.wpow = make([]complex128, k)
		cs.amp = make([]float64, k)
	}
	cs.z = cs.z[:k]
	cs.wpow = cs.wpow[:k]
	cs.amp = cs.amp[:k]
}

// combPrep is the per-segment state of a harmonic-comb emitter under a
// render plan: the in-band harmonic numbers and each harmonic's static
// per-sample rotation (the nominal comb-line offset from the band center).
// Both depend only on the capture geometry. Read-only once built — one
// prep serves concurrent captures.
type combPrep struct {
	ns         []int
	stepStatic []complex128
}

// prepComb builds the comb prep for harmonics n = first, first+stride, …
// up to maxN of fundamental f0 that land in the band.
func prepComb(band emsim.Band, f0 float64, maxN, first, stride int) *combPrep {
	p := &combPrep{}
	for n := first; n <= maxN; n += stride {
		if band.Contains(float64(n) * f0) {
			p.ns = append(p.ns, n)
		}
	}
	dt := 1 / band.SampleRate
	p.stepStatic = make([]complex128, len(p.ns))
	for k, n := range p.ns {
		s, c := math.Sincos(2 * math.Pi * (float64(n)*f0 - band.Center) * dt)
		p.stepStatic[k] = complex(c, s)
	}
	return p
}

// lineExtent is the extent of a comb of lines at n·f0 for
// n = first, first+stride, … maxN.
func lineExtent(f0 float64, maxN, first, stride int) emsim.Extent {
	var spans []emsim.Span
	for n := first; n <= maxN; n += stride {
		f := float64(n) * f0
		spans = append(spans, emsim.Span{Lo: f, Hi: f})
	}
	return emsim.Extent{Spans: spans}
}

// renderFixedComb accumulates a fixed-amplitude harmonic comb — the
// crystal-clock inner loop — into dst, harmonic-major: groups of up to
// four phasors advance across sample tiles with their state held in
// registers, instead of every phasor making a memory round trip per
// sample. Output is bit-identical to the sample-major loop it replaces:
// per sample, the addends still join dst[i]'s accumulation chain in
// ascending-harmonic order (group passes store partial chains that the
// next pass extends — float addition is applied in the same left-to-right
// order), and each phasor sees the same multiply sequence with
// renormalization at the same global sample positions, because the tile
// length is a multiple of the renorm period and tiles start aligned.
func renderFixedComb(dst []complex128, z, step []complex128, amp []float64) {
	const tile = 4 * sig.RotatorRenorm
	n := len(dst)
	for t0 := 0; t0 < n; t0 += tile {
		t1 := t0 + tile
		if t1 > n {
			t1 = n
		}
		seg := dst[t0:t1]
		k := 0
		for ; k+4 <= len(z); k += 4 {
			z0, z1, z2, z3 := z[k], z[k+1], z[k+2], z[k+3]
			s0, s1, s2, s3 := step[k], step[k+1], step[k+2], step[k+3]
			a0, a1, a2, a3 := amp[k], amp[k+1], amp[k+2], amp[k+3]
			rn := 0
			for i := range seg {
				acc := seg[i]
				acc += complex(a0*real(z0), a0*imag(z0))
				z0 *= s0
				acc += complex(a1*real(z1), a1*imag(z1))
				z1 *= s1
				acc += complex(a2*real(z2), a2*imag(z2))
				z2 *= s2
				acc += complex(a3*real(z3), a3*imag(z3))
				z3 *= s3
				seg[i] = acc
				if rn++; rn >= sig.RotatorRenorm {
					rn = 0
					z0 = sig.Renormalize(z0)
					z1 = sig.Renormalize(z1)
					z2 = sig.Renormalize(z2)
					z3 = sig.Renormalize(z3)
				}
			}
			z[k], z[k+1], z[k+2], z[k+3] = z0, z1, z2, z3
		}
		for ; k < len(z); k++ {
			zk, sk, ak := z[k], step[k], amp[k]
			rn := 0
			for i := range seg {
				seg[i] += complex(ak*real(zk), ak*imag(zk))
				zk *= sk
				if rn++; rn >= sig.RotatorRenorm {
					rn = 0
					zk = sig.Renormalize(zk)
				}
			}
			z[k] = zk
		}
	}
}

// impulseKernel8 is the shared band-limited interpolation kernel for
// impulse-train emitters. An ImpulseKernel is immutable after
// construction, so one instance serves all captures concurrently —
// previously each render rebuilt it.
var impulseKernel8 = sig.NewImpulseKernel(8)

// refreshScratch holds the per-render working set of RefreshEmitter: the
// rank coupling weights and, for the blocked renderer, the surviving
// pulses' positions, issue times, and real areas. Pooled so steady-state
// refresh rendering allocates nothing (the weights slice alone used to
// cost one heap allocation per capture).
type refreshScratch struct {
	weights []float64
	pos, tk []float64
	qw      []float64
}

var refreshPool = sync.Pool{New: func() any { return new(refreshScratch) }}

// growWeights sizes the weights slice to ranks, reusing capacity.
func (sc *refreshScratch) growWeights(ranks int) []float64 {
	if cap(sc.weights) < ranks {
		sc.weights = make([]float64, ranks)
	}
	sc.weights = sc.weights[:ranks]
	return sc.weights
}

// nearFieldGainDB is the near-field probe's gain on system emitters. It
// is a float constant: an untyped 30 would make nearFieldGainDB/20
// integer division.
const nearFieldGainDB = 30.0

// nearGain converts the context's near-field probe setting into a linear
// amplitude factor for system emitters.
func nearGain(ctx *emsim.Context) float64 {
	if !ctx.NearField {
		return 1
	}
	return math.Pow(10, nearFieldGainDB/20)
}

// wrapPhase keeps a phase accumulator in [-π, π] to preserve precision
// over long captures.
func wrapPhase(p float64) float64 {
	if p > math.Pi {
		p -= 2 * math.Pi * math.Floor((p+math.Pi)/(2*math.Pi))
	} else if p < -math.Pi {
		p += 2 * math.Pi * math.Floor((math.Pi-p)/(2*math.Pi))
	}
	return p
}

// SwitchingRegulator models a buck converter: a rectangular pulse train at
// the switching frequency FSw whose duty cycle tracks the load current of
// the domain it powers. Changing the duty cycle changes the amplitude of
// every harmonic (§4.1), so load alternation AM-modulates the whole
// harmonic comb. The switching oscillator is an RC type with OU frequency
// wander, giving the carrier its Gaussian-looking spread (Fig. 12).
type SwitchingRegulator struct {
	Label string
	// FSw is the nominal switching frequency (usually 200–500 kHz).
	FSw float64
	// BaseDuty is the idle duty cycle (≈ Vout/Vin, e.g. 1V/12V ≈ 0.083).
	BaseDuty float64
	// DutySwing is the duty increase at full load of the domain.
	DutySwing float64
	// AmpSwing is the relative increase of the switching-current
	// amplitude at full load. Buck converters switch the inductor
	// current, which tracks the load; this term dominates the AM for
	// regulators operating near 50% duty, where the harmonic amplitudes
	// are insensitive to duty (d·sinc(n·d) is flat there). Zero for
	// board regulators whose small duty makes the duty term dominate.
	AmpSwing float64
	// FundamentalDBm is the received power of the n=1 line at BaseDuty.
	FundamentalDBm float64
	// MaxHarmonics bounds the rendered comb.
	MaxHarmonics int
	// WanderSigma/WanderTau parameterize the RC oscillator's frequency
	// wander (Hz RMS / correlation time).
	WanderSigma, WanderTau float64
	// LoopBw is the voltage control loop bandwidth; duty responds to load
	// changes through a one-pole filter of this bandwidth.
	LoopBw float64
	// Dom is the power domain whose load modulates the duty cycle.
	Dom activity.Domain
}

// Name implements emsim.Component.
func (g *SwitchingRegulator) Name() string { return g.Label }

// Domain implements emsim.Emitter.
func (g *SwitchingRegulator) Domain() activity.Domain { return g.Dom }

// AMModulated implements emsim.Emitter.
func (g *SwitchingRegulator) AMModulated() bool { return true }

// Carriers implements emsim.Emitter: harmonics of FSw within [f1, f2].
func (g *SwitchingRegulator) Carriers(f1, f2 float64) []float64 {
	return harmonicsIn(g.FSw, g.MaxHarmonics, f1, f2)
}

// BandExtent implements emsim.Extenter: lines at every harmonic of FSw,
// the same frequencies Render's in-band scan tests. (The OU wander spreads
// each line by a few hundred Hz at most, far inside a capture band.)
func (g *SwitchingRegulator) BandExtent() emsim.Extent {
	return lineExtent(g.FSw, g.MaxHarmonics, 1, 1)
}

// regulatorPrep is a switching regulator's per-segment state: the comb
// prep (its in-band harmonics and their static rotations), 1/(2π·n) for
// each in-band line, and the fundamental's static step e^{i2π·FSw·dt}.
// The in-band harmonics are one run n₀…n₀+K−1, since a band is one
// interval and the regulator's lines are every multiple of FSw: Render
// evaluates the comb as a polynomial in the fundamental phasor, which
// needs consecutive powers.
type regulatorPrep struct {
	*combPrep
	inv2pn []float64
	fstep  complex128
}

// Prepare implements emsim.Prepper: the regulator's prep, shared by all
// captures of a segment.
func (g *SwitchingRegulator) Prepare(band emsim.Band, _ int) any {
	p := &regulatorPrep{combPrep: prepComb(band, g.FSw, g.MaxHarmonics, 1, 1)}
	p.inv2pn = make([]float64, len(p.ns))
	for k, n := range p.ns {
		if n != p.ns[0]+k {
			panic(fmt.Sprintf("machine: regulator %q in-band harmonics %v are not consecutive", g.Label, p.ns))
		}
		p.inv2pn[k] = 1 / (2 * math.Pi * float64(n))
	}
	dt := 1 / band.SampleRate
	s, c := math.Sincos(2 * math.Pi * g.FSw * dt)
	p.fstep = complex(c, s)
	return p
}

func harmonicsIn(f0 float64, maxN int, f1, f2 float64) []float64 {
	var out []float64
	for n := 1; n <= maxN; n++ {
		f := float64(n) * f0
		if f >= f1 && f <= f2 {
			out = append(out, f)
		}
	}
	return out
}

// dutyPhasor tracks a regulator's duty phasor e^{−iπd} across duty
// updates without a full Sincos per update: each update rotates it by the
// small step e^{−iπ(d−d₀)} (sig.SmallSincos), and every
// sig.RotatorRenorm-th update, the first included, re-anchors it with an
// exact math.Sincos, bounding the recurrence's drift the way
// renormalization bounds a rotator's. The production render and the
// per-sample test oracle both step it, once per duty change, so they agree
// bit for bit.
type dutyPhasor struct {
	z       complex128
	d       float64
	updates int
}

// set moves the phasor to duty d and returns e^{−iπd}.
func (p *dutyPhasor) set(d float64) complex128 {
	if p.updates%sig.RotatorRenorm == 0 {
		s, c := math.Sincos(-math.Pi * d)
		p.z = complex(c, s)
	} else {
		s, c := sig.SmallSincos(-math.Pi * (d - p.d))
		p.z *= complex(c, s)
	}
	p.updates++
	p.d = d
	return p.z
}

// lineCoeffs sets c[k] to scale times the Fourier coefficient of line
// n = n0+k of a duty-d pulse train, d·sinc(n·d)·e^{−iπnd} =
// (1 − qⁿ)/(2πi·n) with q = e^{−2πid}, from the duty phasor h = e^{−iπd}
// and inv2pn[k] = 1/(2π·n). With p = hⁿ, so qⁿ = p², 1 − qⁿ = p·(p̄ − p) =
// −2i·imag(p)·p, which evaluates without the cancellation 1 − qⁿ suffers
// when n·d is small: a line costs one complex multiply of the power chain
// and a real scale, and no division.
func lineCoeffs(c []complex128, h complex128, n0 int, scale float64, inv2pn []float64) {
	p := h
	if n0 > 1 {
		p = sig.Ipow(h, n0)
	}
	m := -2 * scale
	inv2pn = inv2pn[:len(c)]
	for k := range c {
		if k > 0 {
			p *= h
		}
		s := m * inv2pn[k] * imag(p)
		c[k] = complex(s*real(p), s*imag(p))
	}
}

// Render implements emsim.Component. The regulator's in-band lines
// n₀…n₀+K−1 share one oscillator, so with U the fundamental's phasor
// (wander included) and C the band-centre rotation, line n's phasor is
// C·Uⁿ and the comb is Y·Σₖ cₖ·Uᵏ, Y = C·U^{n₀}: one Horner polynomial in
// U per sample, with the duty and amplitude folded into the K line
// coefficients cₖ (lineCoeffs). U steps by e^{i2π·FSw·dt}·w and Y by its
// line's static rotation times w^{n₀}, w being the sample's wander
// rotation, and both are renormalized every sig.RotatorRenorm samples.
//
// The activity trace is piecewise constant, so the render iterates its
// constant-load runs (emsim.Context.DomainRuns) instead of walking a
// cursor sample by sample: within a run the one-pole control loop is
// stepped per sample only until its output repeats bitwise (its fixpoint
// for the run's load — further steps are idempotent, so skipping them is
// exact), after which the coefficients stay frozen for the rest of the
// run. They are recomputed only when the duty or amplitude moves.
// Bit-identical to a per-sample walk of the trace (the reference the
// equivalence tests hold this path to): run loads are exactly the
// per-sample cursor loads, the loop filter, duty phasor, and wander state
// evolve through the same operations, and renormalization hits the same
// global sample positions.
func (g *SwitchingRegulator) Render(dst []complex128, ctx *emsim.Context) {
	if g.MaxHarmonics <= 0 || g.FSw <= 0 {
		panic(fmt.Sprintf("machine: regulator %q misconfigured", g.Label))
	}
	pre := ctx.Prep.(*regulatorPrep)
	ns := pre.ns
	if len(ns) == 0 {
		return
	}
	cs := combPool.Get().(*combScratch)
	defer combPool.Put(cs)
	r := ctx.Rand
	dt := ctx.Dt()
	fs := ctx.Band.SampleRate
	c1 := cmplx.Abs(sig.PulseHarmonic(g.BaseDuty, 1))
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) / c1 * nearGain(ctx)

	wander := sig.OU{Sigma: g.WanderSigma, Tau: g.WanderTau}
	wander.Init(r)
	wanders := g.WanderSigma != 0
	var x, wa, wnoise float64
	if wanders {
		x, wa, wnoise = wander.Discretize(dt)
	}
	bw := g.LoopBw
	if bw > 0.4*fs {
		bw = 0.4 * fs
	}
	loop := filter.NewOnePole(bw, fs)

	base := 2 * math.Pi * r.Float64()
	n0 := ns[0]
	s, c := math.Sincos(wrapPhase(base))
	u := complex(c, s)
	s, c = math.Sincos(wrapPhase(float64(n0) * base))
	y := complex(c, s)
	cs.grow(len(ns))
	coef := cs.z
	last := len(coef) - 1
	fstep, ystatic := pre.fstep, pre.stepStatic[0]
	runs := ctx.DomainRuns(g.Dom)
	var duty dutyPhasor
	var h complex128
	lastD, lastAmpl := math.NaN(), math.NaN()
	// prevSm tracks the loop filter's previous output across runs: a Step
	// that returns the same bits again has reached its fixpoint for the
	// current input, so the remaining Steps of the run can be skipped.
	prevSm := math.NaN()
	renorm := 0
	for {
		load, i0, i1, ok := runs.Next()
		if !ok {
			break
		}
		settled := false
		for i := i0; i < i1; i++ {
			if !settled {
				sm := loop.Step(load)
				settled = sm == prevSm
				prevSm = sm
				d := g.BaseDuty + g.DutySwing*sm
				ampl := 1 + g.AmpSwing*sm
				if d != lastD || ampl != lastAmpl {
					if d != lastD {
						h = duty.set(d)
					}
					lineCoeffs(coef, h, n0, a0*ampl, pre.inv2pn)
					lastD, lastAmpl = d, ampl
				}
			}
			// A wander-free regulator draws nothing per sample (OU.Step
			// draws nothing for Sigma == 0), and its rotators step by
			// their static rotations alone.
			w := complex(1, 0)
			if wanders {
				x = wa*x + wnoise*r.NormFloat64()
				ws, wc := sig.SmallSincos(2 * math.Pi * x * dt)
				w = complex(wc, ws)
			}
			v := coef[last]
			for k := last - 1; k >= 0; k-- {
				v = v*u + coef[k]
			}
			dst[i] += y * v
			// Only the lines past the first read U.
			if last > 0 {
				u *= fstep * w
			}
			if n0 > 1 {
				w = sig.Ipow(w, n0)
			}
			y *= ystatic * w
			if renorm++; renorm >= sig.RotatorRenorm {
				renorm = 0
				u = sig.Renormalize(u)
				y = sig.Renormalize(y)
			}
		}
	}
}

// CondStatic implements emsim.CondStaticRenderer: the regulator reads the
// activity trace only through its domain's constant-load runs, so under a
// window-constant load the control loop, duty phasor, and line
// coefficients follow the same steps whatever the rest of the trace does.
func (g *SwitchingRegulator) CondStatic(emsim.Band, int) bool { return true }

// ConstantOnTimeRegulator models the AMD laptop's core regulator (§4.4):
// it keeps the switch on for a fixed time each cycle and varies the
// switching *frequency* with load — frequency modulation, not amplitude
// modulation. FASE must correctly not report it. Its oscillator also
// wanders strongly, smearing its spectrum.
type ConstantOnTimeRegulator struct {
	Label string
	// F0 is the idle switching frequency.
	F0 float64
	// FreqSwing is the relative frequency increase at full load (e.g.
	// 0.15 = +15%).
	FreqSwing float64
	// TOn is the fixed on-time per cycle (pulse width).
	TOn float64
	// FundamentalDBm is the received power of the n=1 line at idle.
	FundamentalDBm float64
	// WanderSigma/WanderTau give the (large) frequency wander.
	WanderSigma, WanderTau float64
	// Dom is the modulating domain (the FM source).
	Dom activity.Domain
}

// Name implements emsim.Component.
func (g *ConstantOnTimeRegulator) Name() string { return g.Label }

// Domain implements emsim.Emitter.
func (g *ConstantOnTimeRegulator) Domain() activity.Domain { return g.Dom }

// AMModulated implements emsim.Emitter: false — this emitter is only
// frequency-modulated, the §4.4 negative control.
func (g *ConstantOnTimeRegulator) AMModulated() bool { return false }

// Carriers implements emsim.Emitter. The smeared comb still has nominal
// line positions at multiples of F0.
func (g *ConstantOnTimeRegulator) Carriers(f1, f2 float64) []float64 {
	return harmonicsIn(g.F0, 8, f1, f2)
}

// BandExtent implements emsim.Extenter: the event-driven impulse train is
// wideband (each pulse deposits energy across the whole capture band), so
// the planner never skips it.
func (g *ConstantOnTimeRegulator) BandExtent() emsim.Extent { return emsim.Everywhere() }

// cotBlock is how many pulses ConstantOnTimeRegulator.Render collects
// on the stack before depositing them in one AddTrain call.
const cotBlock = 64

// Render implements emsim.Component: an event-driven pulse train. Each
// switching cycle deposits one band-limited impulse whose area equals
// amplitude·TOn; the cycle period follows the load-dependent frequency.
// Pulses are collected in fixed-size stack blocks and each block is
// downconverted and deposited by sig.ImpulseKernel.AddTrain, in pulse
// order. AddTrain's arithmetic per pulse does not depend on the batch, so
// the output is bit-identical to a one-pulse AddTrain call per pulse (the
// per-pulse oracle the equivalence tests hold this path to).
func (g *ConstantOnTimeRegulator) Render(dst []complex128, ctx *emsim.Context) {
	r := ctx.Rand
	fs := ctx.Band.SampleRate
	// Line amplitude of an f-rate impulse train is q·f; calibrate the
	// impulse area q so the idle fundamental has the configured power.
	q := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) / g.F0 * nearGain(ctx)
	wander := sig.OU{Sigma: g.WanderSigma, Tau: g.WanderTau}
	wander.Init(r)
	cur := ctx.Loads()
	duration := float64(ctx.N) / fs
	pc := -2 * math.Pi * ctx.Band.Center
	var poss, tks, qs [cotBlock]float64
	n := 0
	// Random phase within the first cycle.
	t := ctx.Start - r.Float64()/g.F0
	end := ctx.Start + duration
	for t < end {
		load := g.Dom.Of(cur.At(t))
		f := g.F0*(1+g.FreqSwing*load) + wander.Step(1/g.F0, r)
		if f < g.F0/4 {
			f = g.F0 / 4
		}
		t += 1 / f
		pos := (t - ctx.Start) * fs
		if pos < 0 {
			continue
		}
		poss[n], tks[n], qs[n] = pos, t, q
		if n++; n == cotBlock {
			impulseKernel8.AddTrain(dst, poss[:], tks[:], qs[:], pc, fs)
			n = 0
		}
	}
	impulseKernel8.AddTrain(dst, poss[:n], tks[:n], qs[:n], pc, fs)
}

// RefreshEmitter models DRAM refresh (§4.2): every tREFI (7.8 µs for
// DDR3) the controller issues a refresh command lasting ~200 ns — a
// pulse train with a tiny duty cycle whose harmonics are all of similar
// strength. Ranks are refreshed staggered in time, so the far-field sum
// forms a comb at Ranks/tREFI (512 kHz for 4 ranks) while a near-field
// probe coupled to one rank reveals the underlying 1/tREFI (128 kHz)
// grid — reproducing the paper's localization discovery.
//
// Memory activity *disrupts* refresh timing (the controller postpones
// refreshes to serve demand traffic and catches up later), spreading the
// comb's energy and weakening the lines — which is why this signal gets
// weaker with more memory activity, the paper's most counterintuitive
// finding.
type RefreshEmitter struct {
	Label string
	// TRefi is the average refresh command interval.
	TRefi float64
	// PulseWidth is the refresh command duration (area = amplitude·width).
	PulseWidth float64
	// LineDBm is the far-field power of one comb line (at multiples of
	// Ranks/TRefi) when memory is idle.
	LineDBm float64
	// Ranks is the number of staggered ranks.
	Ranks int
	// NearRankWeights are the per-rank coupling weights in near-field
	// mode (one rank dominating reveals the 1/TRefi comb). In far field
	// all ranks couple equally.
	NearRankWeights []float64
	// DisruptGain is the timing displacement at full DRAM load as a
	// fraction of TRefi.
	DisruptGain float64
	// JitterIdle is the idle timing jitter fraction (crystal-derived
	// timing: tiny).
	JitterIdle float64
	// MaxHarmonics bounds the ground-truth carrier list.
	MaxHarmonics int
	// Dom is the modulating domain (DRAM).
	Dom activity.Domain
	// IntervalDither is the paper's proposed mitigation (§4.2/§6):
	// the controller intentionally randomizes each refresh command's
	// issue time by up to this fraction of tREFI, always — destroying
	// the comb's periodicity (and with it the modulation) while keeping
	// the average interval within the DRAM standard. Zero disables.
	IntervalDither float64
}

// Name implements emsim.Component.
func (g *RefreshEmitter) Name() string { return g.Label }

// Domain implements emsim.Emitter.
func (g *RefreshEmitter) Domain() activity.Domain { return g.Dom }

// AMModulated implements emsim.Emitter.
func (g *RefreshEmitter) AMModulated() bool { return true }

// Carriers implements emsim.Emitter: the far-field comb at multiples of
// Ranks/TRefi.
func (g *RefreshEmitter) Carriers(f1, f2 float64) []float64 {
	return harmonicsIn(float64(g.Ranks)/g.TRefi, g.MaxHarmonics, f1, f2)
}

// BandExtent implements emsim.Extenter: refresh renders band-limited
// impulses, whose energy spans every capture band (that wideband grid is
// the signal of §4.2), so the planner never skips it.
func (g *RefreshEmitter) BandExtent() emsim.Extent { return emsim.Everywhere() }

// Render implements emsim.Component. The default path renders the
// impulse train in two blocked phases: (1) walk the refresh grid drawing
// every displacement — structurally identical to the per-pulse walk, so
// the PRNG stream is unchanged — and collect the pulses that survive the
// window clip; (2) evaluate each surviving pulse's downconversion phasor
// and deposit its kernel taps in one fused pass through
// sig.ImpulseKernel.AddTrain, whose interior fast path runs
// bounds-check-free (fusing keeps the phasors out of a scratch array the
// deposit loop would immediately re-read). Pulses deposit in grid order,
// and AddTrain's arithmetic per pulse does not depend on the batch, so
// the output is bit-identical to a one-pulse AddTrain call per pulse as
// it is drawn (the per-pulse oracle the equivalence tests hold this path
// to).
func (g *RefreshEmitter) Render(dst []complex128, ctx *emsim.Context) {
	if g.Ranks <= 0 {
		panic(fmt.Sprintf("machine: refresh emitter %q needs at least one rank", g.Label))
	}
	r := ctx.Rand
	fs := ctx.Band.SampleRate
	gain := nearGain(ctx)
	sc := refreshPool.Get().(*refreshScratch)
	defer refreshPool.Put(sc)
	weights := sc.growWeights(g.Ranks)
	for i := range weights {
		weights[i] = 1
	}
	if ctx.NearField && len(g.NearRankWeights) == g.Ranks {
		copy(weights, g.NearRankWeights)
	}
	// Far-field line amplitude at multiples of Ranks/TRefi is
	// q·Σw/TRefi; calibrate the per-pulse area q accordingly (weights are
	// all 1 in far field, so Σw = Ranks there).
	q := math.Sqrt(math.Pow(10, g.LineDBm/10)) * g.TRefi / float64(g.Ranks) * gain

	cur := ctx.Loads()
	duration := float64(ctx.N) / fs
	// Iterate the ideal refresh grid, displacing each command by
	// activity-dependent jitter. Start early enough that kernels
	// overlapping sample 0 are included.
	startK := int(math.Floor((ctx.Start - 2*g.TRefi) / g.TRefi))
	endT := ctx.Start + duration + 2*g.TRefi
	// Phase 1: the same grid walk and draw sequence as a per-pulse render
	// (every displacement is drawn before the window clip), collecting the
	// surviving pulses.
	poss, tks, qws := sc.pos[:0], sc.tk[:0], sc.qw[:0]
	for k := startK; ; k++ {
		base := float64(k) * g.TRefi
		if base > endT {
			break
		}
		load := g.Dom.Of(cur.At(math.Max(base, ctx.Start)))
		for rank := 0; rank < g.Ranks; rank++ {
			tNom := base + float64(rank)*g.TRefi/float64(g.Ranks)
			disp := g.TRefi * (g.JitterIdle*r.NormFloat64() + g.DisruptGain*load*(2*r.Float64()-1))
			if g.IntervalDither > 0 {
				disp += g.TRefi * g.IntervalDither * (2*r.Float64() - 1)
			}
			tk := tNom + disp
			pos := (tk - ctx.Start) * fs
			if pos < -16 || pos > float64(ctx.N)+16 {
				continue
			}
			poss = append(poss, pos)
			tks = append(tks, tk)
			qws = append(qws, q*weights[rank])
		}
	}
	sc.pos, sc.tk, sc.qw = poss, tks, qws
	// Phase 2: fused downconversion and tap deposition, in the same pulse
	// order. pc·tk associates exactly as the inline -2·π·Center·tk did
	// (left to right), so the phases are bit-identical.
	pc := -2 * math.Pi * ctx.Band.Center
	impulseKernel8.AddTrain(dst, poss, tks, qws, pc, fs)
}

// SSCClock models a (possibly spread-spectrum) digital clock: a square
// wave, so odd harmonics only, whose emission amplitude scales with the
// switching activity the clock drives (§2.2: the DRAM clock emanates more
// strongly during DRAM activity). Spread-spectrum clocking sweeps the
// frequency over SpreadHz (down-spread) at RateHz (§4.3).
type SSCClock struct {
	Label string
	// F0 is the nominal clock frequency; with SSC the instantaneous
	// frequency stays within [F0-SpreadHz, F0].
	F0       float64
	SpreadHz float64
	RateHz   float64
	Profile  sig.SweepProfile
	// FundamentalDBm is the received fundamental power at full activity.
	FundamentalDBm float64
	// IdleFrac is the amplitude fraction remaining at zero load (clock
	// trees toggle regardless of data activity).
	IdleFrac float64
	// MaxHarmonics bounds rendered odd harmonics.
	MaxHarmonics int
	// Dom is the activity domain; DomainNone for clocks whose emissions
	// do not respond to program activity (the CPU clock observation, §1).
	Dom activity.Domain
}

// Name implements emsim.Component.
func (g *SSCClock) Name() string { return g.Label }

// Domain implements emsim.Emitter.
func (g *SSCClock) Domain() activity.Domain { return g.Dom }

// AMModulated implements emsim.Emitter.
func (g *SSCClock) AMModulated() bool { return g.Dom != activity.DomainNone }

// Carriers implements emsim.Emitter. A spread carrier is reported at its
// spread edges — which is also how FASE reports it (Fig. 16: "two separate
// carriers at the edges of the spread out clock signal"). An unspread
// clock reports its harmonics directly.
func (g *SSCClock) Carriers(f1, f2 float64) []float64 {
	var out []float64
	for n := 1; n <= g.MaxHarmonics; n += 2 {
		fn := float64(n)
		if g.SpreadHz == 0 {
			if fn*g.F0 >= f1 && fn*g.F0 <= f2 {
				out = append(out, fn*g.F0)
			}
			continue
		}
		for _, edge := range []float64{fn * (g.F0 - g.SpreadHz), fn * g.F0} {
			if edge >= f1 && edge <= f2 {
				out = append(out, edge)
			}
		}
	}
	return out
}

// sscInBand reports whether harmonic n's swept range [n·(F0−Spread), n·F0]
// intersects the band — Prepare's gate, which BandExtent's spans reproduce
// (via Band.Overlaps, which is equivalent for lo <= hi).
func (g *SSCClock) sscInBand(band emsim.Band, n int) bool {
	fn := float64(n)
	lo, hi := fn*(g.F0-g.SpreadHz), fn*g.F0
	return band.Contains(lo) || band.Contains(hi) ||
		(lo < band.Center && hi > band.Center)
}

// BandExtent implements emsim.Extenter: one span per odd harmonic covering
// its spread-spectrum excursion [n·(F0−SpreadHz), n·F0] (down-spread; the
// span degenerates to a line for an unspread clock).
func (g *SSCClock) BandExtent() emsim.Extent {
	var spans []emsim.Span
	for n := 1; n <= g.MaxHarmonics; n += 2 {
		fn := float64(n)
		spans = append(spans, emsim.Span{Lo: fn * (g.F0 - g.SpreadHz), Hi: fn * g.F0})
	}
	return emsim.Extent{Spans: spans}
}

// Prepare implements emsim.Prepper: the in-band harmonic list (by the
// swept-range test) and static rotation phasors for the segment.
func (g *SSCClock) Prepare(band emsim.Band, _ int) any {
	p := &combPrep{}
	for n := 1; n <= g.MaxHarmonics; n += 2 {
		if g.sscInBand(band, n) {
			p.ns = append(p.ns, n)
		}
	}
	dt := 1 / band.SampleRate
	p.stepStatic = make([]complex128, len(p.ns))
	for k, n := range p.ns {
		s, c := math.Sincos(2 * math.Pi * (float64(n)*g.F0 - band.Center) * dt)
		p.stepStatic[k] = complex(c, s)
	}
	return p
}

// Static implements emsim.StaticRenderer: the clock's emission is
// activity-independent exactly when the activity envelope cannot move —
// either no modulating domain (Dom == DomainNone makes the load term read
// zero for every trace) or a unit idle fraction (the load term has a zero
// coefficient). In both cases Render's envelope expression reduces to the
// constant IdleFrac, so the swept comb is a pure function of the capture
// identity.
func (g *SSCClock) Static(emsim.Band, int) bool {
	return g.Dom == activity.DomainNone || g.IdleFrac == 1
}

// CondStatic implements emsim.CondStaticRenderer: the clock reads the
// activity trace only through its domain load's envelope, so a
// window-constant load freezes the envelope and the swept comb becomes a
// pure function of (identity, load). (Clocks that are unconditionally
// static classify through Static instead, which takes precedence.)
func (g *SSCClock) CondStatic(emsim.Band, int) bool { return true }

// Render implements emsim.Component. The default path iterates the
// activity trace's constant-load runs (emsim.Context.DomainRuns): the
// envelope and harmonic amplitudes are refreshed once per run instead of
// being re-derived (and guard-compared) every sample, while the sweep
// chain, phasor updates, and renorm schedule advance per sample exactly
// as in a per-sample walk — run loads are the per-sample cursor loads by
// construction, so the output is bit-identical to that walk (the
// reference the equivalence tests hold this path to).
func (g *SSCClock) Render(dst []complex128, ctx *emsim.Context) {
	// The odd harmonics whose swept range intersects the band.
	pre := ctx.Prep.(*combPrep)
	ns := pre.ns
	if len(ns) == 0 {
		return
	}
	cs := combPool.Get().(*combScratch)
	defer combPool.Put(cs)
	r := ctx.Rand
	dt := ctx.Dt()
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) * nearGain(ctx)
	ssc := sig.SSC{F0: g.F0, SpreadHz: g.SpreadHz, RateHz: g.RateHz, Profile: g.Profile}
	ssc.Start(r)
	cs.grow(len(ns))
	z, fpow, amp := cs.z, cs.wpow, cs.amp
	stepStatic := pre.stepStatic
	for k, n := range ns {
		s, c := math.Sincos(wrapPhase(float64(n) * ssc.Phase()))
		z[k] = complex(c, s)
		fpow[k] = 1
	}
	spread := g.SpreadHz != 0
	lastEnv := math.NaN()
	runs := ctx.DomainRuns(g.Dom)
	renorm := 0
	for {
		load, i0, i1, ok := runs.Next()
		if !ok {
			break
		}
		// Envelope and amplitudes are constants of the run — the same
		// expressions the per-sample guard evaluates, hoisted.
		env := g.IdleFrac + (1-g.IdleFrac)*load
		if env != lastEnv {
			for k, n := range ns {
				amp[k] = a0 * env / float64(n) // square-wave harmonic rolloff
			}
			lastEnv = env
		}
		for i := i0; i < i1; i++ {
			if spread {
				fs2, fc2 := math.Sincos(2 * math.Pi * (ssc.Freq() - g.F0) * dt)
				sig.PowChain(fpow, ns, complex(fc2, fs2))
			}
			acc := dst[i]
			for k := range ns {
				acc += complex(amp[k]*real(z[k]), amp[k]*imag(z[k]))
				z[k] *= stepStatic[k] * fpow[k]
			}
			dst[i] = acc
			// ssc's own phase accumulator is unused — the per-harmonic
			// phasors above integrate n·Freq() directly — but Step also
			// advances the sweep position, which Freq() reads.
			ssc.Step(dt, 0)
			if renorm++; renorm >= sig.RotatorRenorm {
				renorm = 0
				for k := range z {
					z[k] = sig.Renormalize(z[k])
				}
			}
		}
	}
}

// UnmodulatedClock is a fixed-frequency system clock (RTC, UART, panel
// backlight PWM, a neighbouring monitor's SMPS…) whose emissions do not
// respond to program activity — part of the "thousands of periodic
// signals that are not modulated by system activity" FASE must reject.
type UnmodulatedClock struct {
	Label string
	F0    float64
	// FundamentalDBm is the received fundamental power.
	FundamentalDBm float64
	// MaxHarmonics bounds the rendered comb (odd harmonics: square wave).
	MaxHarmonics int
	// WanderSigma/WanderTau give optional oscillator wander.
	WanderSigma, WanderTau float64
}

// Name implements emsim.Component.
func (g *UnmodulatedClock) Name() string { return g.Label }

// Domain implements emsim.Emitter.
func (g *UnmodulatedClock) Domain() activity.Domain { return activity.DomainNone }

// AMModulated implements emsim.Emitter.
func (g *UnmodulatedClock) AMModulated() bool { return false }

// Carriers implements emsim.Emitter.
func (g *UnmodulatedClock) Carriers(f1, f2 float64) []float64 {
	var out []float64
	for n := 1; n <= g.MaxHarmonics; n += 2 {
		f := float64(n) * g.F0
		if f >= f1 && f <= f2 {
			out = append(out, f)
		}
	}
	return out
}

// BandExtent implements emsim.Extenter: lines at the odd harmonics of F0
// — the same frequencies Render's in-band scan tests.
func (g *UnmodulatedClock) BandExtent() emsim.Extent {
	return lineExtent(g.F0, g.MaxHarmonics, 1, 2)
}

// Prepare implements emsim.Prepper: the in-band harmonic list and static
// rotation phasors for the segment.
func (g *UnmodulatedClock) Prepare(band emsim.Band, _ int) any {
	return prepComb(band, g.F0, g.MaxHarmonics, 1, 2)
}

// Static implements emsim.StaticRenderer: the clock never reads the
// activity trace — wander draws only from the capture PRNG — so its whole
// comb is activity-independent.
func (g *UnmodulatedClock) Static(emsim.Band, int) bool { return true }

// Render implements emsim.Component.
func (g *UnmodulatedClock) Render(dst []complex128, ctx *emsim.Context) {
	pre := ctx.Prep.(*combPrep)
	ns := pre.ns
	if len(ns) == 0 {
		return
	}
	cs := combPool.Get().(*combScratch)
	defer combPool.Put(cs)
	r := ctx.Rand
	dt := ctx.Dt()
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10))
	wander := sig.OU{Sigma: g.WanderSigma, Tau: g.WanderTau}
	wander.Init(r)
	// Phasor rotation: static per-harmonic step plus the n-th power of the
	// shared wander rotation (skipped entirely for crystal clocks with
	// zero wander — then the loop is trig-free).
	base := 2 * math.Pi * r.Float64()
	cs.grow(len(ns))
	z, wpow, amp := cs.z, cs.wpow, cs.amp
	for k, n := range ns {
		fn := float64(n)
		s, c := math.Sincos(wrapPhase(fn * base))
		z[k] = complex(c, s)
		wpow[k] = 1
		amp[k] = a0 / fn
	}
	// Re-slice the working arrays to a common length so the hot loops
	// index them without bounds checks.
	z = z[:len(ns)]
	stepStatic := pre.stepStatic[:len(z)]
	amp = amp[:len(z)]
	renorm := 0
	if g.WanderSigma == 0 {
		// Crystal clock: no wander process to step (Step draws nothing and
		// returns 0 for Sigma == 0) and wpow stays the identity, so the
		// comb is a fixed-amplitude rotate-and-accumulate — the blocked
		// kernel's case.
		renderFixedComb(dst, z, stepStatic, amp)
		return
	}
	for i := range dst {
		df := wander.Step(dt, r)
		if df != 0 {
			// The wander power chain is fused into the accumulation loop:
			// cur advances through the same sequence of multiplies PowChain
			// would store into wpow, so z evolves bit-identically while the
			// wpow array round trip disappears.
			ws, wc := sig.SmallSincos(2 * math.Pi * df * dt)
			w := complex(wc, ws)
			cur := complex(1, 0)
			m := 0
			acc := dst[i]
			for k := range z {
				d := ns[k] - m
				if d < 8 {
					for ; d > 0; d-- {
						cur *= w
					}
				} else {
					cur *= sig.Ipow(w, d)
				}
				m = ns[k]
				zk := z[k]
				acc += complex(amp[k]*real(zk), amp[k]*imag(zk))
				z[k] = zk * (stepStatic[k] * cur)
			}
			dst[i] = acc
		} else {
			acc := dst[i]
			for k := range z {
				acc += complex(amp[k]*real(z[k]), amp[k]*imag(z[k]))
				z[k] *= stepStatic[k] * wpow[k]
			}
			dst[i] = acc
		}
		if renorm++; renorm >= sig.RotatorRenorm {
			renorm = 0
			for k := range z {
				z[k] = sig.Renormalize(z[k])
			}
		}
	}
}

package machine

import (
	"fmt"
	"math"
	"math/cmplx"

	"fase/internal/activity"
	"fase/internal/dsp/filter"
	"fase/internal/emsim"
	"fase/internal/sig"
)

// The reference oracles of the render equivalence suite. Production has
// one render path per emitter; these are the simpler walks it must match
// bit for bit: the pre-segmentation per-sample regulator and SSC clock
// renderers and the pre-blocking per-pulse refresh and constant-on-time
// regulator renderers.

// layering forwards a component's static-layer classification and
// nothing else. The reference wrappers keep it because classification
// fixes render order (static layer first, see emsim.StaticRenderer); an
// unclassified wrapper would sum the same addends in another order.
type layering struct{ c emsim.Component }

func (l layering) Static(band emsim.Band, n int) bool {
	s, ok := l.c.(emsim.StaticRenderer)
	return ok && s.Static(band, n)
}

func (l layering) CondStatic(band emsim.Band, n int) bool {
	c, ok := l.c.(emsim.CondStaticRenderer)
	return ok && c.CondStatic(band, n)
}

func (l layering) Domain() activity.Domain {
	if c, ok := l.c.(emsim.CondStaticRenderer); ok {
		return c.Domain()
	}
	return activity.DomainNone
}

// oracle strips a scene component down to Name, Render, and its
// static-layer classification, so the planner never culls or prepares it.
// For the load-following emitters and the constant-on-time regulator
// Render runs the per-sample (or per-pulse) oracle instead of the
// production kernel; the regulator and SSC oracles derive their in-band
// harmonics inline, checking Prepare independently. Every other component
// renders through its production kernel, prepared by its own Prepare.
type oracle struct{ layering }

func (o oracle) Name() string { return o.c.Name() }

func (o oracle) Render(dst []complex128, ctx *emsim.Context) {
	switch g := o.c.(type) {
	case *SwitchingRegulator:
		g.renderPerSample(dst, ctx)
	case *SSCClock:
		g.renderPerSample(dst, ctx)
	case *RefreshEmitter:
		g.renderPerPulse(dst, ctx)
	case *ConstantOnTimeRegulator:
		g.renderPerPulse(dst, ctx)
	default:
		o.c.Render(dst, prepared(o.c, ctx))
	}
}

// prepared returns ctx with c's own prepared state for the capture's
// geometry: the Prep a plan would have handed c, had its wrapper not
// hidden Prepper.
func prepared(c emsim.Component, ctx *emsim.Context) *emsim.Context {
	p, ok := c.(emsim.Prepper)
	if !ok {
		return ctx
	}
	out := *ctx
	out.Prep = p.Prepare(ctx.Band, ctx.N)
	return &out
}

// oracleScene wraps every component of s in an oracle. Swept serially
// with no static cache, the wrapped scene is the unculled, uncached,
// per-sample render path by construction.
func oracleScene(s *emsim.Scene) *emsim.Scene {
	out := &emsim.Scene{}
	for _, c := range s.Components {
		out.Add(oracle{layering{c}})
	}
	return out
}

// opaque hides every capability of a component but Name, Render, its
// static-layer classification, and its Prepare, rendering through the
// production kernel. Its plan never culls it: opaque hides BandExtent.
type opaque struct {
	emsim.Component
	layering
}

func (o opaque) Prepare(band emsim.Band, n int) any {
	if p, ok := o.Component.(emsim.Prepper); ok {
		return p.Prepare(band, n)
	}
	return nil
}

// opaqueScene wraps every component of s in opaque: the scene renders
// the production kernels with nothing culled.
func opaqueScene(s *emsim.Scene) *emsim.Scene {
	out := &emsim.Scene{}
	for _, c := range s.Components {
		out.Add(opaque{c, layering{c}})
	}
	return out
}

// renderPerSample is SwitchingRegulator's pre-segmentation render: the
// same Horner kernel, but it steps the one-pole control loop and
// re-derives the duty on every sample instead of iterating the trace's
// constant-load runs.
func (g *SwitchingRegulator) renderPerSample(dst []complex128, ctx *emsim.Context) {
	if g.MaxHarmonics <= 0 || g.FSw <= 0 {
		panic(fmt.Sprintf("machine: regulator %q misconfigured", g.Label))
	}
	cs := combPool.Get().(*combScratch)
	defer combPool.Put(cs)
	// The in-band harmonics, the first line's static rotation, the
	// fundamental's step and 1/(2π·n) are derived inline, not read from
	// ctx.Prep, so the oracle checks Prepare independently.
	var ns []int
	for n := 1; n <= g.MaxHarmonics; n++ {
		if ctx.Band.Contains(float64(n) * g.FSw) {
			ns = append(ns, n)
		}
	}
	if len(ns) == 0 {
		return
	}
	r := ctx.Rand
	dt := ctx.Dt()
	fs := ctx.Band.SampleRate
	// Amplitude scale: |A0·c1(BaseDuty)|² = fundamental power.
	c1 := cmplx.Abs(sig.PulseHarmonic(g.BaseDuty, 1))
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) / c1 * nearGain(ctx)

	wander := sig.OU{Sigma: g.WanderSigma, Tau: g.WanderTau}
	wander.Init(r)
	// Clamp the control-loop bandwidth below Nyquist for narrow captures;
	// the capture cannot resolve faster loop dynamics anyway.
	bw := g.LoopBw
	if bw > 0.4*fs {
		bw = 0.4 * fs
	}
	loop := filter.NewOnePole(bw, fs)
	cur := ctx.Loads()

	n0 := ns[0]
	inv2pn := make([]float64, len(ns))
	for k, n := range ns {
		inv2pn[k] = 1 / (2 * math.Pi * float64(n))
	}
	s, c := math.Sincos(2 * math.Pi * (float64(n0)*g.FSw - ctx.Band.Center) * dt)
	ystatic := complex(c, s)
	s, c = math.Sincos(2 * math.Pi * g.FSw * dt)
	fstep := complex(c, s)
	base := 2 * math.Pi * r.Float64()
	s, c = math.Sincos(wrapPhase(base))
	u := complex(c, s)
	s, c = math.Sincos(wrapPhase(float64(n0) * base))
	y := complex(c, s)
	coef := cs.grow(len(ns))
	var duty dutyPhasor
	var h complex128
	lastD, lastAmpl := math.NaN(), math.NaN()
	renorm := 0
	for i := range dst {
		t := ctx.Start + float64(i)*dt
		load := g.Dom.Of(cur.At(t))
		smoothedLoad := loop.Step(load)
		d := g.BaseDuty + g.DutySwing*smoothedLoad
		ampl := 1 + g.AmpSwing*smoothedLoad
		if d != lastD || ampl != lastAmpl {
			if d != lastD {
				h = duty.set(d)
			}
			lineCoeffs(coef, h, n0, a0*ampl, inv2pn)
			lastD, lastAmpl = d, ampl
		}
		w := complex(1, 0)
		if df := wander.Step(dt, r); g.WanderSigma != 0 {
			ws, wc := sig.SmallSincos(2 * math.Pi * df * dt)
			w = complex(wc, ws)
		}
		v := coef[len(coef)-1]
		for k := len(coef) - 2; k >= 0; k-- {
			v = v*u + coef[k]
		}
		dst[i] += y * v
		if len(coef) > 1 {
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

// renderPerSample is SSCClock's pre-segmentation render: the same comb
// kernel, but it re-reads the activity envelope on every sample instead
// of once per constant-load run, and steps the sweep, V and Y and
// evaluates the polynomial one sample at a time instead of in blocks and
// four-sample chains.
func (g *SSCClock) renderPerSample(dst []complex128, ctx *emsim.Context) {
	cs := combPool.Get().(*combScratch)
	defer combPool.Put(cs)
	// The in-band harmonics and V's and Y's static steps are derived
	// inline, like the regulator oracle's, not read from ctx.Prep.
	var ns []int
	for n := 1; n <= g.MaxHarmonics; n += 2 {
		if g.sscInBand(ctx.Band, n) {
			ns = append(ns, n)
		}
	}
	if len(ns) == 0 {
		return
	}
	r := ctx.Rand
	dt := ctx.Dt()
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) * nearGain(ctx)
	ssc := sig.SSC{F0: g.F0, SpreadHz: g.SpreadHz, RateHz: g.RateHz, Profile: g.Profile}
	ssc.Start(r)
	cur := ctx.Loads()
	n0 := ns[0]
	s, c := math.Sincos(2 * math.Pi * (2 * g.F0) * dt)
	vstep := complex(c, s)
	s, c = math.Sincos(2 * math.Pi * (float64(n0)*g.F0 - ctx.Band.Center) * dt)
	ystep := complex(c, s)
	s, c = math.Sincos(wrapPhase(2 * ssc.Phase()))
	v := complex(c, s)
	s, c = math.Sincos(wrapPhase(float64(n0) * ssc.Phase()))
	y := complex(c, s)
	coef := cs.grow(len(ns))
	spread := g.SpreadHz != 0
	// Line coefficients depend only on the activity envelope, which is
	// piecewise constant — refresh them when it moves, not every sample.
	lastEnv := math.NaN()
	renorm := 0
	for i := range dst {
		t := ctx.Start + float64(i)*dt
		load := g.Dom.Of(cur.At(t))
		env := g.IdleFrac + (1-g.IdleFrac)*load
		if env != lastEnv {
			for k, n := range ns {
				coef[k] = complex(a0*env/float64(n), 0) // square-wave harmonic rolloff
			}
			lastEnv = env
		}
		h := coef[len(coef)-1]
		for k := len(coef) - 2; k >= 0; k-- {
			h = h*v + coef[k]
		}
		dst[i] += y * h
		if spread {
			s, c := math.Sincos(2 * math.Pi * (ssc.Freq() - g.F0) * dt)
			w := complex(c, s)
			ssc.Step(dt, 0)
			wn := w
			if n0 > 1 {
				wn = sig.Ipow(w, n0)
			}
			v *= vstep * (w * w)
			y *= ystep * wn
		} else {
			v *= vstep
			y *= ystep
		}
		if renorm++; renorm >= sig.RotatorRenorm {
			renorm = 0
			v = sig.Renormalize(v)
			y = sig.Renormalize(y)
		}
	}
}

// depositPulse deposits one downconverted pulse: a one-pulse AddTrain
// call, the per-pulse reference the blocked renders must match.
func depositPulse(dst []complex128, pos, t, q, fs, center float64) {
	pc := -2 * math.Pi * center
	impulseKernel.AddTrain(dst, []float64{pos}, []float64{t}, []float64{q}, pc, fs)
}

// renderPerPulse is RefreshEmitter's pre-blocking render: the same grid
// walk and draw sequence as Render, depositing each surviving pulse as
// soon as it is drawn instead of collecting the train first.
func (g *RefreshEmitter) renderPerPulse(dst []complex128, ctx *emsim.Context) {
	if g.Ranks <= 0 {
		panic(fmt.Sprintf("machine: refresh emitter %q needs at least one rank", g.Label))
	}
	r := ctx.Rand
	fs := ctx.Band.SampleRate
	gain := nearGain(ctx)
	weights := make([]float64, g.Ranks)
	for i := range weights {
		weights[i] = 1
	}
	if ctx.NearField && len(g.NearRankWeights) == g.Ranks {
		copy(weights, g.NearRankWeights)
	}
	q := math.Sqrt(math.Pow(10, g.LineDBm/10)) * g.TRefi / float64(g.Ranks) * gain

	cur := ctx.Loads()
	duration := float64(ctx.N) / fs
	startK := int(math.Floor((ctx.Start - 2*g.TRefi) / g.TRefi))
	endT := ctx.Start + duration + 2*g.TRefi
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
			depositPulse(dst, pos, tk, q*weights[rank], fs, ctx.Band.Center)
		}
	}
}

// renderPerPulse is ConstantOnTimeRegulator's pre-blocking render: the
// same cycle walk and draw sequence as Render, depositing each pulse as
// soon as it is drawn instead of in stack blocks.
func (g *ConstantOnTimeRegulator) renderPerPulse(dst []complex128, ctx *emsim.Context) {
	r := ctx.Rand
	fs := ctx.Band.SampleRate
	q := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) / g.F0 * nearGain(ctx)
	wander := sig.OU{Sigma: g.WanderSigma, Tau: g.WanderTau}
	wander.Init(r)
	cur := ctx.Loads()
	duration := float64(ctx.N) / fs
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
		if pos >= 0 {
			depositPulse(dst, pos, t, q, fs, ctx.Band.Center)
		}
	}
}

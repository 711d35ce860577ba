package machine

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/filter"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/sig"
)

// textbookRegulator renders a switching regulator's capture straight from
// the pulse-train Fourier series, per sample and per line with math.Sin
// and math.Sincos: Σₙ a0·ampl·d·sinc(n·d)·e^{−iπnd}·e^{iφₙ} over the lines
// ns, where φₙ is line n's accumulated phase, n·base + 2π(n·FSw − Center)·
// t + n·∫2π·df dt. It draws the regulator's random stream (the wander's
// initial value, the base phase, one wander step per sample) and steps
// the same one-pole control loop, and shares no other arithmetic with the
// kernel.
func textbookRegulator(g *SwitchingRegulator, ctx *emsim.Context, seed int64, ns []int) []complex128 {
	r := rand.New(rand.NewSource(seed))
	fs := ctx.Band.SampleRate
	dt := 1 / fs
	x := g.WanderSigma * r.NormFloat64()
	base := 2 * math.Pi * r.Float64()
	var ouA, ouNoise float64
	if g.WanderSigma != 0 {
		ouA = math.Exp(-dt / g.WanderTau)
		ouNoise = g.WanderSigma * math.Sqrt(1-ouA*ouA)
	}
	// |c₁(BaseDuty)| = sin(π·BaseDuty)/π calibrates the fundamental.
	a0 := math.Sqrt(math.Pow(10, g.FundamentalDBm/10)) / (math.Sin(math.Pi*g.BaseDuty) / math.Pi)
	if ctx.NearField {
		a0 *= math.Pow(10, nearFieldGainDB/20)
	}
	loop := filter.NewOnePole(math.Min(g.LoopBw, 0.4*fs), fs)
	cur := ctx.Loads()
	out := make([]complex128, ctx.N)
	wph := 0.0 // ∫2π·df dt, the fundamental's accumulated wander phase
	for i := range out {
		sm := loop.Step(g.Dom.Of(cur.At(ctx.Start + float64(i)*dt)))
		d := g.BaseDuty + g.DutySwing*sm
		ampl := 1 + g.AmpSwing*sm
		var acc complex128
		for _, n := range ns {
			fn := float64(n)
			mag := a0 * ampl * d * math.Sin(math.Pi*fn*d) / (math.Pi * fn * d)
			phi := fn*base + 2*math.Pi*(fn*g.FSw-ctx.Band.Center)*dt*float64(i) + fn*wph - math.Pi*fn*d
			s, c := math.Sincos(phi)
			acc += complex(mag*c, mag*s)
		}
		out[i] = acc
		if g.WanderSigma != 0 {
			x = ouA*x + ouNoise*r.NormFloat64()
			wph += 2 * math.Pi * x * dt
		}
	}
	return out
}

// TestRegulatorMatchesTextbook holds SwitchingRegulator.Render to the
// textbook pulse-train sum within 1e-9 of the capture's peak, across
// bands whose first in-band line n₀ runs from 1 to 4 with 1 to 4 lines in
// band, captures of 256 to 16384 samples, wander on and off, near field,
// AmpSwing > 0, and a 50%-duty regulator, whose even lines vanish (the
// 1 − qⁿ cancellation); each idle and under an LDM/LDL1 alternation,
// which moves the duty on most samples.
func TestRegulatorMatchesTextbook(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	tr := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
		Jitter: microbench.DefaultJitter(), Seed: 3,
	}, 0.2)
	for trial := 0; trial < 32; trial++ {
		g := &SwitchingRegulator{
			Label:          "textbook regulator",
			FSw:            200e3 + r.Float64()*300e3,
			BaseDuty:       0.05 + r.Float64()*0.35,
			DutySwing:      0.01 + r.Float64()*0.08,
			FundamentalDBm: -100 - 10*r.Float64(),
			MaxHarmonics:   12,
			WanderTau:      1e-3,
			LoopBw:         40e3 + r.Float64()*60e3,
			Dom:            activity.DomainDRAM,
		}
		if trial%2 == 0 {
			g.WanderSigma = 200 + r.Float64()*300
		}
		if trial%5 != 0 {
			g.AmpSwing = r.Float64() * 0.4
		}
		if trial%8 == 7 {
			g.BaseDuty, g.DutySwing, g.AmpSwing = 0.5, 0, 0.3
		}
		// Lines n0 … n0+k−1 in band: the band's half-width is k/2 line
		// spacings, its centre within 0.2 spacings of their middle.
		n0, k := 1+trial%4, 1+(trial/4)%4
		band := emsim.Band{
			Center:     g.FSw * (float64(n0) + float64(k-1)/2 + 0.4*(r.Float64()-0.5)),
			SampleRate: float64(k) * g.FSw / 0.98,
		}
		ns := make([]int, k)
		for j := range ns {
			ns[j] = n0 + j
		}
		n := 256 << (trial % 7)
		for _, act := range []*activity.Trace{nil, tr} {
			seed := r.Int63()
			ctx := &emsim.Context{
				Band:      band,
				Start:     0.1 * r.Float64(),
				N:         n,
				Rand:      rand.New(rand.NewSource(seed)),
				Activity:  act,
				NearField: trial%3 == 0,
				Prep:      g.Prepare(band, n),
			}
			got := make([]complex128, n)
			g.Render(got, ctx)
			want := textbookRegulator(g, ctx, seed, ns)
			var peak, worst float64
			for i := range want {
				peak = math.Max(peak, cmplx.Abs(want[i]))
				worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
			}
			if !(worst <= 1e-9*peak) {
				t.Errorf("trial %d (n0 %d, %d lines, %d samples, duty %.3f, wander %v, near %v, loaded %v): max|Δ| %.3g, %.3g of the peak %.3g",
					trial, n0, k, n, g.BaseDuty, g.WanderSigma != 0, ctx.NearField, act != nil, worst, worst/peak, peak)
			}
		}
	}
}

// checkLineCoeffs holds lineCoeffs for lines n0 … n0+k−1 at duty d and
// amplitude scale to scale·sig.PulseHarmonic(d, n), within 1e-12·d·|scale|.
func checkLineCoeffs(t *testing.T, d float64, n0, k int, scale float64) {
	t.Helper()
	inv2pn := make([]float64, k)
	for j := range inv2pn {
		inv2pn[j] = 1 / (2 * math.Pi * float64(n0+j))
	}
	s, c := math.Sincos(-math.Pi * d)
	got := make([]complex128, k)
	lineCoeffs(got, complex(c, s), n0, scale, inv2pn)
	for j, v := range got {
		want := complex(scale, 0) * sig.PulseHarmonic(d, n0+j)
		if diff := cmplx.Abs(v - want); !(diff <= 1e-12*d*math.Abs(scale)) {
			t.Fatalf("duty %g, line %d, scale %g: coefficient %v, want %v (|Δ| %.3g, %.3g·d·|scale|)",
				d, n0+j, scale, v, want, diff, diff/(d*math.Abs(scale)))
		}
	}
}

// TestLineCoeffs checks the regulator's coefficient path, (1 − qⁿ)/(2πi·n)
// with q = e^{−2πid} evaluated from the duty phasor e^{−iπd}, against
// the direct form d·sinc(n·d)·e^{−iπnd} for lines up to 64.
func TestLineCoeffs(t *testing.T) {
	duties := []float64{1e-12, 1e-6, 1e-3, 0.083, 0.25, 0.5, 0.75, 0.999, 1 - 1e-9}
	r := rand.New(rand.NewSource(64))
	for i := 0; i < 200; i++ {
		duties = append(duties, r.Float64())
	}
	for _, d := range duties {
		if d == 0 {
			continue
		}
		checkLineCoeffs(t, d, 1, 64, 1)
		n0 := 1 + r.Intn(63)
		checkLineCoeffs(t, d, n0, 1+r.Intn(65-n0), 1e-5*(1+r.Float64()))
	}
}

// FuzzRegulatorLines fuzzes the coefficient path over duties in (0, 1),
// lines n0 … n0+k−1 up to 64 and amplitude scales, holding it to
// sig.PulseHarmonic. The bound is relative to d·|scale|, so the fuzzer
// keeps d and |scale| within 1e-150 … 1e150, where every intermediate
// product stays a normal float.
func FuzzRegulatorLines(f *testing.F) {
	f.Add(0.083, uint8(1), uint8(12), 1e-5)
	f.Add(0.5, uint8(2), uint8(8), -3.0)
	f.Add(0.999, uint8(60), uint8(5), 2.5e7)
	f.Add(1e-9, uint8(1), uint8(64), 1.0)
	f.Fuzz(func(t *testing.T, d float64, n0, k uint8, scale float64) {
		a := math.Abs(scale)
		if !(d >= 1e-150 && d < 1) || !(a >= 1e-150 && a <= 1e150) {
			t.Skip()
		}
		first := 1 + int(n0)%64
		checkLineCoeffs(t, d, first, 1+int(k)%(65-first), scale)
	})
}

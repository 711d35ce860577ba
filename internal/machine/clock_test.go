package machine

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/sig"
)

// textbookClock renders a square-wave clock's capture straight from its
// Fourier series, per sample and per line with math.Sincos:
// Σₙ (a0·env/n)·e^{iφₙ} over the odd lines ns, where φₙ is line n's
// accumulated phase, n·base + 2π(n·F0 − Center)·t + n·∫2π·δf dt. For an
// UnmodulatedClock δf is the OU wander and env is 1; for an SSCClock δf
// is the sweep's offset from F0 and env its activity envelope. It draws
// the clock's random stream (the wander's initial value and the base
// phase, then one wander step per sample; or the sweep's phase and
// position) and shares no other arithmetic with the kernel.
func textbookClock(c emsim.Component, ctx *emsim.Context, seed int64, ns []int) []complex128 {
	r := rand.New(rand.NewSource(seed))
	fs := ctx.Band.SampleRate
	dt := 1 / fs
	var f0, a0, base, sigma, x, u float64
	var df func() float64 // the next sample's δf
	env := func(float64) float64 { return 1 }
	switch g := c.(type) {
	case *UnmodulatedClock:
		f0, sigma = g.F0, g.WanderSigma
		a0 = math.Sqrt(math.Pow(10, g.FundamentalDBm/10))
		x = sigma * r.NormFloat64()
		base = 2 * math.Pi * r.Float64()
		var ouA, ouNoise float64
		if sigma != 0 {
			ouA = math.Exp(-dt / g.WanderTau)
			ouNoise = sigma * math.Sqrt(1-ouA*ouA)
		}
		df = func() float64 {
			if sigma != 0 {
				x = ouA*x + ouNoise*r.NormFloat64()
			}
			return x
		}
	case *SSCClock:
		f0 = g.F0
		a0 = math.Sqrt(math.Pow(10, g.FundamentalDBm/10))
		if ctx.NearField {
			a0 *= math.Pow(10, nearFieldGainDB/20)
		}
		base = 2 * math.Pi * r.Float64()
		u = r.Float64()
		df = func() float64 {
			off := 0.0
			if g.SpreadHz != 0 && g.Profile != nil {
				off = g.SpreadHz / 2 * (g.Profile.Offset(u) - 1)
			}
			if u += g.RateHz * dt; u >= 1 {
				u -= math.Floor(u)
			}
			return off
		}
		cur := ctx.Loads()
		env = func(t float64) float64 { return g.IdleFrac + (1-g.IdleFrac)*g.Dom.Of(cur.At(t)) }
	}
	out := make([]complex128, ctx.N)
	wph := 0.0 // ∫2π·δf dt, the fundamental's accumulated offset phase
	for i := range out {
		e := env(ctx.Start + float64(i)*dt)
		var acc complex128
		for _, n := range ns {
			fn := float64(n)
			phi := fn*base + 2*math.Pi*(fn*f0-ctx.Band.Center)*dt*float64(i) + fn*wph
			s, c := math.Sincos(phi)
			acc += complex(a0*e/fn*c, a0*e/fn*s)
		}
		out[i] = acc
		wph += 2 * math.Pi * df() * dt
	}
	return out
}

// TestClockMatchesTextbook holds UnmodulatedClock.Render (crystal and
// wandering) and SSCClock.Render (unspread, triangle and sine spread,
// activity-coupled with IdleFrac < 1 and near field) to the textbook
// square-wave sum within 1e-9 of the capture's peak, across bands whose
// first in-band line n₀ runs over the odd harmonics 1 to 41 with 1 to 25
// lines in band, and captures of 256 to 16384 samples; each idle and
// under an LDM/LDL1 alternation, which moves the SSC clocks' envelope.
func TestClockMatchesTextbook(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tr := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
		Jitter: microbench.DefaultJitter(), Seed: 3,
	}, 0.2)
	profiles := []sig.SweepProfile{nil, sig.TriangleSweep{}, sig.SineSweep{}}
	for trial := 0; trial < 40; trial++ {
		// Odd lines n0, n0+2, … n0+2(k−1) in band: the band's half-width
		// is k fundamentals, its centre within 0.2 line spacings of their
		// middle.
		n0, k := 1+2*r.Intn(21), 1+r.Intn(25)
		switch trial {
		case 0, 1:
			n0, k = 1, 1
		case 2, 3:
			n0, k = 41, 25
		case 4, 5:
			n0, k = 1, 25
		}
		f0 := 10e3 + r.Float64()*90e3
		maxN := n0 + 2*(k-1) + 2*r.Intn(3)
		dbm := -110 - 10*r.Float64()
		var c interface {
			emsim.Component
			emsim.Prepper
		}
		switch trial % 4 {
		case 0:
			c = &UnmodulatedClock{Label: "crystal", F0: f0, FundamentalDBm: dbm, MaxHarmonics: maxN}
		case 1:
			c = &UnmodulatedClock{Label: "wander", F0: f0, FundamentalDBm: dbm, MaxHarmonics: maxN,
				WanderSigma: 5 + 145*r.Float64(), WanderTau: 1e-3 + 1e-3*r.Float64()}
		default:
			// n·SpreadHz stays under F0/2 for every line up to the first
			// above the band, so no swept range crosses a band edge its
			// line does not.
			g := &SSCClock{Label: "ssc", F0: f0, FundamentalDBm: dbm, MaxHarmonics: maxN,
				RateHz: 10e3 + 30e3*r.Float64(), IdleFrac: 0.2 + 0.6*r.Float64(), Dom: activity.DomainDRAM}
			if p := profiles[(trial/2)%3]; p != nil {
				g.Profile, g.SpreadHz = p, f0/2*r.Float64()/float64(maxN+2)
			}
			c = g
		}
		band := emsim.Band{
			Center:     f0 * (float64(n0+k-1) + 0.8*(r.Float64()-0.5)),
			SampleRate: float64(2*k) * f0 / 0.98,
		}
		ns := make([]int, k)
		for j := range ns {
			ns[j] = n0 + 2*j
		}
		n := 256 << (trial % 7)
		prep := c.Prepare(band, n)
		if got := prep.(*combPrep).ns; fmt.Sprint(got) != fmt.Sprint(ns) {
			t.Fatalf("trial %d: %s prepared lines %v, want %v", trial, c.Name(), got, ns)
		}
		for _, act := range []*activity.Trace{nil, tr} {
			seed := r.Int63()
			ctx := &emsim.Context{
				Band:      band,
				Start:     0.1 * r.Float64(),
				N:         n,
				Rand:      rand.New(rand.NewSource(seed)),
				Activity:  act,
				NearField: trial%5 == 0,
				Prep:      prep,
			}
			got := make([]complex128, n)
			c.Render(got, ctx)
			want := textbookClock(c, ctx, seed, ns)
			var peak, worst float64
			for i := range want {
				peak = math.Max(peak, cmplx.Abs(want[i]))
				worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
			}
			if !(worst <= 1e-9*peak) {
				t.Errorf("trial %d (%s, n0 %d, %d lines, %d samples, near %v, loaded %v): max|Δ| %.3g, %.3g of the peak %.3g",
					trial, c.Name(), n0, k, n, ctx.NearField, act != nil, worst, worst/peak, peak)
			}
		}
	}
}

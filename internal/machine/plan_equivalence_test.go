package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/sig"
)

// randomScene builds a scene mixing every machine emitter type with
// environment sources, all with randomized parameters.
func randomScene(r *rand.Rand) *emsim.Scene {
	scene := &emsim.Scene{}
	scene.Add(
		&SwitchingRegulator{
			Label:          "reg A",
			FSw:            200e3 + r.Float64()*300e3,
			BaseDuty:       0.08 + r.Float64()*0.3,
			DutySwing:      r.Float64() * 0.05,
			AmpSwing:       r.Float64() * 0.3,
			FundamentalDBm: -115 + r.Float64()*10,
			MaxHarmonics:   1 + r.Intn(12),
			WanderSigma:    r.Float64() * 400,
			WanderTau:      1e-3,
			LoopBw:         65e3,
			Dom:            activity.DomainDRAM,
		},
		&UnmodulatedClock{
			Label:          "crystal",
			F0:             100e3 + r.Float64()*2e6,
			FundamentalDBm: -118,
			MaxHarmonics:   1 + 2*r.Intn(5),
		},
		&UnmodulatedClock{
			Label:          "wandering clock",
			F0:             100e3 + r.Float64()*2e6,
			FundamentalDBm: -120,
			MaxHarmonics:   1 + 2*r.Intn(4),
			WanderSigma:    5 + r.Float64()*40,
			WanderTau:      1e-3,
		},
		&SSCClock{
			Label:          "spread clock",
			F0:             0.8e6 + r.Float64()*3e6,
			SpreadHz:       r.Float64() * 20e3,
			RateHz:         10e3,
			Profile:        sig.SineSweep{},
			FundamentalDBm: -112,
			IdleFrac:       0.4,
			MaxHarmonics:   1 + 2*r.Intn(2),
			Dom:            activity.DomainDRAM,
		},
		&SSCClock{
			Label:          "unspread clock",
			F0:             0.5e6 + r.Float64()*3e6,
			Profile:        sig.TriangleSweep{},
			FundamentalDBm: -120,
			IdleFrac:       1,
			MaxHarmonics:   1,
			Dom:            activity.DomainNone,
		},
		&RefreshEmitter{
			Label:           "refresh",
			TRefi:           7.8125e-6,
			PulseWidth:      200e-9,
			LineDBm:         -126,
			Ranks:           1 + r.Intn(4),
			NearRankWeights: []float64{1, 0.05, 0.05, 0.05},
			DisruptGain:     0.35,
			JitterIdle:      0.002,
			MaxHarmonics:    7,
			Dom:             activity.DomainDRAM,
		},
		&ConstantOnTimeRegulator{
			Label:          "COT reg",
			F0:             300e3 + r.Float64()*200e3,
			FreqSwing:      0.15,
			TOn:            300e-9,
			FundamentalDBm: -118,
			WanderSigma:    2e3,
			WanderTau:      5e-3,
			Dom:            activity.DomainCore,
		},
		&emsim.AMStation{Call: "AM", Freq: 0.5e6 + r.Float64()*1.5e6,
			PowerMw: 1e-10, AudioSeed: r.Int63()},
		&emsim.FMStation{Call: "FM", Freq: 88e6 + r.Float64()*20e6,
			PowerMw: 1e-10, AudioSeed: r.Int63()},
		&emsim.Background{FloorDBmPerHz: -172},
	)
	return scene
}

// TestPlannedRenderEquivalence is the planner's core property test:
// rendering any capture through Scene.Plan must be bit-identical to
// rendering it unculled (opaqueScene), across randomized scenes, bands,
// activity traces, and seeds — while actually culling components
// (otherwise the test exercises nothing).
func TestPlannedRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	culled := 0
	for trial := 0; trial < 12; trial++ {
		scene := randomScene(r)
		n := 1 << (9 + r.Intn(3)) // 512..2048
		band := emsim.Band{
			Center:     100e3 + r.Float64()*4e6,
			SampleRate: float64(n) * (50 + r.Float64()*200),
		}
		var trace *activity.Trace
		if r.Intn(2) == 0 {
			kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2}
			trace = microbench.Generate(microbench.Config{
				X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
				FAlt:   30e3 + r.Float64()*20e3,
				Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
			}, 0.5+float64(n)/band.SampleRate)
		}
		plan := scene.Plan(band, n)
		culled += len(scene.Components) - plan.ActiveCount()
		capt := emsim.Capture{
			Band: band, N: n,
			Start:     r.Float64() * 0.2,
			Activity:  trace,
			Seed:      r.Int63(),
			NearField: r.Intn(4) == 0, NearFieldGainDB: 30,
		}
		unculled := make([]complex128, n)
		opaqueScene(scene).RenderInto(unculled, capt)
		planned := make([]complex128, n)
		capt.Plan = plan
		scene.RenderInto(planned, capt)
		bitsEqual(t, "planned render", trial, planned, unculled)
	}
	if culled == 0 {
		t.Fatal("no component was ever culled; the equivalence test is vacuous")
	}
}

// TestMachineBandExtents pins each machine emitter's BandExtent.
func TestMachineBandExtents(t *testing.T) {
	reg := &SwitchingRegulator{FSw: 315e3, MaxHarmonics: 3}
	if e := reg.BandExtent(); e.All || len(e.Spans) != 3 ||
		e.Spans[0] != (emsim.Span{Lo: 315e3, Hi: 315e3}) ||
		e.Spans[1] != (emsim.Span{Lo: 630e3, Hi: 630e3}) ||
		e.Spans[2] != (emsim.Span{Lo: 945e3, Hi: 945e3}) {
		t.Errorf("SwitchingRegulator extent = %+v, want lines at 315/630/945 kHz", e)
	}
	clk := &UnmodulatedClock{F0: 100e3, MaxHarmonics: 5}
	if e := clk.BandExtent(); e.All || len(e.Spans) != 3 ||
		e.Spans[0] != (emsim.Span{Lo: 100e3, Hi: 100e3}) ||
		e.Spans[1] != (emsim.Span{Lo: 300e3, Hi: 300e3}) ||
		e.Spans[2] != (emsim.Span{Lo: 500e3, Hi: 500e3}) {
		t.Errorf("UnmodulatedClock extent = %+v, want odd harmonics 100/300/500 kHz", e)
	}
	ssc := &SSCClock{F0: 333e6, SpreadHz: 1e6, MaxHarmonics: 3}
	if e := ssc.BandExtent(); e.All || len(e.Spans) != 2 ||
		e.Spans[0] != (emsim.Span{Lo: 332e6, Hi: 333e6}) ||
		e.Spans[1] != (emsim.Span{Lo: 996e6, Hi: 999e6}) {
		t.Errorf("SSCClock extent = %+v, want spread spans per odd harmonic", e)
	}
	unspread := &SSCClock{F0: 133e6, MaxHarmonics: 1}
	if e := unspread.BandExtent(); len(e.Spans) != 1 ||
		e.Spans[0] != (emsim.Span{Lo: 133e6, Hi: 133e6}) {
		t.Errorf("unspread SSCClock extent = %+v, want degenerate line", e)
	}
	if e := (&RefreshEmitter{}).BandExtent(); !e.All {
		t.Errorf("RefreshEmitter extent = %+v, want everywhere (wideband impulses)", e)
	}
	if e := (&ConstantOnTimeRegulator{}).BandExtent(); !e.All {
		t.Errorf("ConstantOnTimeRegulator extent = %+v, want everywhere (wideband impulses)", e)
	}
}

// renderDirect renders c alone into an n-sample capture of band by
// calling its Render directly, with its own prep: no plan culls it.
func renderDirect(c emsim.Component, band emsim.Band, n int, seed int64) []complex128 {
	ctx := &emsim.Context{Band: band, N: n, Rand: rand.New(rand.NewSource(seed))}
	if p, ok := c.(emsim.Prepper); ok {
		ctx.Prep = p.Prepare(band, n)
	}
	dst := make([]complex128, n)
	c.Render(dst, ctx)
	return dst
}

// TestMachineExtentExactness checks the Extenter contract for the
// line/span emitters, on one of their lines and far from all of them:
// when a band does not overlap the extent, Render must leave the buffer
// untouched. Rendering directly keeps the planner's culling out of the
// check.
func TestMachineExtentExactness(t *testing.T) {
	far := emsim.Band{Center: 10e6, SampleRate: 1e5} // far from every line below
	for _, tc := range []struct {
		c    emsim.Component
		line float64
	}{
		{&SwitchingRegulator{Label: "reg", FSw: 315e3, BaseDuty: 0.083,
			FundamentalDBm: -104, MaxHarmonics: 4, WanderSigma: 350,
			WanderTau: 1.2e-3, LoopBw: 65e3, Dom: activity.DomainDRAM}, 630e3},
		{&UnmodulatedClock{Label: "clk", F0: 400e3, FundamentalDBm: -110,
			MaxHarmonics: 5, WanderSigma: 10, WanderTau: 1e-3}, 1.2e6},
		{&SSCClock{Label: "ssc", F0: 333e6, SpreadHz: 1e6, RateHz: 10e3,
			Profile: sig.SineSweep{}, FundamentalDBm: -98, IdleFrac: 0.4,
			MaxHarmonics: 1, Dom: activity.DomainDRAM}, 332.5e6},
	} {
		e := tc.c.(emsim.Extenter).BandExtent()
		rendered := false
		for _, band := range []emsim.Band{{Center: tc.line, SampleRate: 1e5}, far} {
			for i, v := range renderDirect(tc.c, band, 512, 13) {
				if v == 0 {
					continue
				}
				if !e.Overlaps(band) {
					t.Fatalf("%s: rendered %v at sample %d in %+v, outside its extent", tc.c.Name(), v, i, band)
				}
				rendered = true
			}
		}
		if !rendered {
			t.Fatalf("%s rendered nothing on its own line; the check is vacuous", tc.c.Name())
		}
	}
}

// benchRender measures one component rendering a capture band.
func benchRender(b *testing.B, c emsim.Component, band emsim.Band) {
	b.Helper()
	scene := &emsim.Scene{}
	scene.Add(c)
	const n = 1 << 14
	band.SampleRate = n * 100
	dst := make([]complex128, n)
	capt := emsim.Capture{Band: band, N: n, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = 0
		}
		scene.RenderInto(dst, capt)
	}
}

// BenchmarkEmitterRender measures each emitter type with the capture band
// on top of its lines (in) and far away (out). The out cases bound the
// cost a sweep pays for components the planner cannot cull.
func BenchmarkEmitterRender(b *testing.B) {
	mk := map[string]func() emsim.Component{
		"SwitchingRegulator": func() emsim.Component {
			return &SwitchingRegulator{Label: "reg", FSw: 315e3, BaseDuty: 0.083,
				DutySwing: 0.035, FundamentalDBm: -104, MaxHarmonics: 12,
				WanderSigma: 350, WanderTau: 1.2e-3, LoopBw: 65e3, Dom: activity.DomainDRAM}
		},
		"UnmodulatedClock": func() emsim.Component {
			return &UnmodulatedClock{Label: "clk", F0: 266e3, FundamentalDBm: -110, MaxHarmonics: 9}
		},
		"WanderingClock": func() emsim.Component {
			return &UnmodulatedClock{Label: "clk", F0: 266e3, FundamentalDBm: -110,
				MaxHarmonics: 9, WanderSigma: 20, WanderTau: 1e-3}
		},
		"SSCClock": func() emsim.Component {
			return &SSCClock{Label: "ssc", F0: 333e6, SpreadHz: 1e6, RateHz: 10e3,
				Profile: sig.SineSweep{}, FundamentalDBm: -98, IdleFrac: 0.4,
				MaxHarmonics: 3, Dom: activity.DomainDRAM}
		},
		"RefreshEmitter": func() emsim.Component {
			return &RefreshEmitter{Label: "refresh", TRefi: 7.8125e-6, PulseWidth: 200e-9,
				LineDBm: -124, Ranks: 4, NearRankWeights: []float64{1, 0.05, 0.05, 0.05},
				DisruptGain: 0.35, JitterIdle: 0.002, MaxHarmonics: 7, Dom: activity.DomainDRAM}
		},
		"ConstantOnTimeRegulator": func() emsim.Component {
			return &ConstantOnTimeRegulator{Label: "cot", F0: 390e3, FreqSwing: 0.15,
				TOn: 300e-9, FundamentalDBm: -109, WanderSigma: 9e3, WanderTau: 4e-3,
				Dom: activity.DomainCore}
		},
		"AMStation": func() emsim.Component {
			return &emsim.AMStation{Call: "AM", Freq: 750e3, PowerMw: 1e-10, AudioSeed: 3}
		},
		"Background": func() emsim.Component {
			return &emsim.Background{FloorDBmPerHz: -172}
		},
	}
	// Band centers that land on (in) and away from (out) each emitter's
	// lines; Everywhere-extent components cost the same either way.
	centers := map[string][2]float64{
		"SwitchingRegulator":      {315e3, 5e6},
		"UnmodulatedClock":        {266e3, 5e6},
		"WanderingClock":          {266e3, 5e6},
		"SSCClock":                {332.5e6, 5e6},
		"RefreshEmitter":          {512e3, 5e6},
		"ConstantOnTimeRegulator": {390e3, 5e6},
		"AMStation":               {750e3, 5e6},
		"Background":              {750e3, 5e6},
	}
	for _, name := range []string{"SwitchingRegulator", "UnmodulatedClock",
		"WanderingClock", "SSCClock", "RefreshEmitter",
		"ConstantOnTimeRegulator", "AMStation", "Background"} {
		for i, which := range []string{"in", "out"} {
			b.Run(fmt.Sprintf("%s/%s", name, which), func(b *testing.B) {
				benchRender(b, mk[name](), emsim.Band{Center: centers[name][i]})
			})
		}
	}
}

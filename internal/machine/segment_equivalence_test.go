package machine

import (
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
)

// noWanderScene exercises the segmented render paths randomScene cannot:
// a wander-free regulator (whose constant-load tail renders through the
// fused loop with no per-sample OU draw) and an unspread but
// load-following clock (the p3m-laptop's SDRAM clock class).
func noWanderScene(r *rand.Rand) *emsim.Scene {
	scene := &emsim.Scene{}
	scene.Add(
		&SwitchingRegulator{
			Label:          "quiet reg",
			FSw:            250e3 + r.Float64()*200e3,
			BaseDuty:       0.08 + r.Float64()*0.2,
			DutySwing:      0.03 + r.Float64()*0.05,
			AmpSwing:       r.Float64() * 0.3,
			FundamentalDBm: -110,
			MaxHarmonics:   1 + r.Intn(8),
			LoopBw:         65e3,
			Dom:            activity.DomainMemCtl,
		},
		&SSCClock{
			Label:          "unspread memory clock",
			F0:             0.5e6 + r.Float64()*2e6,
			FundamentalDBm: -112,
			IdleFrac:       0.5,
			MaxHarmonics:   1 + 2*r.Intn(2),
			Dom:            activity.DomainDRAM,
		},
		&emsim.Background{FloorDBmPerHz: -172},
	)
	return scene
}

// TestSegmentedRenderEquivalence is the run-length segmentation's core
// property test: the production render (change-point segmented
// regulators and clocks, blocked refresh impulse train) must be
// bit-identical to the per-sample oracles (oracleScene) — across
// randomized scenes, bands, seeds, and activity traces: idle, constant,
// alternating at a rate that splits every capture into thousands of
// short runs, and alternating slowly enough that the regulator's control
// loop settles inside a run (the settle-skip). Every other trial centers
// its band on a carrier of a load-following regulator or clock, so their
// segmented kernels actually render instead of scanning an empty band.
func TestSegmentedRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for trial := 0; trial < 12; trial++ {
		scene := randomScene(r)
		if trial%3 == 0 {
			scene = noWanderScene(r)
		}
		n := 1 << (9 + r.Intn(3)) // 512..2048
		band := emsim.Band{
			Center:     100e3 + r.Float64()*4e6,
			SampleRate: float64(n) * (50 + r.Float64()*200),
		}
		if f, ok := loadFollowingCarrier(scene, r); ok && trial%2 == 1 {
			band.Center = f + (r.Float64()-0.5)*band.SampleRate/4
		}
		kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2, activity.Idle}
		dur := 0.5 + float64(n)/band.SampleRate
		traces := []*activity.Trace{
			nil,
			microbench.Constant(kinds[r.Intn(len(kinds))]),
			microbench.Generate(microbench.Config{
				X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
				FAlt:   30e3 + r.Float64()*20e3,
				Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
			}, dur),
			microbench.Generate(microbench.Config{
				X: activity.LDM, Y: activity.Idle,
				FAlt:   200 + r.Float64()*800,
				Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
			}, dur),
		}
		for ti, trace := range traces {
			capt := emsim.Capture{
				Band: band, N: n,
				Start:     r.Float64() * 0.2,
				Seed:      r.Int63(),
				Activity:  trace,
				NearField: r.Intn(4) == 0, NearFieldGainDB: 30,
			}
			want := make([]complex128, n)
			oracleScene(scene).RenderInto(want, capt)
			got := make([]complex128, n)
			scene.RenderInto(got, capt)
			bitsEqual(t, "segmented render", trial*100+ti, got, want)
		}
	}
}

// loadFollowingCarrier picks one of scene's activity-modulated switching
// regulators and clocks — the emitters with run-length segmented kernels —
// at random, then one of its carriers below 5 MHz.
func loadFollowingCarrier(scene *emsim.Scene, r *rand.Rand) (float64, bool) {
	var combs [][]float64
	for _, c := range scene.Components {
		var carriers []float64
		switch g := c.(type) {
		case *SwitchingRegulator:
			carriers = g.Carriers(50e3, 5e6)
		case *SSCClock:
			if g.Dom != activity.DomainNone {
				carriers = g.Carriers(50e3, 5e6)
			}
		}
		if len(carriers) > 0 {
			combs = append(combs, carriers)
		}
	}
	if len(combs) == 0 {
		return 0, false
	}
	carriers := combs[r.Intn(len(combs))]
	return carriers[r.Intn(len(carriers))], true
}

// TestConstantOnTimeBlockedRenderEquivalence holds the constant-on-time
// regulator's blocked render (stack blocks of cotBlock pulses, one
// AddTrain each) to its per-pulse oracle bit for bit, over captures from
// a few pulses (one partial block) to a few thousand, with random bands,
// starts, seeds, probe models and activity.
func TestConstantOnTimeBlockedRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(389))
	kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2, activity.Idle}
	for trial := 0; trial < 60; trial++ {
		reg := &ConstantOnTimeRegulator{
			Label:          "cot",
			F0:             300e3 + r.Float64()*200e3,
			FreqSwing:      0.15,
			TOn:            300e-9,
			FundamentalDBm: -118,
			WanderSigma:    r.Float64() * 4e3,
			WanderTau:      5e-3,
			Dom:            activity.DomainCore,
		}
		scene := &emsim.Scene{}
		scene.Add(reg)
		n := 256 << r.Intn(5) // 256..4096
		fs := 1e6 + r.Float64()*19e6
		trace := microbench.Generate(microbench.Config{
			X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
			FAlt:   200 + r.Float64()*50e3,
			Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
		}, 0.5)
		capt := emsim.Capture{
			Band:      emsim.Band{Center: 100e3 + r.Float64()*4e6, SampleRate: fs},
			N:         n,
			Start:     r.Float64() * 0.2,
			Seed:      r.Int63(),
			Activity:  trace,
			NearField: r.Intn(4) == 0, NearFieldGainDB: 30,
		}
		want := make([]complex128, n)
		oracleScene(scene).RenderInto(want, capt)
		got := make([]complex128, n)
		scene.RenderInto(got, capt)
		bitsEqual(t, "constant-on-time render", trial, got, want)
	}
}

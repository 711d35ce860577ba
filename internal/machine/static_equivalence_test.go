package machine

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
)

// bitsEqual compares two renders sample for sample at the bit level.
func bitsEqual(t *testing.T, tag string, trial int, got, want []complex128) {
	t.Helper()
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s trial %d: sample %d differs: got %v, want %v",
				tag, trial, i, got[i], want[i])
		}
	}
}

// TestStaticLayerRenderEquivalence is the static cache's core property
// test: replaying a capture's cached activity-independent layer must be
// bit-identical to rendering every component live — across randomized
// scenes and (the point of the cache) across different activity traces
// sharing one static set.
func TestStaticLayerRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1851))
	cached := 0
	for trial := 0; trial < 10; trial++ {
		scene := randomScene(r)
		n := 1 << (9 + r.Intn(3)) // 512..2048
		band := emsim.Band{
			Center:     100e3 + r.Float64()*4e6,
			SampleRate: float64(n) * (50 + r.Float64()*200),
		}
		capt := emsim.Capture{
			Band: band, N: n,
			Start:     r.Float64() * 0.2,
			Seed:      r.Int63(),
			NearField: r.Intn(4) == 0,
		}
		kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2}
		traces := []*activity.Trace{nil, microbench.Generate(microbench.Config{
			X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
			FAlt:   30e3 + r.Float64()*20e3,
			Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
		}, 0.5+float64(n)/band.SampleRate)}

		capt.Plan = scene.Plan(band, n)
		// One static set serves every capture whose conditional-static key
		// matches — the unconditional layer always does, and the
		// conditional layer only when the window-constant loads agree.
		// Captures keying differently rebuild, mirroring the analyzer's
		// two-level cache.
		sets := map[string]*emsim.StaticSet{}
		for ti, trace := range traces {
			build := capt
			build.Activity = trace
			key := string(scene.AppendCondStaticKey(nil, build))
			static, ok := sets[key]
			if !ok {
				static = scene.BuildStaticSet(build)
				sets[key] = static
				if static != nil {
					cached += static.Components()
				}
			}
			if static == nil {
				continue
			}
			live, replayed := build, build
			replayed.Static = static
			want := make([]complex128, n)
			scene.RenderInto(want, live)
			got := make([]complex128, n)
			scene.RenderInto(got, replayed)
			bitsEqual(t, "static replay", trial*100+ti, got, want)
		}
	}
	if cached == 0 {
		t.Fatal("no component was ever cached; the equivalence test is vacuous")
	}
}

// TestStaticClassification pins which emitters may enter the static layer:
// activity-modulated sources must never classify static, while clocks
// whose envelope cannot move always do.
func TestStaticClassification(t *testing.T) {
	band := emsim.Band{Center: 300e3, SampleRate: 600e3}
	if _, ok := emsim.Component(&SwitchingRegulator{FSw: 315e3, MaxHarmonics: 4}).(emsim.StaticRenderer); ok {
		t.Error("SwitchingRegulator must not classify static (activity-modulated)")
	}
	if _, ok := emsim.Component(&RefreshEmitter{}).(emsim.StaticRenderer); ok {
		t.Error("RefreshEmitter must not classify static (activity-disrupted timing)")
	}
	if _, ok := emsim.Component(&RefreshEmitter{}).(emsim.CondStaticRenderer); ok {
		t.Error("RefreshEmitter must not classify conditionally static (per-pulse load reads)")
	}
	clk := &UnmodulatedClock{F0: 100e3, MaxHarmonics: 5}
	if !clk.Static(band, 512) {
		t.Error("UnmodulatedClock must classify static")
	}
	modulated := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 0.4, Dom: activity.DomainDRAM}
	if modulated.Static(band, 512) {
		t.Error("activity-modulated SSCClock must not classify static")
	}
	decoy := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 0.4, Dom: activity.DomainNone}
	if !decoy.Static(band, 512) {
		t.Error("DomainNone SSCClock must classify static")
	}
	idle := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 1, Dom: activity.DomainDRAM}
	if !idle.Static(band, 512) {
		t.Error("IdleFrac=1 SSCClock must classify static")
	}
}

// TestStaticSetCondKeyMismatch pins RenderInto's replay check in both
// directions: a set built while the regulator's domain load alternated
// (no conditional members) must not serve a capture that holds that load
// constant, and a set holding the regulator must not serve a capture
// whose load alternates. Either replay would render the regulator on the
// wrong side of the static layer.
func TestStaticSetCondKeyMismatch(t *testing.T) {
	reg := &SwitchingRegulator{Label: "reg", FSw: 315e3, BaseDuty: 0.083,
		DutySwing: 0.035, FundamentalDBm: -104, MaxHarmonics: 4,
		WanderSigma: 350, WanderTau: 1.2e-3, LoopBw: 65e3, Dom: activity.DomainDRAM}
	scene := &emsim.Scene{}
	scene.Add(reg, &UnmodulatedClock{Label: "clk", F0: 300e3, FundamentalDBm: -110, MaxHarmonics: 3},
		&emsim.Background{FloorDBmPerHz: -172})
	const n = 1024
	alt := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
		Jitter: microbench.DefaultJitter(), Seed: 3,
	}, 0.1)
	constant := microbench.Constant(activity.LDM)
	capt := emsim.Capture{Band: emsim.Band{Center: 315e3, SampleRate: 102.4e3}, N: n, Seed: 5}
	for _, tc := range []struct {
		name         string
		build, use   *activity.Trace
		wantBuildKey bool
	}{
		{"alternating set, constant capture", alt, constant, false},
		{"constant set, alternating capture", constant, alt, true},
	} {
		build := capt
		build.Activity = tc.build
		if key := scene.AppendCondStaticKey(nil, build); (len(key) > 0) != tc.wantBuildKey {
			t.Fatalf("%s: build key %x, want non-empty %v", tc.name, key, tc.wantBuildKey)
		}
		use := capt
		use.Activity = tc.use
		use.Static = scene.BuildStaticSet(build)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: replay under a mismatched cond-static key did not panic", tc.name)
				}
			}()
			scene.RenderInto(make([]complex128, n), use)
		}()
	}
}

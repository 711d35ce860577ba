package core

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/specan"
)

// adaptiveCampaign is the regulator-band campaign the adaptive tests
// share: the transform cap pinned so the band splits into segments a
// window re-sweep can avoid, and a budget well under the exhaustive
// capture cost (40 at MaxFFT 2048).
func adaptiveCampaign(budget int) Campaign {
	return Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
		MaxFFT: 2048, Budget: budget, Adaptive: &AdaptivePlan{},
	}
}

// TestAdaptiveEndToEnd runs the planner over the regulator scene and
// requires it to reproduce the exhaustive campaign's detections — the
// two memory regulators and the memory-controller regulator, and NOT
// the equally-loaded core regulator — on a fraction of the captures.
func TestAdaptiveEndToEnd(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}

	exhaustive := adaptiveCampaign(0)
	exhaustive.Budget, exhaustive.Adaptive = 0, nil
	exRes, err := runner.RunE(exhaustive)
	if err != nil {
		t.Fatal(err)
	}

	res, err := runner.RunE(adaptiveCampaign(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures > 16 {
		t.Fatalf("adaptive campaign spent %d captures over its budget of 16", res.Captures)
	}
	if res.Captures >= exRes.Captures {
		t.Fatalf("adaptive spent %d captures, no better than exhaustive %d", res.Captures, exRes.Captures)
	}
	wantCarriers := []float64{315e3, 475e3, 512e3}
	if len(res.Detections) != len(wantCarriers) {
		t.Fatalf("detections: %+v", res.Detections)
	}
	for i, want := range wantCarriers {
		d := res.Detections[i]
		if math.Abs(d.Freq-want) > 500 {
			t.Errorf("detection %d at %.1f kHz, want %.1f", i, d.Freq/1e3, want/1e3)
		}
		if d.Score < 30 {
			t.Errorf("detection %d score %g", i, d.Score)
		}
	}
	for _, d := range res.Detections {
		if math.Abs(d.Freq-332.5e3) < 1e3 {
			t.Errorf("core regulator detected at %.1f kHz despite equal X/Y load", d.Freq/1e3)
		}
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive campaign returned no planner stats")
	}
	if res.Adaptive.CapturesUsed != res.Captures {
		t.Errorf("stats captures %d != result captures %d", res.Adaptive.CapturesUsed, res.Captures)
	}
	if res.Adaptive.ExhaustiveCaptures != exRes.Captures {
		t.Errorf("stats price the exhaustive campaign at %d captures, really %d",
			res.Adaptive.ExhaustiveCaptures, exRes.Captures)
	}
}

// TestAdaptiveDeterministic: same campaign, same seed, same answer.
func TestAdaptiveDeterministic(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}
	a, err := runner.RunE(adaptiveCampaign(16))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.RunE(adaptiveCampaign(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Detections) != len(b.Detections) {
		t.Fatalf("runs differ: %d vs %d detections", len(a.Detections), len(b.Detections))
	}
	for i := range a.Detections {
		if a.Detections[i].Freq != b.Detections[i].Freq || a.Detections[i].Score != b.Detections[i].Score {
			t.Errorf("detection %d differs: %+v vs %+v", i, a.Detections[i], b.Detections[i])
		}
	}
	if a.Captures != b.Captures {
		t.Errorf("capture spend differs: %d vs %d", a.Captures, b.Captures)
	}
}

// TestAdaptiveCarrierStraddlesSegmentBoundary shrinks the transform cap
// so every refinement window spans several analyzer segments (segment
// span 102.4 kHz against a 300 kHz band): the 315 kHz carrier then sits
// in a different segment than its upper side-band at 358.3 kHz. The
// contract is recall parity with the exhaustive sweep at the identical
// geometry — window padding keeps side-bands in span, and segment
// stitching inside the analyzer is the same code path both use.
func TestAdaptiveCarrierStraddlesSegmentBoundary(t *testing.T) {
	_, scene := regulatorScene()
	runner := &Runner{Scene: scene}

	ex := adaptiveCampaign(0)
	ex.Budget, ex.Adaptive = 0, nil
	ex.MaxFFT = 1024
	exRes, err := runner.RunE(ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(exRes.Detections) == 0 {
		t.Fatal("exhaustive reference found nothing at 1024-point segments")
	}

	c := adaptiveCampaign(30)
	c.MaxFFT = 1024
	res, err := runner.RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures >= exRes.Captures {
		t.Fatalf("adaptive spent %d captures, exhaustive %d", res.Captures, exRes.Captures)
	}
	for _, want := range exRes.Detections {
		ok := false
		for _, d := range res.Detections {
			if math.Abs(d.Freq-want.Freq) <= 1e3 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("exhaustive detection at %.1f kHz lost across segment boundaries", want.Freq/1e3)
		}
	}
	for _, want := range []float64{315e3, 475e3, 512e3} {
		ok := false
		for _, d := range res.Detections {
			if math.Abs(d.Freq-want) <= 1e3 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("carrier at %.1f kHz lost across segment boundaries", want/1e3)
		}
	}
}

// decoyScene pairs a genuine memory-domain regulator at 300 kHz with a
// far weaker one at 600 kHz — strong enough for its modulation
// side-bands to clear the coarse recon pass (≈10 dB over the floor in
// an 800 Hz recon bin), far enough from the carrier that its candidate
// window cannot pad-merge with the genuine one, and weak enough that a
// full-resolution probe scores it orders of magnitude below the real
// emitter.
func decoyScene() *emsim.Scene {
	scene := &emsim.Scene{}
	scene.Add(&machine.SwitchingRegulator{
		Label: "mem regulator (300 kHz)", FSw: 300e3,
		BaseDuty: 0.083, DutySwing: 0.035, FundamentalDBm: -104,
		MaxHarmonics: 1, WanderSigma: 350, WanderTau: 1.2e-3,
		LoopBw: 65e3, Dom: activity.DomainDRAM,
	})
	scene.Add(&machine.SwitchingRegulator{
		Label: "decoy regulator (600 kHz)", FSw: 600e3,
		BaseDuty: 0.083, DutySwing: 0.035, FundamentalDBm: -122,
		MaxHarmonics: 1, WanderSigma: 350, WanderTau: 1.2e-3,
		LoopBw: 65e3, Dom: activity.DomainDRAM,
	})
	scene.Add(&emsim.Background{FloorDBmPerHz: -172})
	return scene
}

// decoyCampaign spans both regulators of decoyScene with enough empty
// band between them that recon produces two disjoint windows.
func decoyCampaign(budget int) Campaign {
	return Campaign{
		F1: 0.2e6, F2: 0.9e6, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 3,
		MaxFFT: 2048, Budget: budget, Adaptive: &AdaptivePlan{},
	}
}

// TestAdaptiveNoiseCandidateAbandoned runs the planner at its fixed
// thresholds over a corpus-style random machine (machine.RandomSystem,
// seed 39) whose recon pass seeds a window around 200–283 kHz that holds
// no modulated carrier: the window's full-resolution probe scores the
// neutral 1, below the abandonment threshold (≈1.97), so it is dropped
// at probe cost, while every planted carrier survives refinement — the
// decoy-resistance the two-stage design buys.
func TestAdaptiveNoiseCandidateAbandoned(t *testing.T) {
	const seed = 39
	sys := machine.RandomSystem(rand.New(rand.NewSource(seed)), machine.RandomSpec{F1: 200e3, F2: 900e3})
	scene := sys.Scene(seed, false)
	runner := &Runner{Scene: scene}
	c := Campaign{
		F1: 200e3, F2: 900e3, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: seed,
		MaxFFT: 2048, Budget: 30, Adaptive: &AdaptivePlan{},
	}
	res, err := runner.RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Adaptive
	if stats == nil {
		t.Fatal("no planner stats")
	}
	var refined int
	var abandoned []obs.AdaptiveWindow
	for _, w := range stats.Windows {
		switch w.Outcome {
		case obs.WindowRefined:
			refined++
		case obs.WindowAbandoned:
			abandoned = append(abandoned, w)
			if w.Detections != 0 {
				t.Errorf("abandoned window [%.0f, %.0f] credited %d detections", w.F1Hz, w.F2Hz, w.Detections)
			}
			if w.Captures <= 0 {
				t.Errorf("abandoned window [%.0f, %.0f] was not charged its probe", w.F1Hz, w.F2Hz)
			}
		}
	}
	if len(abandoned) == 0 {
		t.Errorf("no window was abandoned (windows: %+v)", stats.Windows)
	}
	if refined == 0 {
		t.Error("no window survived to refinement")
	}
	planted := 0
	for _, g := range scene.GroundTruth(c.F1, c.F2, c.X, c.Y, 0.25) {
		if !g.Modulated {
			continue
		}
		planted++
		found := false
		for _, d := range res.Detections {
			if math.Abs(d.Freq-g.Freq) <= 500 {
				found = true
			}
		}
		if !found {
			t.Errorf("planted carrier at %.1f kHz lost; detections: %+v", g.Freq/1e3, res.Detections)
		}
	}
	if planted == 0 {
		t.Fatal("scene plants no modulated carrier")
	}
	for _, w := range abandoned {
		for _, d := range res.Detections {
			if d.Freq >= w.F1Hz && d.Freq <= w.F2Hz {
				t.Errorf("abandoned window [%.0f, %.0f] still detected at %.1f kHz", w.F1Hz, w.F2Hz, d.Freq/1e3)
			}
		}
	}
}

// TestAdaptiveBudgetExhaustionMidRound funds the recon pass and barely
// more, so the planner runs out mid-refinement. The contract: spend
// never exceeds the budget, the highest-priority window is served
// first, and the starved windows report partial or skipped outcomes
// with consistent capture accounting.
func TestAdaptiveBudgetExhaustionMidRound(t *testing.T) {
	runner := &Runner{Scene: decoyScene()}
	full, err := runner.RunE(decoyCampaign(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Adaptive.Windows) < 2 {
		t.Fatalf("need at least two windows to starve, got %+v", full.Adaptive.Windows)
	}
	// Recon plus the first window's full cost, plus one capture: the
	// second window's probe reservation cannot both fit and complete.
	budget := int(full.Adaptive.ReconCaptures + full.Adaptive.Windows[0].Captures + 1)
	res, err := runner.RunE(decoyCampaign(budget))
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Adaptive
	if stats.CapturesUsed > stats.Budget {
		t.Fatalf("spent %d of budget %d", stats.CapturesUsed, stats.Budget)
	}
	if stats.Windows[0].Outcome != obs.WindowRefined {
		t.Errorf("highest-priority window not refined: %+v", stats.Windows[0])
	}
	var starved int
	var total int64
	for i, w := range stats.Windows {
		total += w.Captures
		switch w.Outcome {
		case obs.WindowPartial, obs.WindowSkipped:
			starved++
			if w.Outcome == obs.WindowSkipped && w.Captures != 0 {
				t.Errorf("skipped window %d charged %d captures", i, w.Captures)
			}
		}
	}
	if starved == 0 {
		t.Errorf("starved budget %d produced no partial/skipped windows: %+v", budget, stats.Windows)
	}
	if total != stats.RefineCaptures {
		t.Errorf("window captures sum to %d, refine stage recorded %d", total, stats.RefineCaptures)
	}
}

// TestAdaptiveValidation covers the Budget/Adaptive coupling and the
// plan-level validator.
func TestAdaptiveValidation(t *testing.T) {
	base := func() Campaign {
		c := adaptiveCampaign(16)
		return c
	}
	cases := []struct {
		name   string
		mutate func(*Campaign)
	}{
		{"zero budget", func(c *Campaign) { c.Budget = 0 }},
		{"negative budget", func(c *Campaign) { c.Budget = -4 }},
		{"budget without plan", func(c *Campaign) { c.Adaptive = nil }},
		{"recon finer than campaign", func(c *Campaign) { c.Adaptive = &AdaptivePlan{ReconFres: 50} }},
		{"NaN recon fres", func(c *Campaign) { c.Adaptive = &AdaptivePlan{ReconFres: math.NaN()} }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("baseline adaptive campaign invalid: %v", err)
	}
}

func TestSpreadAndComplementIndices(t *testing.T) {
	cases := []struct {
		k, n int
		want []int
	}{
		{2, 5, []int{0, 4}},
		{3, 5, []int{0, 2, 4}},
		{5, 5, []int{0, 1, 2, 3, 4}},
		{2, 2, []int{0, 1}},
		{1, 5, []int{0}},
	}
	for _, tc := range cases {
		got := spreadIndices(tc.k, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("spreadIndices(%d, %d) = %v", tc.k, tc.n, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("spreadIndices(%d, %d) = %v, want %v", tc.k, tc.n, got, tc.want)
				break
			}
		}
		comp := complementIndices(got, tc.n)
		if len(comp)+len(got) != tc.n {
			t.Errorf("complement of %v in [0,%d) = %v", got, tc.n, comp)
		}
		seen := map[int]bool{}
		for _, i := range got {
			seen[i] = true
		}
		for _, i := range comp {
			if seen[i] {
				t.Errorf("index %d in both %v and complement %v", i, got, comp)
			}
		}
	}
}

// FuzzAdaptivePlan exercises the two load-bearing planner contracts
// with arbitrary inputs:
//
//  1. Campaign.Validate never panics on an adaptive configuration, zero
//     or negative budgets are always rejected, and an accepted plan
//     resolves to a finite recon resolution no finer than the campaign's.
//  2. scheduleRefinement is pure admission control: with fake probe and
//     refine callbacks it terminates, never overcommits the meter,
//     reports one outcome per window, and charges each window
//     consistently with its outcome.
func FuzzAdaptivePlan(f *testing.F) {
	f.Add(int64(30), uint8(3), int64(2), int64(3), 1.95, 5.0, 0.0)
	f.Add(int64(1), uint8(1), int64(0), int64(0), 0.0, 0.0, 800.0)
	f.Add(int64(100), uint8(20), int64(7), int64(11), 2.0, 1.0, 50.0)
	f.Add(int64(-5), uint8(2), int64(1), int64(1), 1.0, 2.0, math.NaN())
	f.Add(int64(0), uint8(0), int64(1), int64(1), 1.0, 2.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, budget int64, nw uint8, probeCost, fullCost int64, threshold, score, reconFres float64) {
		c := Campaign{
			F1: 0.25e6, F2: 0.55e6, Fres: 100,
			FAlt1: 43.3e3, FDelta: 1e3,
			Budget:   int(budget),
			Adaptive: &AdaptivePlan{ReconFres: reconFres},
		}
		err := c.Validate() // must not panic
		if budget <= 0 && err == nil {
			t.Fatalf("budget %d accepted for an adaptive campaign", budget)
		}
		if err == nil {
			rf := c.withDefaults().Adaptive.ReconFres
			if math.IsNaN(rf) || math.IsInf(rf, 0) || rf < c.Fres {
				t.Fatalf("ReconFres %g accepted, resolved to %g", reconFres, rf)
			}
		}

		if budget <= 0 {
			return // no meter to schedule against
		}
		meter := specan.NewMeter(budget)
		windows := make([]refineWindow, int(nw)%24)
		for i := range windows {
			// Vary costs and priorities deterministically per window; keep
			// costs non-negative (the planner prices them from SweepCaptures,
			// which cannot go negative).
			windows[i] = refineWindow{
				idx:       i,
				f1:        float64(i) * 1e3,
				f2:        float64(i)*1e3 + 500,
				priority:  float64((i * 7) % 13),
				probeCost: abs64(probeCost) + int64(i%3),
				fullCost:  abs64(fullCost) + int64(i%5),
			}
		}
		probes, refines := 0, 0
		outcomes := scheduleRefinement(windows, meter, threshold,
			func(w refineWindow) float64 { probes++; return score + float64(w.idx%2) },
			func(w refineWindow, _ float64) int { refines++; return 1 })
		if len(outcomes) != len(windows) {
			t.Fatalf("%d windows, %d outcomes", len(windows), len(outcomes))
		}
		if meter.Reserved() > meter.Cap() {
			t.Fatalf("meter overcommitted: reserved %d cap %d", meter.Reserved(), meter.Cap())
		}
		var charged int64
		lastPriority := math.Inf(1)
		for i, o := range outcomes {
			if o.window.priority > lastPriority {
				t.Fatalf("outcome %d out of priority order: %+v", i, outcomes)
			}
			lastPriority = o.window.priority
			charged += o.captures
			switch o.outcome {
			case obs.WindowSkipped:
				if o.captures != 0 {
					t.Fatalf("skipped window charged %d", o.captures)
				}
			case obs.WindowAbandoned, obs.WindowPartial:
				if o.captures != o.window.probeCost {
					t.Fatalf("%s window charged %d, probe costs %d", o.outcome, o.captures, o.window.probeCost)
				}
			case obs.WindowRefined:
				if o.captures != o.window.probeCost+o.window.fullCost {
					t.Fatalf("refined window charged %d, costs %d+%d", o.captures, o.window.probeCost, o.window.fullCost)
				}
			default:
				t.Fatalf("unknown outcome %q", o.outcome)
			}
		}
		if charged > budget {
			t.Fatalf("windows charged %d of budget %d", charged, budget)
		}
		if probes < refines {
			t.Fatalf("%d refines with only %d probes", refines, probes)
		}
	})
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/obs"
)

// corpusPassSeconds is one pass over the 60-scenario corpus on the
// reference host.
const corpusPassSeconds = 1.45

// The budget pass of the accuracy gate: transforms capped at 2048 points
// split the band into segments a window re-sweep can avoid, and the
// planner may spend 30 of the 100 captures an exhaustive campaign costs.
const (
	corpusMaxFFT = 2048
	corpusBudget = 30
)

// corpusWL runs budgeted adaptive campaigns over the accuracy corpus:
// each pass is the 30% point of the accuracy gate's budget pass — the
// same 60 seeded-random ground-truth scenarios, each with the campaign
// seed the gate gives it — visited in an order the workload seed draws
// afresh for every pass. It drives the render and FFT layers with many
// short 2048-point captures and 1-average refinement sweeps, and it is
// where the planner's spend and its precision/recall trade-off show.
//
// Op latencies here spread from about 5 to 100 ms with no mode, so the
// median moves with the op mix; fixing the mix to the gate's campaigns
// keeps the workload's own median steady and its quality metrics equal
// to the gate's, whatever the seed.
type corpusWL struct {
	seed  int64
	scens []scenario
}

func adaptiveCampaign(seed int64) core.Campaign {
	c := corpusCampaign(seed)
	c.MaxFFT = corpusMaxFFT
	c.Budget = corpusBudget
	c.Adaptive = &core.AdaptivePlan{}
	return c
}

func (w *corpusWL) setup() error {
	spec := corpusSpec()
	for i := 0; i < corpusScenarios; i++ {
		w.scens = append(w.scens, newScenario(spec, i))
	}
	// One warm-up op covers the planner's geometries: recon at 8× RBW
	// and refinement at the full resolution, both under the 2048 cap.
	c := adaptiveCampaign(deriveSeed(w.seed, streamWarm, 0))
	res, err := (&core.Runner{Scene: w.scens[0].scene}).RunE(c)
	return checkAdaptive(res, err, c)
}

func (w *corpusWL) close() {}

// checkAdaptive is the output check of an adaptive campaign: no error,
// a decision record whose spend matches the result, never above the
// budget, and well-formed detections.
func checkAdaptive(res *core.Result, err error, c core.Campaign) error {
	if err != nil {
		return err
	}
	if res.Adaptive == nil || res.Captures > int64(c.Budget) || res.Adaptive.CapturesUsed != res.Captures {
		return fmt.Errorf("adaptive: spent %d captures of budget %d (record %+v)", res.Captures, c.Budget, res.Adaptive)
	}
	return checkDetections(res.Detections, c)
}

// order is pass p's seeded permutation of the corpus.
func (w *corpusWL) order(seed int64, pass int) []int {
	return rand.New(rand.NewSource(deriveSeed(seed, streamPerm, pass))).Perm(len(w.scens))
}

func (w *corpusWL) measure(b *bench) error {
	passes := b.units(corpusPassSeconds)
	n := passes * len(w.scens)
	var recon, refine, refined, abandoned, skipped, useful, windowCaps, captures int64
	var order []int
	for i := 0; i < n; i++ {
		if i%len(w.scens) == 0 {
			order = w.order(b.seed, i/len(w.scens))
		}
		sc := w.scens[order[i%len(w.scens)]]
		c := adaptiveCampaign(sc.campaignSeed())
		b.note(int64(sc.index))
		r := &core.Runner{Scene: sc.scene}
		var res, tres *core.Result
		var err, terr error
		b.twins(i, func() {
			b.lat = append(b.lat, b.timed(func() { res, err = r.RunE(c) }))
		}, func() {
			sp := b.tr.begin("core.adaptive", "", i, -1)
			t0 := time.Now()
			tres, terr = r.RunE(c)
			b.tlat = append(b.tlat, time.Since(t0).Seconds())
			b.tr.end(sp)
		})
		err = checkAdaptive(res, err, c)
		if b.tr != nil && err == nil {
			if terr = checkAdaptive(tres, terr, c); terr == nil && !sameDetections(res.Detections, tres.Detections) {
				terr = fmt.Errorf("adaptive %d: traced rerun differs", i)
			}
			if err = terr; err != nil {
				tres = nil
			}
		}
		if err != nil {
			fmt.Printf("failed op %d: %v\n", i, err)
		}
		b.record(err == nil)
		// Ops are short here: one calibration sample per four ops keeps
		// the kernel's share of the run small.
		if i%4 == 3 {
			b.idle()
		}
		if res == nil {
			continue
		}
		tol := 24 * c.Fres
		hit := b.q.add(sc.truth, detectionFreqs(res.Detections), tol, res.Captures)
		if tres != nil {
			a := tres.Adaptive
			captures += tres.Captures
			recon += a.ReconCaptures
			refine += a.RefineCaptures
			for _, win := range a.Windows {
				switch win.Outcome {
				case obs.WindowRefined:
					refined++
				case obs.WindowAbandoned:
					abandoned++
				default:
					skipped++
				}
				windowCaps += win.Captures
				if yieldsTrue(win, res.Detections, hit) {
					useful += win.Captures
				}
			}
		}
	}
	if b.tr == nil {
		return nil
	}
	perOp := func(v int64) float64 { return float64(v) / float64(n) }
	b.layer["core.adaptive.ms"] = b.spanMS("core.adaptive", "")
	b.layer["trace.op.ms"] = b.layer["core.adaptive.ms"]
	b.layer["specan.captures"] = perOp(captures)
	b.layer["core.adaptive.recon_captures"] = perOp(recon)
	b.layer["core.adaptive.refine_captures"] = perOp(refine)
	b.layer["core.adaptive.windows_refined"] = perOp(refined)
	b.layer["core.adaptive.windows_abandoned"] = perOp(abandoned)
	b.layer["core.adaptive.windows_skipped"] = perOp(skipped)
	if windowCaps > 0 {
		b.layer["core.adaptive.useful_capture_frac"] = float64(useful) / float64(windowCaps)
	}
	scenes := make([]*emsim.Scene, 0, 5)
	for _, sc := range w.scens[:5] {
		scenes = append(scenes, sc.scene)
	}
	probeLayers(b, scenes, corpusF1, corpusF2, corpusFres, corpusMaxFFT)
	return nil
}

// yieldsTrue reports whether a refinement window produced at least one
// true-positive detection.
func yieldsTrue(win obs.AdaptiveWindow, ds []core.Detection, hit []bool) bool {
	for k, d := range ds {
		if hit[k] && d.Freq >= win.F1Hz && d.Freq <= win.F2Hz {
			return true
		}
	}
	return false
}

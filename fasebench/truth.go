package main

import (
	"math"
	"math/rand"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
)

// quality scores detections against emsim.Scene.GroundTruth with the
// accuracy harness's matching rule (internal/verify keeps it unexported):
// a detection is a true positive when a modulated ground-truth carrier
// lies within the tolerance, 24·Fres. Precision is detection-level,
// recall carrier-level (a carrier found by several detections counts
// once), and both are 1 when there is nothing to count.
type quality struct {
	tp, fp       int
	found, total int
	captures     int64
}

// minDelta is the domain-load change below which a carrier is not
// modulated ground truth, as in the accuracy harness.
const minDelta = 0.25

// add scores one op's detections and the captures it rendered. It
// reports, per detection, whether it was a true positive.
func (q *quality) add(truth []emsim.GroundTruthCarrier, freqs []float64, tol float64, captures int64) []bool {
	hit := make([]bool, len(freqs))
	found := map[int]bool{}
	for k, f := range freqs {
		best, bestErr := -1, math.Inf(1)
		for i, t := range truth {
			if err := math.Abs(f - t.Freq); t.Modulated && err <= tol && err < bestErr {
				best, bestErr = i, err
			}
		}
		if best < 0 {
			q.fp++
			continue
		}
		q.tp++
		hit[k] = true
		found[best] = true
	}
	q.found += len(found)
	for _, t := range truth {
		if t.Modulated {
			q.total++
		}
	}
	q.captures += captures
	return hit
}

func (q quality) precision() float64 {
	if q.tp+q.fp == 0 {
		return 1
	}
	return float64(q.tp) / float64(q.tp+q.fp)
}

func (q quality) recall() float64 {
	if q.total == 0 {
		return 1
	}
	return float64(q.found) / float64(q.total)
}

// capturesPerDetection is the measurement cost of one true detection.
// A run without any true positive reports its whole capture count.
func (q quality) capturesPerDetection() float64 {
	return float64(q.captures) / math.Max(float64(q.tp), 1)
}

func detectionFreqs(ds []core.Detection) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Freq
	}
	return out
}

// The accuracy corpus: the scenarios `make accuracy` gates (verify's
// default Config: seed 1, 60 scenarios, the regulator-band campaign).
const (
	corpusScenarios = 60
	corpusSeed      = 1
	corpusF1        = 200e3
	corpusF2        = 900e3
	corpusFres      = 100.0
	corpusFAlt1     = 43.3e3
	corpusFDelta    = 1e3
)

// corpusSpec is verify's RandomSpec for the corpus band: every pair of
// generated lines stays out of the detector's m·f_alt ghost windows
// (m = 1..5 over the five-step ladder, widened by twice the merge
// radius), so no planted carrier is unfindable by construction.
func corpusSpec() machine.RandomSpec {
	spec := machine.RandomSpec{F1: corpusF1, F2: corpusF2}
	const numAlts, maxHarmonic = 5, 5
	faltMin, faltMax := corpusFAlt1, corpusFAlt1+(numAlts-1)*corpusFDelta
	slack := 2 * 24 * corpusFres
	for m := 1; m <= maxHarmonic; m++ {
		spec.AvoidSpacings = append(spec.AvoidSpacings,
			[2]float64{float64(m)*faltMin - slack, float64(m)*faltMax + slack})
	}
	return spec
}

// scenario is one corpus entry: a generated machine scene and its
// ground truth over the corpus band.
type scenario struct {
	index int
	seed  int64
	scene *emsim.Scene
	truth []emsim.GroundTruthCarrier
}

// newScenario rebuilds corpus entry i exactly as the accuracy harness
// does: the scenario seed strides by the prime 6700417, and generation
// retries with a perturbed seed until a modulated carrier is planted.
func newScenario(spec machine.RandomSpec, i int) scenario {
	seed := corpusSeed + int64(i)*6700417
	for attempt := 0; ; attempt++ {
		r := rand.New(rand.NewSource(seed + int64(attempt)*104729))
		scene := machine.RandomSystem(r, spec).Scene(seed, false)
		truth := scene.GroundTruth(corpusF1, corpusF2, activity.LDM, activity.LDL1, minDelta)
		planted := 0
		for _, t := range truth {
			if t.Modulated {
				planted++
			}
		}
		if planted > 0 || attempt >= 20 {
			return scenario{index: i, seed: seed, scene: scene, truth: truth}
		}
	}
}

// campaignSeed is the campaign seed the accuracy harness gives the
// scenario.
func (sc scenario) campaignSeed() int64 { return sc.seed ^ 0x5CA1AB1E }

// corpusCampaign is the corpus campaign at the harness defaults.
func corpusCampaign(seed int64) core.Campaign {
	return core.Campaign{
		F1: corpusF1, F2: corpusF2, Fres: corpusFres,
		FAlt1: corpusFAlt1, FDelta: corpusFDelta,
		X: activity.LDM, Y: activity.LDL1,
		Seed: seed,
	}
}

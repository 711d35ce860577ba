package verify

import (
	"math"
	"sort"

	"fase/internal/core"
	"fase/internal/emsim"
)

// matchResult is one campaign's detections scored against one scenario's
// ground truth.
type matchResult struct {
	tp        int // detections matching a modulated ground-truth carrier
	fp        int // detections matching nothing modulated
	decoyHits int // the subset of fp sitting on an unmodulated carrier

	// found maps modulated-truth index → best matched detection score;
	// freqErr holds the corresponding |f_detected − f_truth|.
	found   map[int]float64
	freqErr map[int]float64

	tpScores []float64 // per matched detection
	fpScores []float64 // per false-positive detection
}

// matchDetections pairs detections with ground truth. A detection is a
// true positive when any *modulated* ground-truth carrier lies within tol
// of it (the closest one is charged with the match); otherwise it is a
// false positive — "decoy hit" when an unmodulated carrier is within tol,
// plain noise/artifact otherwise. Matching prefers modulated carriers so
// a detection between a planted carrier and a nearby decoy is credited,
// not penalized; the corpus generator's MinSepHz keeps that case rare.
func matchDetections(truth []emsim.GroundTruthCarrier, dets []core.Detection, tol float64) matchResult {
	m := matchResult{found: map[int]float64{}, freqErr: map[int]float64{}}
	for _, d := range dets {
		bestMod, bestModErr := -1, math.Inf(1)
		decoy := false
		for i, t := range truth {
			err := math.Abs(d.Freq - t.Freq)
			if err > tol {
				continue
			}
			if t.Modulated {
				if err < bestModErr {
					bestMod, bestModErr = i, err
				}
			} else {
				decoy = true
			}
		}
		if bestMod < 0 {
			m.fp++
			if decoy {
				m.decoyHits++
			}
			m.fpScores = append(m.fpScores, d.Score)
			continue
		}
		m.tp++
		m.tpScores = append(m.tpScores, d.Score)
		if s, ok := m.found[bestMod]; !ok || d.Score > s {
			m.found[bestMod] = d.Score
		}
		if e, ok := m.freqErr[bestMod]; !ok || bestModErr < e {
			m.freqErr[bestMod] = bestModErr
		}
	}
	return m
}

// ScenarioOutcome is the per-scenario row of a corpus pass.
type ScenarioOutcome struct {
	Index   int   `json:"index"`
	Seed    int64 `json:"seed"`
	Planted int   `json:"planted"`
	Decoys  int   `json:"decoys"`
	TP      int   `json:"tp"`
	FP      int   `json:"fp"`
	Missed  int   `json:"missed"`
}

// FreqErrStats summarizes |f_detected − f_truth| over every matched
// carrier in a corpus pass.
type FreqErrStats struct {
	Count       int     `json:"count"`
	MeanAbsHz   float64 `json:"mean_abs_hz"`
	MedianAbsHz float64 `json:"median_abs_hz"`
	P95AbsHz    float64 `json:"p95_abs_hz"`
	MaxAbsHz    float64 `json:"max_abs_hz"`
}

// Corpus aggregates one pass (clean or faulted) over every scenario.
//
// Precision is detection-level: of everything reported, how much sat on a
// planted carrier. Recall is carrier-level: of every planted carrier, how
// many were found at all — multiple detections of one carrier (harmonics
// that failed to merge) don't inflate it. F1 is their harmonic mean.
type Corpus struct {
	Detections    int     `json:"detections"`
	TP            int     `json:"tp"`
	FP            int     `json:"fp"`
	DecoyHits     int     `json:"decoy_hits"`
	CarriersFound int     `json:"carriers_found"`
	CarriersTotal int     `json:"carriers_total"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	F1            float64 `json:"f1"`

	FreqErr FreqErrStats `json:"freq_err"`

	Scenarios []ScenarioOutcome `json:"scenarios"`

	freqErrs []float64
}

func (c *Corpus) add(sc *scenario, m matchResult) {
	c.Detections += m.tp + m.fp
	c.TP += m.tp
	c.FP += m.fp
	c.DecoyHits += m.decoyHits
	c.CarriersFound += len(m.found)
	c.CarriersTotal += sc.planted
	for _, e := range m.freqErr {
		c.freqErrs = append(c.freqErrs, e)
	}
	c.Scenarios = append(c.Scenarios, ScenarioOutcome{
		Index: sc.index, Seed: sc.seed,
		Planted: sc.planted, Decoys: sc.decoys,
		TP: m.tp, FP: m.fp, Missed: sc.planted - len(m.found),
	})
}

func (c *Corpus) finalize() {
	c.Precision = precision(c.TP, c.FP)
	c.Recall = recall(c.CarriersFound, c.CarriersTotal)
	c.F1 = f1(c.Precision, c.Recall)
	c.FreqErr = freqErrStats(c.freqErrs)
	c.freqErrs = nil
}

// precision follows the vacuous-truth convention: no detections at all is
// a clean (if useless) report, not an imprecise one. Recall catches the
// uselessness.
func precision(tp, fp int) float64 {
	if tp+fp == 0 {
		return 1
	}
	return float64(tp) / float64(tp+fp)
}

func recall(found, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(found) / float64(total)
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func freqErrStats(errs []float64) FreqErrStats {
	s := FreqErrStats{Count: len(errs)}
	if len(errs) == 0 {
		return s
	}
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, e := range sorted {
		sum += e
	}
	s.MeanAbsHz = sum / float64(len(sorted))
	s.MedianAbsHz = quantile(sorted, 0.5)
	s.P95AbsHz = quantile(sorted, 0.95)
	s.MaxAbsHz = sorted[len(sorted)-1]
	return s
}

// quantile reads the q-th quantile off an ascending-sorted slice
// (nearest-rank, matching the obs histogram convention).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ROCPoint is one operating point of the threshold sweep: the corpus
// re-scored as if Campaign.MinScore had been Threshold.
type ROCPoint struct {
	Threshold     float64 `json:"threshold"`
	TP            int     `json:"tp"`
	FP            int     `json:"fp"`
	CarriersFound int     `json:"carriers_found"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	F1            float64 `json:"f1"`
}

// rocAccum collects scored candidates from the unthresholded corpus pass.
// Post-hoc thresholding of that pass is a slightly optimistic stand-in
// for re-running each threshold (the pipeline's corroboration gate scales
// with MinScore), so the gated metrics — not the ROC — feed the baseline;
// the curve ranks thresholds against each other.
type rocAccum struct {
	tpScores    []float64
	fpScores    []float64
	carrierBest []float64 // best score per found modulated carrier
	carriers    int       // total modulated carriers in corpus
}

func (a *rocAccum) add(sc *scenario, m matchResult) {
	a.tpScores = append(a.tpScores, m.tpScores...)
	a.fpScores = append(a.fpScores, m.fpScores...)
	for _, s := range m.found {
		a.carrierBest = append(a.carrierBest, s)
	}
	a.carriers += sc.planted
}

// points sweeps the threshold over the observed score range and emits up
// to rocPoints operating points (descending threshold: the curve walks
// from conservative to permissive). The gate threshold is always
// included so the curve shows the shipped operating point.
func (a *rocAccum) points() []ROCPoint {
	sort.Float64s(a.tpScores)
	sort.Float64s(a.fpScores)
	sort.Float64s(a.carrierBest)

	// Candidate thresholds: every distinct observed score, plus the gate.
	seen := map[float64]bool{gateMinScore: true, 0: true}
	for _, s := range a.tpScores {
		seen[s] = true
	}
	for _, s := range a.fpScores {
		seen[s] = true
	}
	cands := make([]float64, 0, len(seen))
	for t := range seen {
		cands = append(cands, t)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(cands)))
	if len(cands) > rocPoints {
		// Subsample evenly, keeping both ends and the gate threshold.
		kept := make([]float64, 0, rocPoints+1)
		for i := 0; i < rocPoints; i++ {
			kept = append(kept, cands[i*(len(cands)-1)/(rocPoints-1)])
		}
		hasGate := false
		for _, t := range kept {
			if t == gateMinScore {
				hasGate = true
				break
			}
		}
		if !hasGate {
			kept = append(kept, gateMinScore)
			sort.Sort(sort.Reverse(sort.Float64Slice(kept)))
		}
		cands = kept
	}

	pts := make([]ROCPoint, 0, len(cands))
	for _, t := range cands {
		tp := countAtOrAbove(a.tpScores, t)
		fp := countAtOrAbove(a.fpScores, t)
		found := countAtOrAbove(a.carrierBest, t)
		p := ROCPoint{
			Threshold: t, TP: tp, FP: fp, CarriersFound: found,
			Precision: precision(tp, fp),
			Recall:    recall(found, a.carriers),
		}
		p.F1 = f1(p.Precision, p.Recall)
		pts = append(pts, p)
	}
	return pts
}

// countAtOrAbove counts elements ≥ t in an ascending-sorted slice.
func countAtOrAbove(sorted []float64, t float64) int {
	return len(sorted) - sort.SearchFloat64s(sorted, t)
}

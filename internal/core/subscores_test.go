package core

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/dsp/spectral"
)

// referenceScoreDetail is the per-harmonic scoring loop the sub-score
// table replaced: every bin recomputes each measurement's floored
// leave-one-out ratio at its shifted bin, once per harmonic.
func referenceScoreDetail(spectra []*spectral.Spectrum, falts []float64, h int) ([]float64, []int) {
	n, bins := len(spectra), spectra[0].Bins()
	colSum := referenceColumnSums(spectra)
	prod, elev := make([]float64, bins), make([]int, bins)
	for k := range prod {
		score, count := 1.0, 0
		for i, s := range spectra {
			m := k + int(math.Round(float64(h)*falts[i]/spectra[0].Fres))
			if m < 0 || m >= bins {
				continue
			}
			v := s.PmW[m]
			if v < scoreFloor {
				v = scoreFloor
			}
			denom := (colSum[m] - v) / float64(n-1)
			if denom < scoreFloor {
				denom = scoreFloor
			}
			r := v / denom
			score *= r
			if r >= elevatedRatio {
				count++
			}
		}
		prod[k], elev[k] = score, count
	}
	return prod, elev
}

// referenceSubScores is SubScores before the table: the same ratio
// expression, per measurement, neutral out of span.
func referenceSubScores(spectra []*spectral.Spectrum, falts []float64, h int) [][]float64 {
	n, bins := len(spectra), spectra[0].Bins()
	colSum := referenceColumnSums(spectra)
	out := make([][]float64, n)
	for i, s := range spectra {
		out[i] = make([]float64, bins)
		for k := range out[i] {
			m := k + int(math.Round(float64(h)*falts[i]/spectra[0].Fres))
			if m < 0 || m >= bins {
				out[i][k] = 1
				continue
			}
			v := s.PmW[m]
			if v < scoreFloor {
				v = scoreFloor
			}
			denom := (colSum[m] - v) / float64(n-1)
			if denom < scoreFloor {
				denom = scoreFloor
			}
			out[i][k] = v / denom
		}
	}
	return out
}

func referenceColumnSums(spectra []*spectral.Spectrum) []float64 {
	colSum := make([]float64, spectra[0].Bins())
	for _, s := range spectra {
		for m, v := range s.PmW {
			if v < scoreFloor {
				v = scoreFloor
			}
			colSum[m] += v
		}
	}
	return colSum
}

func sameBits(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

func sameInts(a, b []int) int {
	for k := range a {
		if a[k] != b[k] {
			return k
		}
	}
	return -1
}

// TestSubScoreTableMatchesPerHarmonicLoop holds every reader of the
// sub-score table — ScoreDetail, scoreHarmonics' stored traces, the
// planner's reused harmonicPair and SubScores — to the per-harmonic loop
// it replaced, bit for bit: harmonics ±1 to ±5 over n = 2, 3 and 5
// measurements, with empty bins under the floor, planted side-bands that
// elevate sub-scores, and shifts reaching partly and wholly out of span.
func TestSubScoreTableMatchesPerHarmonicLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	hs := DefaultHarmonics()
	var partly, wholly, elevated int
	var pair harmonicPair
	for trial := 0; trial < 90; trial++ {
		n := []int{2, 5, 3}[trial%3]
		bins := 1 + rng.Intn(600)
		fres := 20 + 480*rng.Float64()
		spectra := make([]*spectral.Spectrum, n)
		falts := make([]float64, n)
		for i := range spectra {
			s := spectral.New(1e5, fres, bins)
			for k := range s.PmW {
				switch rng.Intn(20) {
				case 0:
					s.PmW[k] = 0
				case 1:
					s.PmW[k] = 1e-3 * math.Exp(3*rng.NormFloat64()) // side-band
				default:
					s.PmW[k] = 1e-9 * math.Exp(rng.NormFloat64())
				}
			}
			spectra[i] = s
			// First-harmonic shifts from 0 to about bins/4, so ±5 reach
			// past the span.
			falts[i] = fres * float64(bins) / 4 * rng.Float64()
		}
		res := &Result{Campaign: Campaign{Harmonics: hs}}
		scoreHarmonics(res, spectra, falts)
		tab := newSubScores(spectra)
		for _, h := range hs {
			wantP, wantE := referenceScoreDetail(spectra, falts, h)
			gotP, gotE := ScoreDetail(spectra, falts, h)
			pairP, pairE := pair.score(tab, falts, h)
			for name, got := range map[string][2]any{
				"ScoreDetail":    {gotP, gotE},
				"scoreHarmonics": {res.Scores[h], res.Elevated[h]},
				"harmonicPair":   {pairP, pairE},
			} {
				if k := sameBits(got[0].([]float64), wantP); k >= 0 {
					t.Fatalf("trial %d n %d h %d: %s product at bin %d = %v, want %v", trial, n, h, name, k, got[0].([]float64)[k], wantP[k])
				}
				if k := sameInts(got[1].([]int), wantE); k >= 0 {
					t.Fatalf("trial %d n %d h %d: %s elevated at bin %d = %d, want %d", trial, n, h, name, k, got[1].([]int)[k], wantE[k])
				}
			}
			wantS, gotS := referenceSubScores(spectra, falts, h), SubScores(spectra, falts, h)
			for i := range wantS {
				if k := sameBits(gotS[i], wantS[i]); k >= 0 {
					t.Fatalf("trial %d n %d h %d: SubScores[%d] at bin %d = %v, want %v", trial, n, h, i, k, gotS[i][k], wantS[i][k])
				}
			}
			for i := range falts {
				switch sh := abs(tab.shift(falts[i], h)); {
				case sh >= bins:
					wholly++
				case sh > 0:
					partly++
				}
			}
			for _, e := range wantE {
				if e > 0 {
					elevated++
				}
			}
		}
		tab.release()
	}
	if partly == 0 || wholly == 0 || elevated == 0 {
		t.Fatalf("coverage: %d shifts partly and %d wholly out of span, %d elevated bins", partly, wholly, elevated)
	}
}

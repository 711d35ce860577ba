// Package core implements FASE itself: the side-band shift heuristic of
// §2.4 (Equations 1 and 2), the multi-f_alt measurement campaign of §2.3,
// carrier detection and frequency computation, harmonic-set grouping, and
// cross-activity classification.
//
// The idea: when the micro-benchmark alternates activity at f_alt, every
// carrier that is AM-modulated by that activity grows side-bands at
// fc ± h·f_alt. Stepping f_alt by f_Δ moves only those side-bands — by
// h·f_Δ — while every other feature of the spectrum stays put. The
// heuristic scores each frequency f by how much each measurement's
// spectrum, shifted by h·f_alt_i, sticks out above the other measurements
// shifted by their own h·f_alt_j: only true side-bands align, so the
// product of sub-scores spikes exactly at modulated carrier frequencies.
package core

import (
	"fmt"
	"math"

	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/spectral"
)

// scoreFloor keeps ratios finite on empty bins.
const scoreFloor = 1e-30

// elevatedRatio is the sub-score ratio at which ScoreDetail counts a
// measurement as elevated.
const elevatedRatio = 2

// Score evaluates the heuristic F_h(f) of Equation 1 for one harmonic h
// over the common frequency grid of the measurements. spectra[i] must all
// share geometry; falts[i] is the alternation frequency of measurement i.
// The returned slice is indexed like the spectra's bins: out[k] is F_h of
// the frequency spectra[0].Freq(k), interpreted as a candidate carrier
// frequency.
//
// Sub-score i reads measurement i at its shifted frequency f + h·falt_i
// and normalizes by the average of the *other* measurements at that same
// frequency ("At the exact same frequency in at least some of the other
// spectra, however, the signal will not be as strong because these
// spectra have peaks at falt_j and so their side-band signal is at a
// different frequency", §2.4). A side-band that moves with f_alt makes
// every sub-score large at f = fc; anything that stays put cancels to ≈1.
//
// Sub-scores whose shifted bin falls outside the measured span are
// neutral (1), implementing the paper's robustness to obscured or
// out-of-range side-bands: remaining sub-scores still raise the product.
func Score(spectra []*spectral.Spectrum, falts []float64, h int) []float64 {
	prod, _ := ScoreDetail(spectra, falts, h)
	return prod
}

// ScoreDetail computes the heuristic product trace (as Score) plus, per
// bin, the number of sub-scores of at least elevatedRatio (2×). A genuine
// moving side-band elevates *every* measurement's sub-score at the carrier
// frequency, while artifacts (probes sampling the fluctuating flank of a
// static line) elevate only a few — so requiring a majority of elevated
// sub-scores discriminates carriers from ghosts without sacrificing the
// paper's robustness to a minority of obscured side-bands.
func ScoreDetail(spectra []*spectral.Spectrum, falts []float64, h int) ([]float64, []int) {
	t := newSubScores(spectra)
	defer t.release()
	prod, elev := make([]float64, t.bins), make([]int, t.bins)
	t.product(prod, elev, falts, h)
	return prod, elev
}

// subScores is Eq. 2's sub-score table for one set of measurements: row
// i, bin m holds measurement i's power at m over the mean of the other
// measurements there, each floored at scoreFloor. A sub-score of
// harmonic h at bin k is row i at m = k + shift_i(h), so the table holds
// every harmonic's ratios, each computed once; only the shift depends on
// h. The rows live in one pooled buffer; release returns it.
type subScores struct {
	n, bins int
	fres    float64
	r       []float64 // r[i·bins+m], then scratch
}

// newSubScores checks that spectra are at least two measurements of one
// geometry and builds their sub-score table.
func newSubScores(spectra []*spectral.Spectrum) *subScores {
	n := len(spectra)
	if n < 2 {
		panic(fmt.Sprintf("core: need at least 2 measurements, got %d", n))
	}
	base := spectra[0]
	for _, s := range spectra[1:] {
		if s.F0 != base.F0 || s.Fres != base.Fres || s.Bins() != base.Bins() {
			panic("core: measurement spectra must share geometry")
		}
	}
	bins := base.Bins()
	// One pooled buffer holds the n rows and, after them, colSum[m]: the
	// measurements' floored total at bin m, summed in measurement order,
	// which makes a leave-one-out mean O(1).
	t := &subScores{n: n, bins: bins, fres: base.Fres, r: bufpool.Float((n + 1) * bins)}
	colSum := t.r[n*bins:]
	clear(colSum)
	for _, s := range spectra {
		for m, v := range s.PmW {
			if v < scoreFloor {
				v = scoreFloor
			}
			colSum[m] += v
		}
	}
	for i, s := range spectra {
		row := t.row(i)
		for m, v := range s.PmW {
			if v < scoreFloor {
				v = scoreFloor
			}
			denom := (colSum[m] - v) / float64(n-1)
			if denom < scoreFloor {
				denom = scoreFloor
			}
			row[m] = v / denom
		}
	}
	return t
}

// row returns measurement i's sub-scores by unshifted bin.
func (t *subScores) row(i int) []float64 { return t.r[i*t.bins : (i+1)*t.bins] }

// shift is measurement i's bin shift for harmonic h at alternation
// frequency fa.
func (t *subScores) shift(fa float64, h int) int {
	return int(math.Round(float64(h) * fa / t.fres))
}

// release returns the table's buffer to the pool; t is unusable after.
func (t *subScores) release() {
	bufpool.PutFloat(t.r)
	t.r = nil
}

// product writes harmonic h's heuristic trace into prod and, per bin, its
// count of sub-scores of at least elevatedRatio into elev; both must hold
// t.bins elements. Sub-scores whose shifted bin leaves the span are
// neutral. The walk goes measurement by measurement, so every bin
// multiplies its sub-scores in measurement order, starting from 1.
func (t *subScores) product(prod []float64, elev []int, falts []float64, h int) {
	if len(falts) != t.n {
		panic(fmt.Sprintf("core: %d spectra but %d alternation frequencies", t.n, len(falts)))
	}
	if h == 0 {
		panic("core: harmonic must be nonzero")
	}
	prod, elev = prod[:t.bins], elev[:t.bins]
	for k := range prod {
		prod[k], elev[k] = 1, 0
	}
	for i, fa := range falts {
		sh := t.shift(fa, h)
		// Bins k with k+sh in [0, bins).
		k0, k1 := max(0, -sh), min(t.bins, t.bins-sh)
		if k0 >= k1 {
			continue
		}
		row := t.row(i)[k0+sh : k1+sh]
		p, e := prod[k0:k1], elev[k0:k1]
		for j, r := range row {
			p[j] *= r
			if r >= elevatedRatio {
				e[j]++
			}
		}
	}
}

// SmoothSpectrum returns a copy of s whose bins are replaced by a
// centered moving average of width w (forced odd). Scoring smoothed
// spectra matched to the side-band linewidth suppresses the chi-square
// tails of per-bin ratios that would otherwise produce false peaks, while
// preserving the ratio between a true side-band and the other
// measurements' floor.
func SmoothSpectrum(s *spectral.Spectrum, w int) *spectral.Spectrum {
	out := s.Clone()
	SmoothSpectrumInto(out, s, w)
	return out
}

// SmoothSpectrumInto is the allocation-free form of SmoothSpectrum: it
// writes the width-w moving average of src into dst, whose PmW must
// already hold src.Bins() elements (e.g. from bufpool.Float — every
// element is overwritten, so a dirty pooled buffer is fine). dst must not
// alias src. Campaigns smooth one ~78k-bin spectrum per measurement, so
// pooling these buffers keeps scoring allocation-free in steady state.
func SmoothSpectrumInto(dst, src *spectral.Spectrum, w int) {
	n := src.Bins()
	if len(dst.PmW) != n {
		panic(fmt.Sprintf("core: smoothing %d bins into a %d-bin destination", n, len(dst.PmW)))
	}
	dst.F0, dst.Fres = src.F0, src.Fres
	if w <= 1 {
		copy(dst.PmW, src.PmW)
		return
	}
	if w%2 == 0 {
		w++
	}
	half := w / 2
	var acc float64
	// Prefix-sum sliding window: O(n) for any width.
	for i := 0; i < n && i <= half; i++ {
		acc += src.PmW[i]
	}
	count := minInt(half+1, n)
	for i := 0; i < n; i++ {
		dst.PmW[i] = acc / float64(count)
		if hi := i + half + 1; hi < n {
			acc += src.PmW[hi]
			count++
		}
		if lo := i - half; lo >= 0 {
			acc -= src.PmW[lo]
			count--
		}
	}
}

// smoothPooled smooths each spectrum into a pool-backed copy; release
// with releaseSmoothed.
func smoothPooled(spectra []*spectral.Spectrum, w int) []*spectral.Spectrum {
	out := make([]*spectral.Spectrum, len(spectra))
	for i, s := range spectra {
		out[i] = &spectral.Spectrum{PmW: bufpool.Float(s.Bins())}
		SmoothSpectrumInto(out[i], s, w)
	}
	return out
}

func releaseSmoothed(sm []*spectral.Spectrum) {
	for _, s := range sm {
		bufpool.PutFloat(s.PmW)
		s.PmW = nil
	}
}

// scoreHarmonics scores every harmonic of res's campaign over the
// smoothed spectra into res.Scores and res.Elevated, from one sub-score
// table.
func scoreHarmonics(res *Result, smoothed []*spectral.Spectrum, falts []float64) {
	hs := res.Campaign.Harmonics
	res.Scores = make(map[int][]float64, len(hs))
	res.Elevated = make(map[int][]int, len(hs))
	t := newSubScores(smoothed)
	for _, h := range hs {
		prod, elev := make([]float64, t.bins), make([]int, t.bins)
		t.product(prod, elev, falts, h)
		res.Scores[h], res.Elevated[h] = prod, elev
	}
	t.release()
}

// harmonicPair is one reusable heuristic trace and its elevated counts,
// for scoring that reads each harmonic before it scores the next and
// keeps none: the adaptive planner's window probes and refinements.
type harmonicPair struct {
	prod []float64
	elev []int
}

// score fills the pair with harmonic h's product and elevated counts
// over t and returns them, valid until the next call.
func (p *harmonicPair) score(t *subScores, falts []float64, h int) ([]float64, []int) {
	if cap(p.prod) < t.bins {
		p.prod, p.elev = make([]float64, t.bins), make([]int, t.bins)
	}
	p.prod, p.elev = p.prod[:t.bins], p.elev[:t.bins]
	t.product(p.prod, p.elev, falts, h)
	return p.prod, p.elev
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SubScores returns the raw per-measurement sub-score traces F_{i,h}(f)
// of Equation 2, out[i][k] being measurement i's sub-score at bin k.
// Useful for ablating the combination rule (product vs sum) and for
// diagnosing which measurement contributed a detection.
func SubScores(spectra []*spectral.Spectrum, falts []float64, h int) [][]float64 {
	n := len(spectra)
	if n < 2 || len(falts) != n || h == 0 {
		panic("core: SubScores needs >=2 matching spectra and a nonzero harmonic")
	}
	t := newSubScores(spectra)
	defer t.release()
	out := make([][]float64, n)
	for i := range out {
		trace := make([]float64, t.bins)
		row, sh := t.row(i), t.shift(falts[i], h)
		for k := range trace {
			if m := k + sh; m >= 0 && m < t.bins {
				trace[k] = row[m]
			} else {
				trace[k] = 1
			}
		}
		out[i] = trace
	}
	return out
}

// DefaultHarmonics is the set the paper's campaigns evaluate: positive
// and negative 1st through 5th harmonics of f_alt (§3).
func DefaultHarmonics() []int {
	return []int{1, -1, 2, -2, 3, -3, 4, -4, 5, -5}
}

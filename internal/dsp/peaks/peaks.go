// Package peaks provides peak detection for spectra and score traces.
//
// Two detectors are provided: a thresholded local-maximum finder used on
// FASE heuristic outputs and spectra, and the Palshikar S1 spike score
// referenced by the paper (§3, [29]) for comparison and for locating
// spectral spikes.
package peaks

import (
	"fmt"
	"math"
	"sort"
)

// Peak describes one detected local maximum.
type Peak struct {
	Index int     // bin index of the maximum
	Value float64 // value at the maximum
}

// Options tunes Find.
type Options struct {
	// MinValue discards peaks whose value is below this threshold.
	MinValue float64
	// MinDistance enforces at least this many bins between reported
	// peaks; when two conflict, the taller wins. Zero disables.
	MinDistance int
}

// Find locates local maxima in x and returns them sorted by descending
// value, ties by index. A plateau reports its leftmost sample.
func Find(x []float64, opt Options) []Peak {
	var out []Peak
	n := len(x)
	for i := 1; i < n-1; i++ {
		if x[i] < x[i-1] {
			continue
		}
		// Skip forward over a plateau.
		j := i
		for j < n-1 && x[j+1] == x[i] {
			j++
		}
		if j == n-1 || x[j+1] >= x[i] {
			i = j
			continue
		}
		// A NaN fails the threshold and is dropped.
		if x[i] >= opt.MinValue {
			out = append(out, Peak{Index: i, Value: x[i]})
		}
		i = j
	}
	// Equal values sort by index, so which tied peak MinDistance keeps
	// does not depend on how many other peaks were found.
	sort.Slice(out, func(a, b int) bool {
		pa, pb := out[a], out[b]
		return pa.Value > pb.Value || pa.Value == pb.Value && pa.Index < pb.Index
	})
	if opt.MinDistance > 0 {
		out = enforceDistance(out, opt.MinDistance)
	}
	return out
}

func enforceDistance(peaks []Peak, minDist int) []Peak {
	kept := peaks[:0]
	for _, p := range peaks {
		ok := true
		for _, q := range kept {
			if abs(p.Index-q.Index) < minDist {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, p)
		}
	}
	return kept
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// S1 computes Palshikar's S1 spike score for every sample: the average of
// the maximum rise over the k left neighbours and the maximum rise over the
// k right neighbours. Large positive values mark spikes.
func S1(x []float64, k int) []float64 {
	if k <= 0 {
		panic(fmt.Sprintf("peaks: S1 window must be positive, got %d", k))
	}
	n := len(x)
	out := make([]float64, n)
	for i := range x {
		left := math.Inf(-1)
		for j := i - k; j < i; j++ {
			if j >= 0 {
				if d := x[i] - x[j]; d > left {
					left = d
				}
			}
		}
		right := math.Inf(-1)
		for j := i + 1; j <= i+k; j++ {
			if j < n {
				if d := x[i] - x[j]; d > right {
					right = d
				}
			}
		}
		switch {
		case math.IsInf(left, -1) && math.IsInf(right, -1):
			out[i] = 0
		case math.IsInf(left, -1):
			out[i] = right
		case math.IsInf(right, -1):
			out[i] = left
		default:
			out[i] = (left + right) / 2
		}
	}
	return out
}

// SpikesS1 returns indices whose S1 score exceeds mean + h·stddev of the
// positive scores, Palshikar's recommended thresholding.
func SpikesS1(x []float64, k int, h float64) []int {
	s := S1(x, k)
	var pos []float64
	for _, v := range s {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return nil
	}
	mean, std := meanStd(pos)
	var out []int
	for i, v := range s {
		if v > 0 && v-mean >= h*std {
			out = append(out, i)
		}
	}
	return out
}

func meanStd(x []float64) (mean, std float64) {
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(x)))
	return mean, std
}

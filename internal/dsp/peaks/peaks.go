// Package peaks provides the thresholded local-maximum finder used on
// FASE heuristic outputs and spectra.
package peaks

import "sort"

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

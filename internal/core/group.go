package core

import (
	"math"
	"sort"
)

// HarmonicSet is a group of detected carriers at integer multiples of a
// common fundamental — "it is useful to group the identified carriers
// into sets such that all the carriers within a set occur at frequencies
// which appear to be multiples of one another" (§4).
type HarmonicSet struct {
	// Fundamental is the estimated common fundamental frequency.
	Fundamental float64
	// Members are the detections in the set, ascending in frequency.
	Members []Detection
	// Orders[i] is the harmonic order of Members[i] (Freq ≈ Orders[i]·Fundamental).
	Orders []int
}

// harmonicTol is the relative frequency tolerance within which a
// frequency counts as an integer multiple of another: GroupHarmonics
// matches detections to a candidate fundamental's multiples with it, and
// filterArtifacts keeps a weak comb member of a strong carrier with it.
const harmonicTol = 0.004

// GroupHarmonics clusters detections into harmonic sets, matching a
// detection to a multiple of a candidate fundamental within harmonicTol.
// Detections that match no set are returned as singleton sets. Greedy:
// candidates that explain the most detections win first; each detection
// joins one set.
func GroupHarmonics(dets []Detection) []HarmonicSet {
	const maxOrder = 16
	remaining := append([]Detection(nil), dets...)
	sort.Slice(remaining, func(a, b int) bool { return remaining[a].Freq < remaining[b].Freq })
	var sets []HarmonicSet
	for len(remaining) > 0 {
		// Candidate fundamentals: each remaining frequency divided by
		// small integers.
		type cd struct {
			fund  float64
			cover []int // indices into remaining
		}
		best := cd{}
		for _, d := range remaining {
			for k := 1; k <= maxOrder; k++ {
				fund := d.Freq / float64(k)
				if fund < remaining[0].Freq/float64(maxOrder)-1 {
					break
				}
				var cover []int
				hasFundamental := false
				for i, o := range remaining {
					ord := math.Round(o.Freq / fund)
					if ord < 1 || ord > maxOrder {
						continue
					}
					if math.Abs(o.Freq-ord*fund) <= harmonicTol*o.Freq {
						cover = append(cover, i)
						if ord == 1 {
							hasFundamental = true
						}
					}
				}
				// A set must contain its own fundamental ("multiples of
				// one another"), or degenerate tiny fundamentals would
				// swallow unrelated carriers.
				if !hasFundamental {
					continue
				}
				// Prefer larger covers; among equal covers prefer the
				// larger fundamental (smaller orders — avoids calling a
				// 315 kHz set "multiples of 157.5 kHz").
				if len(cover) > len(best.cover) ||
					(len(cover) == len(best.cover) && fund > best.fund) {
					best = cd{fund: fund, cover: cover}
				}
			}
		}
		if len(best.cover) == 0 {
			// No candidate covered anything. Possible only for degenerate
			// frequencies (zero, negative, NaN) whose order arithmetic never
			// matches — emit the first remaining detection as a singleton so
			// grouping always terminates.
			d := remaining[0]
			sets = append(sets, HarmonicSet{Fundamental: d.Freq, Members: []Detection{d}, Orders: []int{1}})
			remaining = remaining[1:]
			continue
		}
		set := HarmonicSet{Fundamental: best.fund}
		covered := make(map[int]bool, len(best.cover))
		for _, i := range best.cover {
			covered[i] = true
			set.Members = append(set.Members, remaining[i])
			set.Orders = append(set.Orders, int(math.Round(remaining[i].Freq/best.fund)))
		}
		// Refine the fundamental by least squares over members:
		// minimize Σ (f_i - ord_i·fund)² → fund = Σ f_i·ord_i / Σ ord_i².
		var num, den float64
		for i, m := range set.Members {
			num += m.Freq * float64(set.Orders[i])
			den += float64(set.Orders[i] * set.Orders[i])
		}
		if den > 0 {
			set.Fundamental = num / den
		}
		sets = append(sets, set)
		var rest []Detection
		for i, d := range remaining {
			if !covered[i] {
				rest = append(rest, d)
			}
		}
		remaining = rest
	}
	sort.Slice(sets, func(a, b int) bool { return sets[a].Fundamental < sets[b].Fundamental })
	return sets
}

package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fase/internal/dsp/spectral"
)

// edgeSpectra builds five measurement spectra with a noise floor, a static
// carrier at carrierBin (when in range), and — for each measurement index
// in planted — a single side-band at carrierBin + round(h·falt_i/fres),
// i.e. the side-band the harmonic-h probe of candidate carrierBin reads.
// Out-of-range side-band bins are silently dropped, which is exactly the
// band-edge situation under test.
func edgeSpectra(bins, carrierBin, h int, fres float64, falts []float64, planted []int) []*spectral.Spectrum {
	r := rand.New(rand.NewSource(31))
	out := make([]*spectral.Spectrum, len(falts))
	for i := range out {
		s := spectral.New(0, fres, bins)
		for k := range s.PmW {
			s.PmW[k] = 1e-15 * (0.8 + 0.4*r.Float64())
		}
		if carrierBin >= 0 && carrierBin < bins {
			s.PmW[carrierBin] += 1e-11
		}
		out[i] = s
	}
	for _, i := range planted {
		sb := carrierBin + int(math.Round(float64(h)*falts[i]/fres))
		if sb >= 0 && sb < bins {
			out[i].PmW[sb] += 1e-13
		}
	}
	return out
}

// TestScoreBandEdges drives the heuristic through the geometric edge
// cases: high harmonics whose probes fall wholly or partly outside the
// measured span, and candidate carriers sitting on the very first and last
// bins (a detection there is a zero-width segment hard against the band
// edge).
func TestScoreBandEdges(t *testing.T) {
	fres := 50.0
	cases := []struct {
		name    string
		bins    int
		carrier int
		h       int
		planted []int // measurements that get the moving side-band
		// wantNeutral: every probe out of range, score exactly 1.
		wantNeutral bool
		// wantMin: lower bound on the score at the carrier bin.
		wantMin float64
		// wantElevated: exact ScoreDetail elevated count (-1 = don't check).
		wantElevated int
	}{
		{
			// h=+5 probes of a top-edge carrier all land past the last bin
			// (shift ≈ 4330 bins): every sub-score is neutral and the
			// product must be exactly 1, not a spurious spike.
			name: "h=+5 all probes above band", bins: 5000, carrier: 4800,
			h: 5, wantNeutral: true, wantElevated: 0,
		},
		{
			// Same top-edge carrier, but h=-5 probes reach down into the
			// measured span, so planted side-bands at fc − 5·falt_i are
			// found even though fc+5·falt is unmeasurable.
			name: "h=-5 at top edge", bins: 5000, carrier: 4800,
			h: -5, planted: []int{0, 1, 2, 3, 4}, wantMin: 1e6, wantElevated: 5,
		},
		{
			// h=+5 with the probe window straddling the band edge: only
			// measurements 0 and 1 stay in range (shifts 4330/4380 of 6000
			// bins from bin 1600). Two genuine sub-scores must still raise
			// the product — the paper's robustness to out-of-range
			// side-bands.
			name: "h=+5 probes partly out of range", bins: 6000, carrier: 1600,
			h: 5, planted: []int{0, 1}, wantMin: 100, wantElevated: 2,
		},
		{
			// Candidate on the very first bin of the span.
			name: "carrier at bin 0", bins: 2000, carrier: 0,
			h: 1, planted: []int{0, 1, 2, 3, 4}, wantMin: 1e6, wantElevated: 5,
		},
		{
			// Candidate on the very last bin, probed downward.
			name: "carrier at last bin", bins: 2000, carrier: 1999,
			h: -1, planted: []int{0, 1, 2, 3, 4}, wantMin: 1e6, wantElevated: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := edgeSpectra(tc.bins, tc.carrier, tc.h, fres, testFalts, tc.planted)
			prod, elev := ScoreDetail(sp, testFalts, tc.h)
			got := prod[tc.carrier]
			if tc.wantNeutral {
				if got != 1 {
					t.Errorf("score %g at carrier, want exactly neutral 1", got)
				}
			} else if got < tc.wantMin {
				t.Errorf("score %g at carrier, want >= %g", got, tc.wantMin)
			}
			if tc.wantElevated >= 0 && elev[tc.carrier] != tc.wantElevated {
				t.Errorf("elevated count %d at carrier, want %d", elev[tc.carrier], tc.wantElevated)
			}
		})
	}
}

// TestScoreCoincidentSidebands: two carriers spaced 2·shift₀ bins apart
// share a side-band bin in measurement 0 — carrier A's upper side-band is
// carrier B's lower side-band. Both carriers must still spike: the shared
// bin only strengthens each sub-score, and the other four measurements
// disambiguate.
func TestScoreCoincidentSidebands(t *testing.T) {
	fres := 50.0
	bins := 6000
	shift0 := int(math.Round(testFalts[0] / fres)) // 866
	ca := 2000
	cb := ca + 2*shift0
	r := rand.New(rand.NewSource(41))
	sp := make([]*spectral.Spectrum, 5)
	for i := range sp {
		s := spectral.New(0, fres, bins)
		for k := range s.PmW {
			s.PmW[k] = 1e-15 * (0.8 + 0.4*r.Float64())
		}
		shift := int(math.Round(testFalts[i] / fres))
		for _, c := range []int{ca, cb} {
			s.PmW[c] += 1e-11
			s.PmW[c+shift] += 1e-13
			s.PmW[c-shift] += 1e-13
		}
		sp[i] = s
	}
	for _, h := range []int{1, -1} {
		sc := Score(sp, testFalts, h)
		for _, c := range []int{ca, cb} {
			if sc[c] < 1e6 {
				t.Errorf("h=%d: score %g at carrier bin %d, want spike", h, sc[c], c)
			}
		}
	}
}

// TestScoreCarrierOnFAltHarmonic covers carriers sitting exactly at a
// multiple of f_alt. A *static* line there must not light up the f=0
// candidate whose harmonic-2 probe of measurement 0 lands on it (the line
// is present in every measurement, so the leave-one-out ratio stays ≈1),
// and a *modulated* carrier there is detected exactly like any other.
func TestScoreCarrierOnFAltHarmonic(t *testing.T) {
	fres := 50.0
	bins := 4000
	carrier := int(math.Round(2 * testFalts[0] / fres)) // bin of 2·f_alt1

	// Static carrier at 2·f_alt1: the h=2 trace must stay flat everywhere,
	// including the f=0 candidate that aliases onto the carrier.
	static := edgeSpectra(bins, carrier, 2, fres, testFalts, nil)
	sc := Score(static, testFalts, 2)
	for k, v := range sc {
		if v > 20 {
			t.Errorf("static carrier on f_alt harmonic: score %g at bin %d", v, k)
		}
	}

	// Modulated carrier at the same frequency: ±f_alt side-bands move with
	// the ladder, so h=±1 spikes at the carrier bin itself.
	r := rand.New(rand.NewSource(53))
	mod := make([]*spectral.Spectrum, 5)
	for i := range mod {
		s := spectral.New(0, fres, bins)
		for k := range s.PmW {
			s.PmW[k] = 1e-15 * (0.8 + 0.4*r.Float64())
		}
		s.PmW[carrier] += 1e-11
		shift := int(math.Round(testFalts[i] / fres))
		s.PmW[carrier+shift] += 1e-13
		s.PmW[carrier-shift] += 1e-13
		mod[i] = s
	}
	for _, h := range []int{1, -1} {
		sc := Score(mod, testFalts, h)
		best, bv := 0, 0.0
		for k, v := range sc {
			if v > bv {
				best, bv = k, v
			}
		}
		if best != carrier || bv < 1e6 {
			t.Errorf("h=%d: peak %g at bin %d, want spike at carrier bin %d", h, bv, best, carrier)
		}
	}
}

// groupWithTimeout guards the degenerate-input grouping cases: before the
// singleton fallback, zero/negative/NaN frequencies made the greedy cover
// loop spin forever, so a regression should fail fast instead of hanging
// the suite.
func groupWithTimeout(t *testing.T, dets []Detection) []HarmonicSet {
	t.Helper()
	done := make(chan []HarmonicSet, 1)
	go func() { done <- GroupHarmonics(dets) }()
	select {
	case sets := <-done:
		return sets
	case <-time.After(10 * time.Second):
		t.Fatalf("GroupHarmonics did not terminate on %+v", dets)
		return nil
	}
}

// TestGroupHarmonicsEdgeCases: grouping must terminate and behave sanely
// on coincident, zero-width-separated, and degenerate frequencies.
func TestGroupHarmonicsEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		freqs []float64
		// wantSets is the expected number of sets; wantCovered the total
		// member count (every detection appears exactly once).
		wantSets, wantCovered int
	}{
		{"coincident frequencies", []float64{315e3, 315e3}, 1, 2},
		{"within tolerance", []float64{315e3, 315.5e3}, 1, 2},
		{"zero frequency alone", []float64{0}, 1, 1},
		{"negative frequency alone", []float64{-440e3}, 1, 1},
		{"nan frequency alone", []float64{math.NaN()}, 1, 1},
		{"zero among real carriers", []float64{0, 315e3, 630e3}, 2, 3},
		{"negative among real carriers", []float64{-100, 512e3, 1024e3}, 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dets := make([]Detection, len(tc.freqs))
			for i, f := range tc.freqs {
				dets[i] = Detection{Freq: f}
			}
			sets := groupWithTimeout(t, dets)
			if len(sets) != tc.wantSets {
				t.Fatalf("%d sets, want %d: %+v", len(sets), tc.wantSets, sets)
			}
			covered := 0
			for _, s := range sets {
				if len(s.Members) != len(s.Orders) {
					t.Errorf("members/orders mismatch: %+v", s)
				}
				covered += len(s.Members)
			}
			if covered != tc.wantCovered {
				t.Errorf("%d detections covered, want %d", covered, tc.wantCovered)
			}
		})
	}

	// The coincident pair forms one set with both members at order 1 and
	// the shared fundamental.
	sets := groupWithTimeout(t, []Detection{{Freq: 315e3}, {Freq: 315e3}})
	if len(sets) != 1 || len(sets[0].Members) != 2 {
		t.Fatalf("coincident pair: %+v", sets)
	}
	if sets[0].Orders[0] != 1 || sets[0].Orders[1] != 1 {
		t.Errorf("coincident orders %v, want [1 1]", sets[0].Orders)
	}
	if math.Abs(sets[0].Fundamental-315e3) > 1 {
		t.Errorf("coincident fundamental %g", sets[0].Fundamental)
	}
}

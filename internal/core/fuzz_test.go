package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzCampaignValidate throws arbitrary — including non-finite — numeric
// configurations at the campaign validator. The contract under test:
// Validate never panics, answers the same config with the same error
// every time, and any campaign it accepts survives default resolution
// with a finite, positive alternation ladder, a usable threshold, scoring
// widths within the band and an elevation gate a candidate can pass —
// i.e. Validate is the single gate RunE needs before doing real work.
func FuzzCampaignValidate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	seeds := [][6]float64{
		{0.25e6, 0.55e6, 100, 43.3e3, 1e3, 0},    // the standard narrowband campaign
		{nan, 0.55e6, 100, 43.3e3, 1e3, 0},       // NaN start frequency
		{0.25e6, inf, 100, 43.3e3, 1e3, 0},       // infinite stop frequency
		{0.25e6, 0.55e6, nan, 43.3e3, 1e3, 0},    // NaN resolution
		{-0.25e6, 0.55e6, 100, 43.3e3, 1e3, 0},   // negative start frequency
		{0.25e6, 0.55e6, 100, -43.3e3, 1e3, 0},   // negative f_alt
		{0.25e6, 0.55e6, 100, 43.3e3, -1e3, 0},   // negative f_Δ
		{0.25e6, 0.55e6, 100, 43.3e3, 1e3, -inf}, // -Inf threshold
		{0.25e6, 0.55e6, 100, 43.3e3, 1e3, MinScoreZero},
		{0.25e6, 0.55e6, 100, 1e308, 1e308, 0}, // finite inputs, Inf ladder top
		{0.55e6, 0.25e6, 100, 43.3e3, 1e3, 0},  // inverted range
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], 5, 4, 0, 0, 0)
	}
	// Scoring widths on the standard campaign's 3000-bin band: negative,
	// past the band, at its edge, and an elevation gate above the ladder.
	for _, w := range [][3]int{{-1, 0, 0}, {0, -1, 0}, {3001, 0, 0}, {0, 1 << 30, 0}, {3000, 3000, 5}, {0, 0, 6}, {0, 0, -1}} {
		f.Add(0.25e6, 0.55e6, 100.0, 43.3e3, 1e3, 0.0, 5, 4, w[0], w[1], w[2])
	}
	f.Fuzz(func(t *testing.T, f1, f2, fres, falt1, fdelta, minScore float64, numAlts, averages, smoothBins, mergeBins, minElevated int) {
		c := Campaign{
			F1: f1, F2: f2, Fres: fres,
			FAlt1: falt1, FDelta: fdelta,
			MinScore: minScore, NumAlts: numAlts, Averages: averages,
			SmoothBins: smoothBins, MergeBins: mergeBins, MinElevated: minElevated,
		}
		err := c.Validate()
		if again := c.Validate(); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("Validate answered %v, then %v", err, again)
		}
		if err != nil {
			return // rejected is always a fine answer
		}
		d := c.withDefaults()
		if d.MinScore < 0 || math.IsNaN(d.MinScore) {
			t.Fatalf("validated campaign resolved to threshold %g", d.MinScore)
		}
		if d.SmoothBins < 1 || d.MergeBins < 1 || d.NumAlts < 2 || d.Averages < 1 {
			t.Fatalf("validated campaign resolved to unusable defaults: %+v", d)
		}
		if bins := math.Round((f2 - f1) / fres); float64(smoothBins) > bins || float64(mergeBins) > bins {
			t.Fatalf("validated widths %d/%d exceed the band's %g bins", smoothBins, mergeBins, bins)
		}
		if d.MinElevated > d.NumAlts {
			t.Fatalf("validated elevation gate %d exceeds %d measurements", d.MinElevated, d.NumAlts)
		}
		for _, fa := range d.FAlts() {
			if fa <= 0 || math.IsNaN(fa) || math.IsInf(fa, 0) {
				t.Fatalf("validated campaign yields alternation frequency %g (ladder %v)", fa, d.FAlts())
			}
		}
	})
}

// TestCampaignValidateNamesFirstField pins Validate's "first
// configuration error" to declaration order: with several non-finite
// fields, every call names F1.
func TestCampaignValidateNamesFirstField(t *testing.T) {
	c := Campaign{F1: math.NaN(), F2: 0.55e6, Fres: math.NaN(),
		FAlt1: 43.3e3, FDelta: math.Inf(1)}
	for i := 0; i < 100; i++ {
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "campaign F1 ") {
			t.Fatalf("call %d: got %v, want the F1 error", i, err)
		}
	}
}

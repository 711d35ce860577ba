// Package microbench simulates the paper's Figure 6 micro-benchmark: a
// loop that alternates between activity X and activity Y so that the
// system's activity level changes as a square wave at a controlled
// alternation frequency f_alt.
//
// Real executions of the loop do not produce a perfect square wave: each
// half-period's duration varies because of contention and
// microarchitectural timing variation, with "several commonly-occurring
// execution times among the repetitions" (§2.1, Fig. 2). The Jitter model
// reproduces that structure with a discrete mixture of duration
// multipliers plus small Gaussian noise, renormalized so the average
// alternation frequency stays calibrated — the software analogue of tuning
// inst_x_count/inst_y_count.
package microbench

import (
	"fmt"
	"math/rand"

	"fase/internal/activity"
	"fase/internal/sig"
)

// Jitter describes per-half-period timing variation.
type Jitter struct {
	// Multipliers and Probs form a discrete distribution of relative
	// duration multipliers (the "commonly-occurring execution times").
	// Empty means always 1.0.
	Multipliers []float64
	Probs       []float64
	// Sigma is additional relative Gaussian jitter per half-period.
	Sigma float64
}

// DefaultJitter is a realistic contention model: most repetitions take
// the nominal time, some take ~1% longer (occasional shared-resource
// stalls), a few ~2.5% longer (interference from other threads). The
// modes are small enough that the side-band peaks stay distinguishable at
// the paper's f_Δ = 0.5 kHz steps (Fig. 7) while still producing the
// multi-modal "bumps" of Fig. 2.
func DefaultJitter() Jitter {
	return Jitter{
		Multipliers: []float64{1.0, 1.01, 1.025},
		Probs:       []float64{0.85, 0.11, 0.04},
		Sigma:       0.002,
	}
}

// NoJitter produces a mathematically perfect square wave, useful for the
// idealized spectra of Figures 1 and 3.
func NoJitter() Jitter { return Jitter{} }

// mean returns the expected multiplier.
func (j Jitter) mean() float64 {
	if len(j.Multipliers) == 0 {
		return 1
	}
	if len(j.Multipliers) != len(j.Probs) {
		panic(fmt.Sprintf("microbench: %d multipliers but %d probs", len(j.Multipliers), len(j.Probs)))
	}
	var m, psum float64
	for i, p := range j.Probs {
		if p < 0 {
			panic("microbench: negative probability")
		}
		m += j.Multipliers[i] * p
		psum += p
	}
	if psum <= 0 {
		panic("microbench: probabilities sum to zero")
	}
	return m / psum
}

// draw samples one multiplier.
func (j Jitter) draw(r *rand.Rand) float64 {
	m := 1.0
	if len(j.Multipliers) > 0 {
		var psum float64
		for _, p := range j.Probs {
			psum += p
		}
		u := r.Float64() * psum
		for i, p := range j.Probs {
			if u < p {
				m = j.Multipliers[i]
				break
			}
			u -= p
		}
	}
	if j.Sigma > 0 {
		m *= 1 + j.Sigma*r.NormFloat64()
	}
	return m
}

// Config describes one alternation run of the Figure 6 loop.
type Config struct {
	X, Y activity.Kind
	// FAlt is the target alternation frequency in Hz (one full X+Y cycle
	// per 1/FAlt seconds).
	FAlt float64
	// Jitter models per-half-period timing variation.
	Jitter Jitter
	// Seed makes the run reproducible.
	Seed int64
}

// duty is the fraction of each period spent in X, matching the paper
// ("activity X and activity Y are each done for half of the alternation
// period").
const duty = 0.5

// Generate simulates the alternation loop for the given duration and
// returns the resulting activity trace. The trace always begins at t=0
// with activity X.
func Generate(cfg Config, duration float64) *activity.Trace {
	if cfg.FAlt <= 0 {
		panic(fmt.Sprintf("microbench: alternation frequency must be positive, got %g", cfg.FAlt))
	}
	if duration <= 0 {
		panic(fmt.Sprintf("microbench: duration must be positive, got %g", duration))
	}
	r := sig.NewRand(cfg.Seed)
	// Calibration: divide nominal durations by the jitter's mean so the
	// *average* alternation frequency equals FAlt.
	meanMult := cfg.Jitter.mean()
	period := 1 / cfg.FAlt / meanMult
	xLoad := activity.LoadOf(cfg.X)
	yLoad := activity.LoadOf(cfg.Y)

	// The trace stores each switch time once and the two loads once:
	// segment 2k runs X, segment 2k+1 runs Y. The mean real-time period
	// is period·meanMult = 1/FAlt, so the expected switch count is
	// 2·duration·FAlt; a little headroom keeps the append loop from ever
	// regrowing (and re-copying) the slice.
	starts := make([]float64, 0, 2*int(duration*cfg.FAlt+16)*9/8)
	t := 0.0
	for t < duration {
		dx := period * duty * cfg.Jitter.draw(r)
		dy := period * (1 - duty) * cfg.Jitter.draw(r)
		starts = append(starts, t)
		t += dx
		starts = append(starts, t)
		t += dy
	}
	return activity.New(starts, xLoad, yLoad)
}

// Constant returns a trace that runs one activity continuously — the
// "LDM/LDM" and "LDL1/LDL1" controls of Figures 7, 12 and 14.
func Constant(k activity.Kind) *activity.Trace {
	return activity.NewConstant(activity.LoadOf(k))
}

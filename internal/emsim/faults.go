package emsim

import (
	"fmt"
	"math"

	"fase/internal/obs"
	"fase/internal/sig"
)

// faultedCaptures counts captures that had at least one fault applied.
var faultedCaptures = obs.Default.Counter(obs.MetricFaultedCaptures)

// FaultPlan describes deterministic measurement-chain degradation applied
// to rendered captures before they reach the FFT — the software analogue
// of a flaky antenna cable, an over-driven ADC front end, a noisy LNA, or
// a drifting micro-benchmark clock. A nil plan (the default everywhere)
// injects nothing and leaves the capture path bit-identical to a build
// without fault support; the FASE algorithm itself is never changed, only
// the data it sees.
//
// All faults are deterministic functions of (Seed, capture seed): the same
// plan on the same sweep produces the same degradation regardless of
// parallelism or plan caching, so faulted corpora are exactly repeatable.
// Each per-capture decision draws from a fixed position in the capture's
// fault stream, so enabling one fault never changes another fault's draws.
type FaultPlan struct {
	// Seed decorrelates the fault stream from the scene's noise stream.
	Seed int64

	// DropProb is the probability a capture is dropped entirely: its
	// samples are zeroed, as when a trigger is missed and the averager
	// ingests a dead trace.
	DropProb float64
	// TruncProb is the probability a capture is truncated: only the first
	// TruncKeep fraction of samples survive, the rest are zeroed (a
	// transfer cut short). Widened lines and reduced power follow.
	TruncProb float64
	// TruncKeep is the fraction of samples kept on truncation. Zero means
	// 0.35.
	TruncKeep float64

	// ClipDBm, when non-zero, clamps the instantaneous envelope power at
	// this level (dBm): samples stronger than it keep their phase but lose
	// magnitude, the intermodulation signature of an over-driven ADC.
	// (0 dBm is "off": every modeled signal sits ~90 dB below it anyway.)
	ClipDBm float64

	// ExtraNoiseDBmPerHz, when non-zero, adds white complex Gaussian noise
	// of this density on top of the scene — SNR degradation from a hot
	// front end. Same calibration as Background.FloorDBmPerHz.
	ExtraNoiseDBmPerHz float64

	// BurstProb is the probability a capture carries a burst interferer: a
	// strong tone at a random in-band offset for a random 5–25% of the
	// capture (an ignition burst, a motor switching on).
	BurstProb float64
	// BurstDBm is the burst tone's power. Zero means -90 dBm.
	BurstDBm float64

	// FAltDriftPPM perturbs each sweep's *generated* alternation frequency
	// by a uniform ±ppm drift while the scoring still assumes the nominal
	// f_alt ladder — the micro-benchmark's clock disagreeing with the
	// analyzer's. Applied by core.Runner, not per capture.
	FAltDriftPPM float64
}

// Validate reports the first malformed field: probabilities outside
// [0, 1], non-finite levels, or a TruncKeep outside (0, 1].
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for name, v := range map[string]float64{
		"DropProb": p.DropProb, "TruncProb": p.TruncProb, "BurstProb": p.BurstProb,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("emsim: fault plan %s %g outside [0, 1]", name, v)
		}
	}
	for name, v := range map[string]float64{
		"TruncKeep": p.TruncKeep, "ClipDBm": p.ClipDBm,
		"ExtraNoiseDBmPerHz": p.ExtraNoiseDBmPerHz, "BurstDBm": p.BurstDBm,
		"FAltDriftPPM": p.FAltDriftPPM,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("emsim: fault plan %s %g is not finite", name, v)
		}
	}
	if p.TruncKeep < 0 || p.TruncKeep > 1 {
		return fmt.Errorf("emsim: fault plan TruncKeep %g outside [0, 1]", p.TruncKeep)
	}
	return nil
}

// mix derives the capture's fault-stream seed. The odd multiplier
// (splitmix64's golden-ratio constant) spreads consecutive capture seeds
// across the generator's state space.
func (p *FaultPlan) mix(captureSeed int64) int64 {
	return p.Seed ^ (captureSeed * -0x61c8864680b583eb)
}

// DriftFor returns the relative alternation-frequency drift for a sweep
// identified by sweepSeed: uniform in ±FAltDriftPPM·1e-6.
func (p *FaultPlan) DriftFor(sweepSeed int64) float64 {
	if p == nil || p.FAltDriftPPM == 0 {
		return 0
	}
	r := sig.NewRand(p.mix(sweepSeed))
	return p.FAltDriftPPM * 1e-6 * (2*r.Float64() - 1)
}

// Apply degrades one rendered capture in place. dst holds the capture's
// complex-baseband samples for band; captureSeed is the same seed the
// renderer used (position in the sweep), which together with Plan.Seed
// fully determines the degradation.
func (p *FaultPlan) Apply(dst []complex128, band Band, captureSeed int64) {
	if p == nil {
		return
	}
	r := sig.NewRand(p.mix(captureSeed))
	// Fixed draw order: every decision consumes its slot whether or not
	// the fault is enabled, so plans differing in one knob share all other
	// per-capture outcomes.
	uDrop := r.Float64()
	uTrunc := r.Float64()
	uBurst := r.Float64()
	burstFreq := (r.Float64() - 0.5) * 0.8 * band.SampleRate
	burstStart := r.Float64()
	burstLen := r.Float64()
	burstPhase := 2 * math.Pi * r.Float64()

	faulted := false
	if p.DropProb > 0 && uDrop < p.DropProb {
		for i := range dst {
			dst[i] = 0
		}
		faultedCaptures.Inc()
		return // a dead trace carries nothing, not even the other faults
	}
	if p.TruncProb > 0 && uTrunc < p.TruncProb {
		keep := p.TruncKeep
		if keep == 0 {
			keep = 0.35
		}
		for i := int(keep * float64(len(dst))); i < len(dst); i++ {
			dst[i] = 0
		}
		faulted = true
	}
	if p.BurstProb > 0 && uBurst < p.BurstProb {
		level := p.BurstDBm
		if level == 0 {
			level = -90
		}
		amp := math.Sqrt(math.Pow(10, level/10))
		n := len(dst)
		length := n/20 + int(burstLen*0.2*float64(n))
		start := int(burstStart * float64(n-length))
		s := complex(amp*math.Cos(burstPhase), amp*math.Sin(burstPhase))
		step := 2 * math.Pi * burstFreq / band.SampleRate
		rot := complex(math.Cos(step), math.Sin(step))
		for i := start; i < start+length && i < n; i++ {
			dst[i] += s
			s *= rot
		}
		faulted = true
	}
	if p.ExtraNoiseDBmPerHz != 0 {
		// White complex noise of density N0 mW/Hz: per-sample variance
		// N0·fs, split evenly across I and Q (same calibration as
		// Background's frequency-domain synthesis).
		sd := math.Sqrt(math.Pow(10, p.ExtraNoiseDBmPerHz/10) * band.SampleRate / 2)
		for i := range dst {
			dst[i] += complex(sd*r.NormFloat64(), sd*r.NormFloat64())
		}
		faulted = true
	}
	if p.ClipDBm != 0 {
		limit := math.Pow(10, p.ClipDBm/10) // envelope power limit, mW
		for i, s := range dst {
			mag2 := real(s)*real(s) + imag(s)*imag(s)
			if mag2 > limit {
				dst[i] = s * complex(math.Sqrt(limit/mag2), 0)
				faulted = true
			}
		}
	}
	if faulted {
		faultedCaptures.Inc()
	}
}

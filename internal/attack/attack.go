// Package attack demonstrates what FASE's output enables: once a carrier
// modulated by a victim's activity is known, an attacker AM-demodulates
// it and reads the activity from a distance — "the equivalent of power
// side-channel attacks from a distance without the need to place probes
// within the system" (§1, §4.1).
//
// The package implements the receive chain (tune, filter, envelope-
// demodulate, condition), a concrete covert/side-channel bit-recovery
// attack in the style of the paper's RSA-demodulation references
// [28, 31], and leakage quantification (SNR and a capacity estimate) as
// called for by the paper's mitigation-evaluation use case (§6).
package attack

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/dsp/demod"
	"fase/internal/dsp/filter"
	"fase/internal/emsim"
)

// Receiver demodulates one carrier of a scene.
type Receiver struct {
	// Carrier is the carrier frequency to tune to (from FASE).
	Carrier float64
	// Bandwidth is the demodulation bandwidth around the carrier; it
	// must cover the modulation side-bands of interest (≥ 2× the highest
	// activity frequency to recover). Zero means 100 kHz.
	Bandwidth float64
}

func (r *Receiver) bandwidth() float64 {
	if r.Bandwidth == 0 {
		return 100e3
	}
	return r.Bandwidth
}

// SampleRate returns the capture rate the receiver uses (2.56× the
// demodulation bandwidth, the classic analyzer oversample factor).
func (r *Receiver) SampleRate() float64 { return 2.56 * r.bandwidth() }

// Recover captures duration seconds of the scene while the given
// activity runs, band-limits around the carrier, and returns the
// AM-demodulated, mean-removed envelope at SampleRate().
func (r *Receiver) Recover(scene *emsim.Scene, duration float64, act *activity.Trace, seed int64) []float64 {
	if duration <= 0 {
		panic(fmt.Sprintf("attack: duration %g must be positive", duration))
	}
	fs := r.SampleRate()
	n := int(math.Ceil(duration * fs))
	x := scene.Render(emsim.Capture{
		Band:     emsim.Band{Center: r.Carrier, SampleRate: fs},
		N:        n,
		Activity: act,
		Seed:     seed,
	})
	// Band-limit to the demodulation bandwidth: the capture spans
	// 2.56×BW, so the FIR cutoff is BW/2 normalized by fs.
	h := filter.LowpassFIR(r.bandwidth()/2/fs, 63)
	x = filter.ConvolveComplex(x, h)
	env := demod.EnvelopeComplex(x)
	// Remove the carrier's DC so only the modulation remains.
	var mean float64
	for _, v := range env {
		mean += v
	}
	mean /= float64(len(env))
	for i := range env {
		env[i] -= mean
	}
	return env
}

// SecretTrace encodes a bit string as victim activity: each bit lasts
// tBit seconds; a 1 runs activity x, a 0 runs activity y. This is the
// square-and-multiply-style secret-dependent pattern of the paper's
// demodulation-attack references.
func SecretTrace(bits []byte, x, y activity.Kind, tBit float64) *activity.Trace {
	if tBit <= 0 {
		panic(fmt.Sprintf("attack: tBit %g must be positive", tBit))
	}
	lx, ly := activity.LoadOf(x), activity.LoadOf(y)
	starts := make([]float64, len(bits))
	loads := make([]activity.Load, len(bits))
	for i, b := range bits {
		starts[i], loads[i] = float64(i)*tBit, ly
		if b != 0 {
			loads[i] = lx
		}
	}
	return activity.New(starts, loads...)
}

// RecoverBits slices the demodulated envelope into nBits windows of tBit
// seconds and thresholds each window's mean with a two-means clustering —
// the decision stays correct when the secret's ones and zeros are
// unbalanced (a median would not) and degrades gracefully when the
// clusters overlap (a largest-gap rule would not).
func RecoverBits(env []float64, fs float64, nBits int, tBit float64) []byte {
	if nBits <= 0 {
		panic(fmt.Sprintf("attack: nBits %d must be positive", nBits))
	}
	means := make([]float64, nBits)
	per := tBit * fs
	for i := 0; i < nBits; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi > len(env) {
			hi = len(env)
		}
		// Skip the settling guard band at each window edge.
		guard := (hi - lo) / 8
		var sum float64
		var cnt int
		for k := lo + guard; k < hi-guard; k++ {
			sum += env[k]
			cnt++
		}
		if cnt > 0 {
			means[i] = sum / float64(cnt)
		}
	}
	thr := twoMeansThreshold(means)
	out := make([]byte, nBits)
	for i, m := range means {
		if m > thr {
			out[i] = 1
		}
	}
	return out
}

// twoMeansThreshold runs Lloyd's algorithm with k = 2 on scalar values
// and returns the midpoint between the converged cluster means.
func twoMeansThreshold(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	thr := (lo + hi) / 2
	for iter := 0; iter < 64; iter++ {
		var m0, m1 float64
		var n0, n1 int
		for _, v := range x {
			if v > thr {
				m1 += v
				n1++
			} else {
				m0 += v
				n0++
			}
		}
		if n0 == 0 || n1 == 0 {
			return thr
		}
		next := (m0/float64(n0) + m1/float64(n1)) / 2
		if math.Abs(next-thr) < 1e-15*(math.Abs(thr)+1e-30) {
			return next
		}
		thr = next
	}
	return thr
}

// BitErrorRate compares recovered bits against the truth. Because the
// demodulated polarity depends on the emitter (the refresh comb weakens
// with activity while regulators strengthen), the better of the direct
// and inverted readings is reported.
func BitErrorRate(got, want []byte) float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("attack: bit count mismatch %d vs %d", len(got), len(want)))
	}
	if len(got) == 0 {
		return 0
	}
	errs, inv := 0, 0
	for i := range got {
		g := got[i] != 0
		w := want[i] != 0
		if g != w {
			errs++
		} else {
			inv++
		}
	}
	ber := float64(errs) / float64(len(got))
	berInv := float64(inv) / float64(len(got))
	return math.Min(ber, berInv)
}

// Leakage quantifies how much activity information a carrier leaks.
type Leakage struct {
	// SNRdB is the separation of the envelope's two activity classes:
	// (μ1-μ0)² / pooled variance, in dB.
	SNRdB float64
	// BitsPerSymbol is the binary-channel capacity implied by the
	// observed bit error rate.
	BitsPerSymbol float64
	// BER is the observed bit error rate.
	BER float64
}

// Quantify measures the leakage of a carrier for a given bit pattern:
// it runs SecretTrace through the receiver, recovers bits, and computes
// class-separation SNR and the implied capacity.
func Quantify(r *Receiver, scene *emsim.Scene, bits []byte, x, y activity.Kind, tBit float64, seed int64) Leakage {
	tr := SecretTrace(bits, x, y, tBit)
	dur := float64(len(bits)) * tBit
	env := r.Recover(scene, dur, tr, seed)
	got := RecoverBits(env, r.SampleRate(), len(bits), tBit)
	ber := BitErrorRate(got, bits)

	// Class-separation SNR from the per-window means.
	fs := r.SampleRate()
	per := tBit * fs
	var m0, m1 float64
	var n0, n1 int
	means := make([]float64, len(bits))
	for i := range bits {
		lo, hi := int(float64(i)*per), int(float64(i+1)*per)
		if hi > len(env) {
			hi = len(env)
		}
		guard := (hi - lo) / 8
		var sum float64
		var cnt int
		for k := lo + guard; k < hi-guard; k++ {
			sum += env[k]
			cnt++
		}
		if cnt > 0 {
			means[i] = sum / float64(cnt)
		}
		if bits[i] != 0 {
			m1 += means[i]
			n1++
		} else {
			m0 += means[i]
			n0++
		}
	}
	var snr float64
	if n0 > 0 && n1 > 0 {
		m0 /= float64(n0)
		m1 /= float64(n1)
		var v float64
		for i := range bits {
			mu := m0
			if bits[i] != 0 {
				mu = m1
			}
			v += (means[i] - mu) * (means[i] - mu)
		}
		v /= float64(len(bits))
		if v > 0 {
			snr = (m1 - m0) * (m1 - m0) / v
		}
	}
	return Leakage{
		SNRdB:         10 * math.Log10(math.Max(snr, 1e-12)),
		BitsPerSymbol: 1 - binaryEntropy(ber),
		BER:           ber,
	}
}

// binaryEntropy is H(p) in bits.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

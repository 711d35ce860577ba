// Package filter provides FIR design and convolution for the attack
// receiver's band-limiting, and the one-pole smoother of the regulator
// control-loop model.
package filter

import (
	"fmt"
	"math"
)

// LowpassFIR designs a windowed-sinc (Hamming) low-pass FIR filter with the
// given normalized cutoff (cutoff = fc/fs, 0 < cutoff < 0.5) and odd length
// taps. The filter has unit DC gain.
func LowpassFIR(cutoff float64, taps int) []float64 {
	if cutoff <= 0 || cutoff >= 0.5 {
		panic(fmt.Sprintf("filter: cutoff %g out of (0, 0.5)", cutoff))
	}
	if taps < 3 || taps%2 == 0 {
		panic(fmt.Sprintf("filter: taps must be odd and >= 3, got %d", taps))
	}
	h := make([]float64, taps)
	mid := taps / 2
	var sum float64
	for i := range h {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// ConvolveComplex returns the "same"-length convolution of the complex
// signal x with the real kernel h, aligning the kernel center with each
// sample (zero padding at the edges).
func ConvolveComplex(x []complex128, h []float64) []complex128 {
	out := make([]complex128, len(x))
	mid := len(h) / 2
	for i := range x {
		var acc complex128
		for k, hv := range h {
			j := i + mid - k
			if j >= 0 && j < len(x) {
				acc += complex(hv, 0) * x[j]
			}
		}
		out[i] = acc
	}
	return out
}

// OnePole is a single-pole low-pass smoother y += a·(x−y), the discrete
// equivalent of an RC control loop. The zero value is unusable; use
// NewOnePole.
type OnePole struct {
	a float64
	y float64
	// primed reports whether the state has been seeded by the first
	// sample, avoiding a startup transient from zero.
	primed bool
}

// NewOnePole creates a smoother with the given -3 dB bandwidth (Hz) at
// sample rate fs. bandwidth must be positive and below fs/2.
func NewOnePole(bandwidth, fs float64) *OnePole {
	if bandwidth <= 0 || bandwidth >= fs/2 {
		panic(fmt.Sprintf("filter: one-pole bandwidth %g out of (0, fs/2=%g)", bandwidth, fs/2))
	}
	a := 1 - math.Exp(-2*math.Pi*bandwidth/fs)
	return &OnePole{a: a}
}

// Step advances the smoother by one input sample and returns the output.
func (p *OnePole) Step(x float64) float64 {
	if !p.primed {
		p.y = x
		p.primed = true
		return x
	}
	p.y += p.a * (x - p.y)
	return p.y
}

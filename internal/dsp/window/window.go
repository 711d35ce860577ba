// Package window provides spectral window functions and their calibration
// constants.
//
// A window trades main-lobe width (frequency resolution) against side-lobe
// level (dynamic range). Spectrum-analyzer-style amplitude measurements
// must divide by the window's coherent gain so a sine tone reads its true
// amplitude at its bin, and noise-density measurements must account for the
// noise-equivalent bandwidth (NENBW).
package window

import (
	"fmt"
	"math"
	"sync"

	"fase/internal/obs"
)

// Type enumerates the supported window functions.
type Type int

const (
	// Default is the zero value and stands for "let the consumer choose":
	// code taking a window.Type treats Default as its documented default
	// (the spectrum analyzer resolves it to BlackmanHarris; New resolves
	// it the same way). Having an explicit sentinel keeps every concrete
	// window — including Rectangular — selectable.
	Default Type = iota
	// Rectangular is the implicit "no window": best noise bandwidth
	// (NENBW = 1 bin), worst side lobes (-13 dB).
	Rectangular
	// Hann is the general-purpose cosine window (-31.5 dB side lobes).
	Hann
	// Hamming minimizes the nearest side lobe (-43 dB).
	Hamming
	// Blackman has -58 dB side lobes at the cost of a wider main lobe.
	Blackman
	// BlackmanHarris is the 4-term minimum side-lobe window (-92 dB).
	BlackmanHarris
	// FlatTop has negligible scalloping loss, used for amplitude-accurate
	// spectrum analyzer measurements.
	FlatTop
)

// String returns the conventional name of the window.
func (t Type) String() string {
	switch t {
	case Default:
		return "default"
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	case BlackmanHarris:
		return "blackman-harris"
	case FlatTop:
		return "flattop"
	default:
		return fmt.Sprintf("window.Type(%d)", int(t))
	}
}

// cosineCoeffs returns the a_k coefficients of the generalized cosine window
// w[n] = sum_k (-1)^k a_k cos(2πkn/(N-1)).
func (t Type) cosineCoeffs() []float64 {
	switch t {
	case Default:
		// Default resolves to the library-wide default window.
		return BlackmanHarris.cosineCoeffs()
	case Rectangular:
		return []float64{1}
	case Hann:
		return []float64{0.5, 0.5}
	case Hamming:
		return []float64{0.54, 0.46}
	case Blackman:
		return []float64{0.42, 0.5, 0.08}
	case BlackmanHarris:
		return []float64{0.35875, 0.48829, 0.14128, 0.01168}
	case FlatTop:
		// ISO 18431-2 flattop (as in SciPy).
		return []float64{0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368}
	default:
		panic(fmt.Sprintf("window: unknown type %d", int(t)))
	}
}

// New returns the n window samples for the given type. n must be positive.
// The symmetric (periodic=false) form is generated with denominator n,
// which is the standard periodic form used for spectral analysis.
func New(t Type, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("window: invalid length %d", n))
	}
	w := make([]float64, n)
	coeffs := t.cosineCoeffs()
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n)
		var v float64
		sign := 1.0
		for k, a := range coeffs {
			v += sign * a * math.Cos(float64(k)*x)
			sign = -sign
		}
		w[i] = v
	}
	return w
}

// Precomputed is a cached window table plus its calibration constants,
// shared process-wide. W must be treated as read-only.
type Precomputed struct {
	Type Type
	N    int
	// W holds the n window samples (shared: do not modify).
	W []float64
	// CoherentGain is CoherentGain(W), cached.
	CoherentGain float64
	// NENBW is NENBW(W), cached.
	NENBW float64
}

type tableKey struct {
	t Type
	n int
}

// tableCache backs For: (type, length) -> *Precomputed.
var tableCache sync.Map

// Table-cache hit/miss counters feed the run manifest's cache
// statistics.
var (
	tableHits   = obs.Default.Counter(obs.MetricWindowHits)
	tableMisses = obs.Default.Counter(obs.MetricWindowMisses)
)

// For returns the cached window table for (t, n), computing and caching it
// on first use. The returned table is shared between callers and safe for
// concurrent reads; it must not be modified. Rendering pipelines use this
// instead of New so repeated transforms of one geometry cost no window
// synthesis and no allocation.
func For(t Type, n int) *Precomputed {
	key := tableKey{t: t, n: n}
	if v, ok := tableCache.Load(key); ok {
		tableHits.Inc()
		return v.(*Precomputed)
	}
	tableMisses.Inc()
	w := New(t, n)
	pc := &Precomputed{Type: t, N: n, W: w, CoherentGain: CoherentGain(w), NENBW: NENBW(w)}
	v, _ := tableCache.LoadOrStore(key, pc)
	return v.(*Precomputed)
}

// CoherentGain returns the mean of the window samples. Dividing a windowed
// DFT by n·CoherentGain makes a bin-centered tone read its true amplitude.
func CoherentGain(w []float64) float64 {
	var sum float64
	for _, v := range w {
		sum += v
	}
	return sum / float64(len(w))
}

// NENBW returns the noise-equivalent bandwidth in bins:
// N·sum(w²)/sum(w)². White noise of density N0 produces N0·NENBW·fres
// power per amplitude-calibrated bin.
func NENBW(w []float64) float64 {
	var s1, s2 float64
	for _, v := range w {
		s1 += v
		s2 += v * v
	}
	n := float64(len(w))
	return n * s2 / (s1 * s1)
}

// Apply multiplies x by the window in place. Panics if lengths differ.
func Apply(x []complex128, w []float64) {
	if len(x) != len(w) {
		panic(fmt.Sprintf("window: length mismatch %d vs %d", len(x), len(w)))
	}
	for i := range x {
		x[i] *= complex(w[i], 0)
	}
}

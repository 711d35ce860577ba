// Package spectral provides the Spectrum container used throughout the
// library, amplitude-calibrated periodograms of complex-baseband captures,
// power averaging, and band stitching.
//
// Calibration convention: signals are complex-baseband RMS envelopes in
// units of √mW, so a steady tone with envelope magnitude |A| carries
// |A|² mW of power and reads 10·log10(|A|²) dBm at its spectral peak.
// Bins store linear power in mW; use DBm helpers for display.
package spectral

import (
	"fmt"
	"math"

	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/fft"
	"fase/internal/dsp/window"
)

// Spectrum is a uniformly sampled power spectrum. Bin i covers frequency
// F0 + i·Fres. Power is linear mW per (amplitude-calibrated) bin.
type Spectrum struct {
	F0   float64   // frequency of bin 0, Hz
	Fres float64   // bin spacing, Hz
	PmW  []float64 // linear power per bin, mW
}

// New allocates a zeroed spectrum with n bins.
func New(f0, fres float64, n int) *Spectrum {
	if fres <= 0 || n < 0 {
		panic(fmt.Sprintf("spectral: invalid spectrum (fres=%g, n=%d)", fres, n))
	}
	return &Spectrum{F0: f0, Fres: fres, PmW: make([]float64, n)}
}

// Bins returns the number of frequency bins.
func (s *Spectrum) Bins() int { return len(s.PmW) }

// Freq returns the frequency of bin i.
func (s *Spectrum) Freq(i int) float64 { return s.F0 + float64(i)*s.Fres }

// FEnd returns the frequency one bin past the last.
func (s *Spectrum) FEnd() float64 { return s.Freq(len(s.PmW)) }

// Index returns the nearest bin index for frequency f, clamped to range.
func (s *Spectrum) Index(f float64) int {
	i := int(math.Round((f - s.F0) / s.Fres))
	if i < 0 {
		return 0
	}
	if i >= len(s.PmW) {
		return len(s.PmW) - 1
	}
	return i
}

// Contains reports whether f falls within the spectrum's frequency span.
func (s *Spectrum) Contains(f float64) bool {
	return f >= s.F0 && f < s.FEnd()
}

// DBm returns bin i's power in dBm, floored at -300 dBm for empty bins.
func (s *Spectrum) DBm(i int) float64 { return DBmFromMw(s.PmW[i]) }

// PowerAt returns linear power at the bin nearest to f.
func (s *Spectrum) PowerAt(f float64) float64 { return s.PmW[s.Index(f)] }

// Clone returns a deep copy.
func (s *Spectrum) Clone() *Spectrum {
	c := &Spectrum{F0: s.F0, Fres: s.Fres, PmW: make([]float64, len(s.PmW))}
	copy(c.PmW, s.PmW)
	return c
}

// Slice returns a copy of the spectrum restricted to [f1, f2).
func (s *Spectrum) Slice(f1, f2 float64) *Spectrum {
	if f2 < f1 {
		panic(fmt.Sprintf("spectral: invalid slice [%g, %g)", f1, f2))
	}
	// The small epsilon keeps grid-aligned boundaries stable against
	// floating-point error (a boundary exactly on a bin stays inclusive).
	i1 := int(math.Ceil((f1-s.F0)/s.Fres - 1e-6))
	i2 := int(math.Ceil((f2-s.F0)/s.Fres - 1e-6))
	if i1 < 0 {
		i1 = 0
	}
	if i1 > len(s.PmW) {
		i1 = len(s.PmW)
	}
	if i2 > len(s.PmW) {
		i2 = len(s.PmW)
	}
	if i2 < i1 {
		i2 = i1
	}
	out := &Spectrum{F0: s.Freq(i1), Fres: s.Fres, PmW: make([]float64, i2-i1)}
	copy(out.PmW, s.PmW[i1:i2])
	return out
}

// MaxBin returns the index and power of the strongest bin; (-1, 0) if empty.
func (s *Spectrum) MaxBin() (int, float64) {
	best, bp := -1, 0.0
	for i, p := range s.PmW {
		if best == -1 || p > bp {
			best, bp = i, p
		}
	}
	return best, bp
}

// MaxIn returns the strongest bin index within [f1, f2]; -1 if the range is
// empty.
func (s *Spectrum) MaxIn(f1, f2 float64) int {
	i1, i2 := s.Index(f1), s.Index(f2)
	best, bp := -1, 0.0
	for i := i1; i <= i2 && i < len(s.PmW); i++ {
		if best == -1 || s.PmW[i] > bp {
			best, bp = i, s.PmW[i]
		}
	}
	return best
}

// TotalPower returns the sum of all bin powers in mW. Because bins are
// amplitude-calibrated this is meaningful for discrete tones, not noise
// densities.
func (s *Spectrum) TotalPower() float64 {
	var t float64
	for _, p := range s.PmW {
		t += p
	}
	return t
}

// MedianPower returns the median bin power, a robust noise-floor estimate.
func (s *Spectrum) MedianPower() float64 {
	if len(s.PmW) == 0 {
		return 0
	}
	tmp := make([]float64, len(s.PmW))
	copy(tmp, s.PmW)
	return quickSelectMedian(tmp)
}

// quickSelectMedian computes the median, reordering tmp.
func quickSelectMedian(a []float64) float64 {
	k := len(a) / 2
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := partition(a, lo, hi)
		switch {
		case p == k:
			return a[k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return a[k]
}

func partition(a []float64, lo, hi int) int {
	pivot := a[(lo+hi)/2]
	a[(lo+hi)/2], a[hi] = a[hi], a[(lo+hi)/2]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi] = a[hi], a[i]
	return i
}

// DBmFromMw converts linear mW to dBm with a -300 dBm floor.
func DBmFromMw(p float64) float64 {
	if p <= 1e-30 {
		return -300
	}
	return 10 * math.Log10(p)
}

// MwFromDBm converts dBm to linear mW.
func MwFromDBm(d float64) float64 { return math.Pow(10, d/10) }

// Periodogram computes an amplitude-calibrated power spectrum of a
// complex-baseband capture x sampled at fs and centered at fc. The result
// has len(x) bins spanning [fc-fs/2, fc+fs/2) in ascending frequency.
// x is not modified. Window tables and FFT plans come from process-wide
// caches, and the transform scratch is pooled, so repeated calls of one
// geometry allocate only the returned Spectrum.
func Periodogram(x []complex128, fs, fc float64, wt window.Type) *Spectrum {
	n := len(x)
	if n == 0 {
		panic("spectral: empty capture")
	}
	buf := bufpool.Complex(n)
	copy(buf, x)
	s := &Spectrum{PmW: make([]float64, n)}
	PeriodogramInPlace(s, buf, fs, fc, wt)
	bufpool.PutComplex(buf)
	return s
}

// PeriodogramInPlace is the allocation-free core of Periodogram: it uses x
// as the transform buffer (destroying its contents) and writes the result
// into out, whose PmW must already have len(x) elements. out's F0 and Fres
// are overwritten. It is PeriodogramBins over every bin.
func PeriodogramInPlace(out *Spectrum, x []complex128, fs, fc float64, wt window.Type) {
	PeriodogramBins(out, x, fs, fc, wt, 0, len(x))
}

// PeriodogramBins is the periodogram of x restricted to output bins
// [i1, i2) of the len(x) bins PeriodogramInPlace computes: out.PmW must
// hold i2−i1 elements, and out.F0 is the frequency of bin i1. Each kept
// bin is bit-identical to the same bin of the full periodogram. x is the
// transform buffer and is destroyed. The sweep keeps only the bins a
// segment contributes, so its capture buffers hold those bins alone.
//
// The window is folded into the transform's first pass, and the power
// pass reads the transform in the plan's output order (bit-reversed for
// power-of-two lengths) at fftshift positions, so no window, permutation
// or shift pass touches x.
func PeriodogramBins(out *Spectrum, x []complex128, fs, fc float64, wt window.Type, i1, i2 int) {
	n := len(x)
	if n == 0 {
		panic("spectral: empty capture")
	}
	if i1 < 0 || i2 > n || i2 < i1 {
		panic(fmt.Sprintf("spectral: bins [%d, %d) of a %d-sample capture", i1, i2, n))
	}
	if len(out.PmW) != i2-i1 {
		panic(fmt.Sprintf("spectral: output has %d bins for bins [%d, %d)", len(out.PmW), i1, i2))
	}
	pc := window.For(wt, n)
	plan := fft.PlanFor(n)
	plan.ForwardPermuted(x, pc.W)
	norm := 1 / (float64(n) * pc.CoherentGain)
	fres := fs / float64(n)
	f0 := fc - fres*float64(n/2)
	out.F0 = f0 + float64(i1)*fres
	out.Fres = fres
	// fftshift: output bin i is transform element (i + h) mod n, which
	// the plan left at x[perm[(i+h) mod n]]. Bins below n−h read
	// perm[i+h], the rest perm[i−(n−h)].
	perm, h := plan.Perm(), (n+1)/2
	split := n - h
	a, b := min(i1, split), min(i2, split)
	lo, hi := out.PmW[:b-a], out.PmW[b-a:]
	for i, k := range perm[a+h : b+h] {
		v := x[k]
		lo[i] = (real(v)*real(v) + imag(v)*imag(v)) * norm * norm
	}
	for i, k := range perm[max(i1, split)-split : max(i2, split)-split] {
		v := x[k]
		hi[i] = (real(v)*real(v) + imag(v)*imag(v)) * norm * norm
	}
}

// Averager accumulates power spectra with identical geometry and yields
// their mean, the standard spectrum-analyzer trace-averaging operation.
// The analyzer's sweep (package specan) computes the same mean in place;
// Averager, Slice and Stitch are the reference its reduce is tested
// against.
type Averager struct {
	sum   *Spectrum
	count int
}

// Add accumulates one spectrum. All spectra must share F0, Fres and length.
func (a *Averager) Add(s *Spectrum) {
	if a.sum == nil {
		a.sum = s.Clone()
		a.count = 1
		return
	}
	if s.F0 != a.sum.F0 || s.Fres != a.sum.Fres || len(s.PmW) != len(a.sum.PmW) {
		panic("spectral: Averager geometry mismatch")
	}
	for i, p := range s.PmW {
		a.sum.PmW[i] += p
	}
	a.count++
}

// Mean returns the averaged spectrum; nil if nothing was added.
func (a *Averager) Mean() *Spectrum {
	if a.sum == nil {
		return nil
	}
	out := a.sum.Clone()
	inv := 1 / float64(a.count)
	for i := range out.PmW {
		out.PmW[i] *= inv
	}
	return out
}

// Goertzel evaluates the power of a single frequency in a real sequence
// sampled at fs, amplitude-calibrated so a real tone of amplitude A reads
// A². Cheaper than an FFT when only a handful of frequencies matter.
func Goertzel(x []float64, fs, f float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(n) / float64(n) * 4
}

// Stitch concatenates spectra covering adjacent, non-overlapping bands into
// one spectrum. Inputs must share Fres, be sorted by F0, and be contiguous
// to within half a bin.
func Stitch(parts []*Spectrum) *Spectrum {
	if len(parts) == 0 {
		panic("spectral: Stitch of nothing")
	}
	fres := parts[0].Fres
	total := 0
	for i, p := range parts {
		if math.Abs(p.Fres-fres) > 1e-9*fres {
			panic("spectral: Stitch Fres mismatch")
		}
		if i > 0 {
			expect := parts[i-1].FEnd()
			if math.Abs(p.F0-expect) > fres/2 {
				panic(fmt.Sprintf("spectral: Stitch gap: part %d starts at %g, expected %g", i, p.F0, expect))
			}
		}
		total += len(p.PmW)
	}
	out := &Spectrum{F0: parts[0].F0, Fres: fres, PmW: make([]float64, 0, total)}
	for _, p := range parts {
		out.PmW = append(out.PmW, p.PmW...)
	}
	return out
}

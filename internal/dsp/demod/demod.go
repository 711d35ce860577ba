// Package demod provides AM and FM demodulation, short-time Fourier
// spectrograms, and a spread-spectrum carrier tracker.
//
// The paper uses demodulation in two places: attackers AM-demodulate the
// carriers FASE finds (§1, §4.1), and the authors confirm the AMD
// constant-on-time regulator is frequency-modulated "with a spectrogram of
// the modulation" (§4.4). Carrier tracking (§4.3) defeats spread-spectrum
// clocking.
package demod

import (
	"fmt"
	"math"
	"math/cmplx"

	"fase/internal/dsp/fft"
	"fase/internal/dsp/window"
)

// EnvelopeComplex returns the magnitude of a complex-baseband capture —
// AM demodulation when the capture is centered on the carrier.
func EnvelopeComplex(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// InstFreq computes the instantaneous frequency (Hz) of a complex-baseband
// signal sampled at fs via the quadrature discriminator
// f[i] = fs/(2π) · arg(x[i]·conj(x[i-1])). The first element repeats the
// second so the output has the same length as the input.
func InstFreq(x []complex128, fs float64) []float64 {
	if len(x) < 2 {
		panic(fmt.Sprintf("demod: need at least 2 samples, got %d", len(x)))
	}
	out := make([]float64, len(x))
	for i := 1; i < len(x); i++ {
		d := x[i] * cmplx.Conj(x[i-1])
		out[i] = fs / (2 * math.Pi) * cmplx.Phase(d)
	}
	out[0] = out[1]
	return out
}

// Spectrogram is a time-frequency magnitude map.
type Spectrogram struct {
	FrameHop  int         // samples between frames
	FrameLen  int         // samples per frame
	Fs        float64     // sample rate
	Fc        float64     // band center frequency
	PmW       [][]float64 // [frame][bin] linear power, bins ascending in freq
	FrameTime []float64   // start time of each frame in seconds
}

// Bins returns the number of frequency bins per frame.
func (sg *Spectrogram) Bins() int {
	if len(sg.PmW) == 0 {
		return 0
	}
	return len(sg.PmW[0])
}

// Freq returns the frequency of bin k.
func (sg *Spectrogram) Freq(k int) float64 {
	fres := sg.Fs / float64(sg.FrameLen)
	return sg.Fc - fres*float64(sg.FrameLen/2) + float64(k)*fres
}

// PeakTrack returns, per frame, the frequency of the strongest bin — the
// carrier-tracking primitive used against spread-spectrum clocks.
func (sg *Spectrogram) PeakTrack() []float64 {
	out := make([]float64, len(sg.PmW))
	for i, frame := range sg.PmW {
		best, bp := 0, frame[0]
		for k, p := range frame {
			if p > bp {
				best, bp = k, p
			}
		}
		out[i] = sg.Freq(best)
	}
	return out
}

// stftWindow tapers every STFT frame.
const stftWindow = window.Hann

// STFT computes a Hann-windowed spectrogram of a complex-baseband capture
// with the given frame length and hop. frameLen must be positive, hop
// positive, and the capture at least one frame long.
func STFT(x []complex128, fs, fc float64, frameLen, hop int) *Spectrogram {
	if frameLen <= 0 || hop <= 0 {
		panic(fmt.Sprintf("demod: invalid STFT frame %d hop %d", frameLen, hop))
	}
	if len(x) < frameLen {
		panic(fmt.Sprintf("demod: capture of %d samples shorter than frame %d", len(x), frameLen))
	}
	pc := window.For(stftWindow, frameLen)
	w := pc.W
	norm := 1 / (float64(frameLen) * pc.CoherentGain)
	plan := fft.PlanFor(frameLen)
	buf := make([]complex128, frameLen)
	sg := &Spectrogram{FrameHop: hop, FrameLen: frameLen, Fs: fs, Fc: fc}
	for start := 0; start+frameLen <= len(x); start += hop {
		copy(buf, x[start:start+frameLen])
		window.Apply(buf, w)
		plan.Forward(buf)
		fft.Shift(buf)
		frame := make([]float64, frameLen)
		for k, v := range buf {
			a := real(v)*real(v) + imag(v)*imag(v)
			frame[k] = a * norm * norm
		}
		sg.PmW = append(sg.PmW, frame)
		sg.FrameTime = append(sg.FrameTime, float64(start)/fs)
	}
	return sg
}

// FMStats summarizes an instantaneous-frequency trace.
type FMStats struct {
	MeanHz      float64 // average instantaneous frequency offset
	DeviationHz float64 // RMS frequency deviation about the mean
	PeakToPeak  float64 // max - min instantaneous frequency
}

// MeasureFM computes frequency-modulation statistics of a complex-baseband
// capture, smoothing the discriminator output over smooth samples (>= 1) to
// suppress noise before measuring deviation.
func MeasureFM(x []complex128, fs float64, smooth int) FMStats {
	f := InstFreq(x, fs)
	if smooth > 1 {
		f = movingAverage(f, smooth)
	}
	var mean float64
	for _, v := range f {
		mean += v
	}
	mean /= float64(len(f))
	var rms float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range f {
		d := v - mean
		rms += d * d
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	rms = math.Sqrt(rms / float64(len(f)))
	return FMStats{MeanHz: mean, DeviationHz: rms, PeakToPeak: hi - lo}
}

func movingAverage(x []float64, k int) []float64 {
	out := make([]float64, len(x))
	var acc float64
	for i, v := range x {
		acc += v
		if i >= k {
			acc -= x[i-k]
			out[i] = acc / float64(k)
		} else {
			out[i] = acc / float64(i+1)
		}
	}
	return out
}

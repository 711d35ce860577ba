package core

import (
	"fmt"
	"math"
	"sort"

	"fase/internal/activity"
	"fase/internal/dsp/demod"
	"fase/internal/dsp/peaks"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/par"
	"fase/internal/specan"
)

// FM-FASE implements the extension the paper sketches in §4.4: "signals
// that are frequency-modulated by system activity should be possible to
// identify by a FASE-like approach based on spectral properties of
// FM-modulated signals." Constant-on-time regulators modulate their
// switching *frequency* with load, so AM-FASE correctly ignores them —
// but they still leak.
//
// The approach transplants the FASE shift test into the modulation
// domain: candidate carriers are taken from an idle spectrum sweep; each
// candidate is captured at baseband under the alternation micro-benchmark
// for every f_alt_i; a spectrogram's per-frame peak *tracks the carrier's
// instantaneous frequency*; and the track's spectrum is probed at the
// alternation frequencies. A genuinely FM-modulated carrier shows track
// power at f_alt_i in measurement i but not at that frequency in the
// other measurements — the same leave-one-out sub-score as Equation 2,
// evaluated with a Goertzel bin on the frequency track.
//
// Peak tracking (rather than a phase-difference discriminator) is what
// makes the test specific to FM: amplitude modulation of a carrier, even
// amid other in-band tones, does not move the per-frame argmax, while a
// swept carrier does. The alternation frequencies are placed in the
// hundreds of Hz so several spectrogram frames fit in each half-period.

// FMCampaign configures an FM-FASE run.
type FMCampaign struct {
	// F1, F2 bound the candidate-carrier search.
	F1, F2 float64
	// FAlt1, FDelta are the alternation ladder of fmNumAlts entries (as
	// in Campaign).
	FAlt1, FDelta float64
	// X, Y is the activity pair.
	X, Y activity.Kind
	// Seed drives all randomness.
	Seed int64
}

// FM-FASE's fixed capture and detection parameters.
const (
	// fmNumAlts is the number of alternation frequencies, as in the
	// paper's AM campaigns.
	fmNumAlts = 5
	// fmFs is the demodulation capture bandwidth around each candidate,
	// Hz; it must cover the carrier's full FM excursion.
	fmFs = 250e3
	// fmCaptureN is the samples per capture.
	fmCaptureN = 1 << 17
	// fmFrameLen is the spectrogram frame length for carrier tracking;
	// fmFs/fmFrameLen is the track's frequency resolution, and several
	// frames must fit in a half-period of f_alt.
	fmFrameLen = 64
	// fmMinCarrierSNRdB selects candidate carriers from the idle sweep:
	// peaks this far above the floor.
	fmMinCarrierSNRdB = 10.0
	// fmMinScore is the detection threshold on the sub-score product.
	fmMinScore = 30
)

// FMDetection is one frequency-modulated carrier found by FM-FASE.
type FMDetection struct {
	// Freq is the candidate carrier frequency (idle spectrum peak).
	Freq float64
	// Score is the product of leave-one-out discriminator sub-scores.
	Score float64
	// DeviationHz estimates the FM deviation at the alternation
	// fundamental (amplitude of the instantaneous-frequency square wave's
	// first harmonic).
	DeviationHz float64
}

// validate panics on a malformed alternation ladder.
func (c FMCampaign) validate() {
	if c.FAlt1 <= 0 || c.FDelta <= 0 {
		panic(fmt.Sprintf("core: FM campaign needs positive FAlt1/FDelta, got %g/%g", c.FAlt1, c.FDelta))
	}
}

// falts returns the ladder.
func (c FMCampaign) falts() []float64 {
	out := make([]float64, fmNumAlts)
	for i := range out {
		out[i] = c.FAlt1 + float64(i)*c.FDelta
	}
	return out
}

// RunFM executes an FM-FASE campaign against the runner's scene.
func (r *Runner) RunFM(c FMCampaign) []FMDetection {
	c.validate()
	if r.Scene == nil {
		panic("core: Runner needs a Scene")
	}
	// Candidate carriers: idle-spectrum peaks. The paper's FM targets
	// (constant-on-time regulators) are smeared over tens of kHz, so a
	// coarse RBW keeps each hump a single candidate.
	an := specan.New(specan.Config{Fres: 1e3})
	idle := an.Sweep(specan.Request{
		Scene: r.Scene, F1: c.F1, F2: c.F2, Seed: c.Seed,
	})
	// Smooth the idle spectrum so noise ripple neither splits smeared
	// humps into several candidates nor truncates linewidth measurement.
	idle = SmoothSpectrum(idle, 7)
	// Floor estimate: a low percentile rather than the median — a smeared
	// FM hump can occupy most of a narrow search band.
	floor := percentilePower(idle.PmW, 0.15)
	minPeak := floor * math.Pow(10, fmMinCarrierSNRdB/10)
	// Candidates at least half a capture bandwidth apart so their demod
	// captures do not overlap.
	minDist := int(fmFs / 2 / idle.Fres)
	if minDist < 1 {
		minDist = 1
	}
	cands := peaks.Find(idle.PmW, peaks.Options{MinValue: minPeak, MinDistance: minDist})

	falts := c.falts()
	hop := fmFrameLen / 2
	trackRate := fmFs / float64(hop)
	var out []FMDetection
	for _, cd := range cands {
		fc := idle.Freq(cd.Index)
		// Tracking window: the candidate's own idle -10 dB linewidth
		// (plus a few track bins). Restricting the per-frame argmax to
		// this window pins the track onto the candidate, so amplitude
		// modulation cannot hand the argmax to a neighbouring tone — an
		// FM carrier's idle wander already occupies the full window its
		// activity excursion needs.
		window10 := lineWidth(idle, cd.Index)
		trackWin := math.Max(window10/2, 3*fmFs/float64(fmFrameLen))
		// One frequency track per alternation frequency, captured
		// concurrently (independent seeds and traces).
		tracks := make([][]float64, fmNumAlts)
		par.Do(len(falts), func(i int) {
			tr := microbench.Generate(microbench.Config{
				X: c.X, Y: c.Y, FAlt: falts[i], Jitter: microbench.DefaultJitter(),
				Seed: c.Seed + int64(i)*7907,
			}, float64(fmCaptureN)/fmFs+0.01)
			x := r.Scene.Render(emsim.Capture{
				Band:     emsim.Band{Center: fc, SampleRate: fmFs},
				N:        fmCaptureN,
				Activity: tr,
				Seed:     c.Seed + int64(i)*104729,
			})
			sg := demod.STFT(x, fmFs, fc, fmFrameLen, hop)
			track := windowedPeakTrack(sg, fc, trackWin)
			removeMean(track)
			tracks[i] = track
		})
		// Leave-one-out sub-scores at each measurement's own f_alt.
		score := 1.0
		var devSum float64
		for i := range falts {
			own := spectral.Goertzel(tracks[i], trackRate, falts[i])
			var others float64
			for j := range falts {
				if j != i {
					others += spectral.Goertzel(tracks[j], trackRate, falts[i])
				}
			}
			others /= fmNumAlts - 1
			if others < scoreFloor {
				others = scoreFloor
			}
			score *= own / others
			devSum += math.Sqrt(own)
		}
		if score >= fmMinScore {
			out = append(out, FMDetection{
				Freq:        fc,
				Score:       score,
				DeviationHz: devSum / fmNumAlts,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Freq < out[b].Freq })
	return out
}

// percentilePower returns the p-quantile of the bins (0 <= p <= 1).
func percentilePower(x []float64, p float64) float64 {
	cp := append([]float64(nil), x...)
	sort.Float64s(cp)
	if len(cp) == 0 {
		return 0
	}
	i := int(p * float64(len(cp)-1))
	return cp[i]
}

// lineWidth measures the -10 dB width of the spectral line at bin i by
// expanding outward until the level drops below a tenth of the peak.
func lineWidth(s *spectral.Spectrum, i int) float64 {
	thresh := s.PmW[i] / 10
	lo := i
	for lo > 0 && s.PmW[lo-1] > thresh {
		lo--
	}
	hi := i
	for hi < s.Bins()-1 && s.PmW[hi+1] > thresh {
		hi++
	}
	return float64(hi-lo+1) * s.Fres
}

// windowedPeakTrack returns the per-frame frequency of the strongest
// spectrogram bin within ±win of fc.
func windowedPeakTrack(sg *demod.Spectrogram, fc, win float64) []float64 {
	out := make([]float64, len(sg.PmW))
	for fi, frame := range sg.PmW {
		best, bp := -1, 0.0
		for k := range frame {
			f := sg.Freq(k)
			if f < fc-win || f > fc+win {
				continue
			}
			if best == -1 || frame[k] > bp {
				best, bp = k, frame[k]
			}
		}
		if best >= 0 {
			out[fi] = sg.Freq(best)
		} else {
			out[fi] = fc
		}
	}
	return out
}

func removeMean(x []float64) {
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i := range x {
		x[i] -= m
	}
}

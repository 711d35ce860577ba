package main

import (
	"math"
	"time"

	"fase/internal/activity"
	"fase/internal/dsp/fft"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/specan"
)

// geometry is one analyzer segment: transform size, center and sample
// rate.
type geometry struct {
	nfft       int
	center, fs float64
}

// firstSegment is the first segment the analyzer plans for a sweep of
// [f1, f2] at fres under a transform cap (specan's defaults: the middle
// 75% of each transform is kept, transforms are powers of two ≥ 64).
func firstSegment(f1, f2, fres float64, maxFFT int) geometry {
	need := int(math.Round((f2 - f1) / fres))
	n := fft.NextPow2(int(math.Ceil(float64(need) / 0.75)))
	if maxFFT > 0 && n > maxFFT {
		n = maxFFT
	}
	n = max(n, 64)
	bins := min(int(float64(n)*0.75), need)
	return geometry{nfft: n, center: f1 + float64(bins)/2*fres, fs: float64(n) * fres}
}

const probeReps = 5

// probeLayers times one capture's layers in isolation at a workload's
// geometry, once per scene and repetition: microbench.Generate of one
// sweep's alternation trace, Scene.RenderInto of one capture with that
// trace and neither render plan nor static set, and the window + FFT +
// calibration of spectral.PeriodogramInPlace. Medians, normalized.
func probeLayers(b *bench, scenes []*emsim.Scene, f1, f2, fres float64, maxFFT int) {
	g := firstSegment(f1, f2, fres, maxFFT)
	dur := specan.New(specan.Config{Fres: fres, MaxFFT: maxFFT}).TotalDuration(f1, f2) + 0.05
	buf := make([]complex128, g.nfft)
	work := make([]complex128, g.nfft)
	out := &spectral.Spectrum{PmW: make([]float64, g.nfft)}
	var gen, render, fftT []float64
	for rep := 0; rep < probeReps; rep++ {
		for i, sc := range scenes {
			seed := deriveSeed(b.seed, streamWarm, 1000+rep*len(scenes)+i)
			t0 := time.Now()
			tr := microbench.Generate(microbench.Config{X: activity.LDM, Y: activity.LDL1,
				FAlt: corpusFAlt1, Jitter: microbench.DefaultJitter(), Seed: seed}, dur)
			t1 := time.Now()
			sc.RenderInto(buf, emsim.Capture{Band: emsim.Band{Center: g.center, SampleRate: g.fs},
				N: g.nfft, Activity: tr, Seed: seed})
			t2 := time.Now()
			copy(work, buf)
			t3 := time.Now()
			spectral.PeriodogramInPlace(out, work, g.fs, g.center, window.BlackmanHarris)
			t4 := time.Now()
			gen = append(gen, t1.Sub(t0).Seconds())
			render = append(render, t2.Sub(t1).Seconds())
			fftT = append(fftT, t4.Sub(t3).Seconds())
		}
		b.idle()
	}
	b.layer["microbench.generate.ms"] = b.ms(median(gen))
	b.layer["emsim.render.us"] = b.ms(median(render)) * 1e3
	b.layer["dsp.periodogram.us"] = b.ms(median(fftT)) * 1e3
}

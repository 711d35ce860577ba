package specan

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/dsp/spectral"
)

// reduceCase fills a sweep's full periodograms with random powers at the
// geometry a capture's periodogram has, and returns them with the traces
// the sweep keeps of them: each segment's kept bins (Analyzer.kept) at
// the F0 spectral.PeriodogramBins gives them, in arena buffers.
func reduceCase(rng *rand.Rand, an *Analyzer, p plan, f1 float64) (full, kept []spectral.Spectrum) {
	avg := an.cfg.Averages
	full = make([]spectral.Spectrum, p.segs*avg)
	kept = make([]spectral.Spectrum, p.segs*avg)
	fres := p.fs / float64(p.nfft)
	for i := range full {
		center, i1, i2 := an.kept(p, f1, i/avg)
		full[i] = spectral.Spectrum{F0: center - fres*float64(p.nfft/2), Fres: fres, PmW: make([]float64, p.nfft)}
		for k := range full[i].PmW {
			// Powers over 40 orders of magnitude, with empty bins.
			v := 1e-9 * math.Exp(10*rng.NormFloat64())
			if rng.Intn(50) == 0 {
				v = 0
			}
			full[i].PmW[k] = v
		}
		kept[i] = spectral.Spectrum{F0: full[i].Freq(i1), Fres: fres, PmW: an.cache.arena.Float(i2 - i1)}
		copy(kept[i].PmW, full[i].PmW[i1:i2])
	}
	return full, kept
}

// TestReduceMatchesAveragerStitch holds the sweep's in-place reduce of
// the kept bins to the chain it replaced on full periodograms —
// spectral.Averager, Mean, Spectrum.Slice and Stitch, which stay in
// spectral as this reference — bit for bit, over
// random geometries: Averages 1 to 4, one to many segments, resolutions
// on and off a round grid, and last segments both full and short. A short
// last segment of odd width sits half a bin off the sweep's grid, where
// Stitch's contiguity check passes or panics by rounding; the reduce must
// panic on exactly the same geometries.
func TestReduceMatchesAveragerStitch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var oneSeg, manySeg, shortLast, panics int
	avgs := map[int]bool{}
	for trial := 0; trial < 300; trial++ {
		fres := 10 + 990*rng.Float64()
		if trial%3 == 0 {
			fres = float64(50 * (1 + rng.Intn(10)))
		}
		avg := 1 + rng.Intn(4)
		maxFFT := 64 << rng.Intn(6)
		f1 := 5e6 * rng.Float64()
		f2 := f1 + float64(1+rng.Intn(6*maxFFT))*fres
		an := New(Config{Fres: fres, Averages: avg, MaxFFT: maxFFT, Parallelism: 1})
		p := an.planSweep(f1, f2)
		full, specs := reduceCase(rng, an, p, f1)

		want, wantPanic := catch(func() *spectral.Spectrum {
			parts := make([]*spectral.Spectrum, p.segs)
			for s := range parts {
				fStart, _, bins := an.segGeom(p, f1, s)
				var a spectral.Averager
				for k := 0; k < avg; k++ {
					a.Add(&full[s*avg+k])
				}
				parts[s] = a.Mean().Slice(fStart, fStart+float64(bins)*fres)
			}
			return spectral.Stitch(parts)
		})
		var done []int
		got, gotPanic := catch(func() *spectral.Spectrum {
			return an.reduce(p, specs, func(s int) { done = append(done, s) })
		})
		if wantPanic || gotPanic {
			if wantPanic != gotPanic {
				t.Fatalf("trial %d: reduce panicked %v, the reference %v", trial, gotPanic, wantPanic)
			}
			panics++
			continue
		}
		if math.Float64bits(got.F0) != math.Float64bits(want.F0) || math.Float64bits(got.Fres) != math.Float64bits(want.Fres) {
			t.Fatalf("trial %d: grid F0 %v Fres %v, want %v %v", trial, got.F0, got.Fres, want.F0, want.Fres)
		}
		if got.Bins() != want.Bins() {
			t.Fatalf("trial %d: %d bins, want %d", trial, got.Bins(), want.Bins())
		}
		for k, v := range want.PmW {
			if math.Float64bits(got.PmW[k]) != math.Float64bits(v) {
				t.Fatalf("trial %d (averages %d, %d segments): bin %d = %v, want %v", trial, avg, p.segs, k, got.PmW[k], v)
			}
		}
		if len(done) != p.segs || done[len(done)-1] != p.segs-1 {
			t.Fatalf("trial %d: done ran for segments %v of %d", trial, done, p.segs)
		}
		for i := range specs {
			if specs[i].PmW != nil {
				t.Fatalf("trial %d: trace %d still holds its buffer", trial, i)
			}
		}
		avgs[avg] = true
		if p.segs == 1 {
			oneSeg++
		} else {
			manySeg++
		}
		if p.needBins%p.perSeg != 0 {
			shortLast++
		}
	}
	t.Logf("%d one-segment, %d multi-segment, %d short-last, %d panicked on both sides", oneSeg, manySeg, shortLast, panics)
	if len(avgs) != 4 || oneSeg == 0 || manySeg == 0 || shortLast == 0 {
		t.Fatalf("coverage: averages %v, %d one-segment, %d multi-segment, %d short-last", avgs, oneSeg, manySeg, shortLast)
	}
}

// catch runs f and reports whether it panicked.
func catch(f func() *spectral.Spectrum) (s *spectral.Spectrum, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// TestReduceGeometryChecks keeps the reference chain's panics: a trace
// whose grid differs from its segment's first, and a segment that does
// not continue where the previous one ended.
func TestReduceGeometryChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	an := New(Config{Fres: 100, Averages: 2, MaxFFT: 256, Parallelism: 1})
	p := an.planSweep(1e6, 1.1e6)
	if p.segs < 2 {
		t.Fatalf("want several segments, got %d", p.segs)
	}
	for name, plant := range map[string]func([]spectral.Spectrum){
		"trace mismatch": func(specs []spectral.Spectrum) { specs[1].F0 += 100 },
		"segment gap": func(specs []spectral.Spectrum) {
			for _, k := range []int{2, 3} {
				specs[k].F0 += 0.4 * float64(p.nfft) * 100
			}
		},
	} {
		_, specs := reduceCase(rng, an, p, 1e6)
		plant(specs)
		if _, panicked := catch(func() *spectral.Spectrum { return an.reduce(p, specs, func(int) {}) }); !panicked {
			t.Errorf("%s: reduce did not panic", name)
		}
	}
}

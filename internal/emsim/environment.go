package emsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/fft"
	"fase/internal/sig"
)

// audioRandPool recycles the seeded generator stations use to derive
// their stationary program-audio spectrum each render; re-seeding a
// pooled generator reproduces exactly the stream a fresh one would give.
var audioRandPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// AMStation is an AM broadcast transmitter: a strong carrier
// amplitude-modulated by program audio. It is exactly the signal class
// FASE must reject — amplitude-modulated, but not by the micro-benchmark
// (§2.3: "Although AM radio signals are amplitude-modulated and strong,
// FASE correctly identifies that these signals are not caused by our
// modulation activity").
type AMStation struct {
	Call    string  // station identifier for reports
	Freq    float64 // carrier frequency, Hz
	PowerMw float64 // received carrier power, mW
	// Depth is the modulation index (0..1); zero defaults to 0.5.
	Depth float64
	// AudioSeed fixes the station's program-audio spectrum. Real
	// broadcast content is statistically stationary across the minutes a
	// FASE campaign takes, which is what lets FASE reject stations: their
	// side-bands sit at the same frequencies in every measurement. Only
	// phases vary per capture.
	AudioSeed int64

	nameOnce sync.Once
	name     string
}

// Name implements Component. The name is formatted once: instrumented
// renders name every component they render or replay.
func (a *AMStation) Name() string {
	a.nameOnce.Do(func() { a.name = fmt.Sprintf("AM station %s @ %.0f kHz", a.Call, a.Freq/1e3) })
	return a.name
}

// BandExtent implements Extenter: a single line at the carrier — the same
// frequency Render gates on. (The audio side-bands sit within a few kHz of
// the carrier, far inside the width of any capture band that contains it.)
func (a *AMStation) BandExtent() Extent { return Lines(a.Freq) }

// stationTones is a broadcast station's stationary program-audio spectrum:
// tone frequencies and normalized relative amplitudes. Per-capture phases
// are not part of it — they are drawn from the capture's random stream.
type stationTones [3]struct{ f, amp float64 }

// deriveTones computes the station audio table from its seed: three tones
// with frequencies in [300, 300+span] Hz and normalized amplitudes.
func deriveTones(seed int64, span float64) stationTones {
	ar := audioRandPool.Get().(*rand.Rand)
	ar.Seed(seed)
	var tones stationTones
	var ampSum float64
	for i := range tones {
		tones[i].f = 300 + span*ar.Float64()
		tones[i].amp = 0.3 + 0.7*ar.Float64()
		ampSum += tones[i].amp
	}
	audioRandPool.Put(ar)
	for i := range tones {
		tones[i].amp /= ampSum
	}
	return tones
}

// Prepare implements Prepper: the program-audio tone table is fixed per
// station, so one derivation serves every capture of a segment.
func (a *AMStation) Prepare(Band, int) any {
	t := deriveTones(a.AudioSeed^int64(a.Freq), 3700)
	return &t
}

// Static implements StaticRenderer: broadcast program audio is not
// program activity — the station renders identically for every
// alternation scan.
func (a *AMStation) Static(Band, int) bool { return true }

// Render implements Component: carrier × (1 + depth·audio(t)), where the
// audio is a random mixture of low-frequency tones (program content).
// The carrier offset and the audio tones all advance by a fixed phase per
// sample, so the whole station is synthesized with phasor rotations — no
// per-sample trig.
func (a *AMStation) Render(dst []complex128, ctx *Context) {
	if !ctx.Band.Contains(a.Freq) {
		return
	}
	depth := a.Depth
	if depth == 0 {
		depth = 0.5
	}
	// Program audio: three tones between 300 Hz and 4 kHz. Frequencies
	// and relative amplitudes are fixed per station (stationary program
	// spectrum, from Prepare); phases are drawn per capture.
	tones := *ctx.Prep.(*stationTones)
	var phases [3]float64
	for i := range phases {
		phases[i] = 2 * math.Pi * ctx.Rand.Float64()
	}
	amp := math.Sqrt(a.PowerMw)
	phase0 := 2 * math.Pi * ctx.Rand.Float64()
	dt := ctx.Dt()
	off := 2 * math.Pi * (a.Freq - ctx.Band.Center)
	car := sig.NewRotator(off*ctx.Start+phase0, off*dt)
	// The three audio rotators live in distinct locals rather than an
	// array so their state stays in registers across the sample loop
	// (array indexing forces a memory round trip per call).
	r0 := sig.NewRotator(2*math.Pi*tones[0].f*ctx.Start+phases[0], 2*math.Pi*tones[0].f*dt)
	r1 := sig.NewRotator(2*math.Pi*tones[1].f*ctx.Start+phases[1], 2*math.Pi*tones[1].f*dt)
	r2 := sig.NewRotator(2*math.Pi*tones[2].f*ctx.Start+phases[2], 2*math.Pi*tones[2].f*dt)
	a0, a1, a2 := tones[0].amp, tones[1].amp, tones[2].amp
	// Four samples per iteration via the batched rotator stride: one
	// renormalization check per rotator per four samples, with the phasors
	// held in registers across the unrolled block. Next4 produces bits
	// identical to four Next calls, and the per-sample envelope expression
	// keeps the scalar loop's association, so output is unchanged.
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		t00, t01, t02, t03 := r0.Next4()
		t10, t11, t12, t13 := r1.Next4()
		t20, t21, t22, t23 := r2.Next4()
		c0, c1, c2, c3 := car.Next4()
		env := amp * (1 + depth*(a0*imag(t00)+a1*imag(t10)+a2*imag(t20)))
		dst[i] += complex(env*real(c0), env*imag(c0))
		env = amp * (1 + depth*(a0*imag(t01)+a1*imag(t11)+a2*imag(t21)))
		dst[i+1] += complex(env*real(c1), env*imag(c1))
		env = amp * (1 + depth*(a0*imag(t02)+a1*imag(t12)+a2*imag(t22)))
		dst[i+2] += complex(env*real(c2), env*imag(c2))
		env = amp * (1 + depth*(a0*imag(t03)+a1*imag(t13)+a2*imag(t23)))
		dst[i+3] += complex(env*real(c3), env*imag(c3))
	}
	for ; i < n; i++ {
		audio := a0 * imag(r0.Next())
		audio += a1 * imag(r1.Next())
		audio += a2 * imag(r2.Next())
		env := amp * (1 + depth*audio)
		c := car.Next()
		dst[i] += complex(env*real(c), env*imag(c))
	}
}

// FMStation is a broadcast FM transmitter (88–108 MHz): a carrier
// frequency-modulated by program audio. Relevant to the paper's second
// measurement campaign (4–120 MHz): strong, modulated, and — like the AM
// band — not modulated by the micro-benchmark, so FASE must reject it.
type FMStation struct {
	Call    string
	Freq    float64 // carrier, Hz
	PowerMw float64 // received power, mW
	// DeviationHz is the peak FM deviation; zero means 75 kHz (broadcast).
	DeviationHz float64
	// AudioSeed fixes the station's (stationary) program audio.
	AudioSeed int64

	nameOnce sync.Once
	name     string
}

// Name implements Component, formatted once like AMStation's.
func (s *FMStation) Name() string {
	s.nameOnce.Do(func() { s.name = fmt.Sprintf("FM station %s @ %.1f MHz", s.Call, s.Freq/1e6) })
	return s.name
}

// BandExtent implements Extenter: a single line at the carrier, matching
// Render's own gate. (Broadcast FM deviation is ±75 kHz, negligible next
// to the multi-MHz capture bands of the campaign that reaches this band.)
func (s *FMStation) BandExtent() Extent { return Lines(s.Freq) }

// Prepare implements Prepper: the stationary tone table, shared by every
// capture of a segment.
func (s *FMStation) Prepare(Band, int) any {
	t := deriveTones(s.AudioSeed^int64(s.Freq), 7000)
	return &t
}

// Static implements StaticRenderer: like the AM band, FM program audio is
// independent of the micro-benchmark.
func (s *FMStation) Static(Band, int) bool { return true }

// Render implements Component. The audio tones are synthesized by phasor
// rotation; the carrier keeps a per-sample Sincos because its phase
// increment varies with the audio (frequency modulation).
func (s *FMStation) Render(dst []complex128, ctx *Context) {
	if !ctx.Band.Contains(s.Freq) {
		return
	}
	dev := s.DeviationHz
	if dev == 0 {
		dev = 75e3
	}
	tones := *ctx.Prep.(*stationTones)
	var phases [3]float64
	for i := range phases {
		phases[i] = 2 * math.Pi * ctx.Rand.Float64()
	}
	amp := math.Sqrt(s.PowerMw)
	dt := ctx.Dt()
	phase := 2 * math.Pi * ctx.Rand.Float64()
	base := 2 * math.Pi * (s.Freq - ctx.Band.Center)
	var audioRot [3]sig.Rotator
	for i, tn := range tones {
		audioRot[i] = sig.NewRotator(2*math.Pi*tn.f*ctx.Start+phases[i], 2*math.Pi*tn.f*dt)
	}
	for i := range dst {
		var audio float64
		for j := range audioRot {
			audio += tones[j].amp * imag(audioRot[j].Next())
		}
		sn, cs := math.Sincos(phase)
		dst[i] += complex(amp*cs, amp*sn)
		phase += (base + 2*math.Pi*dev*audio) * dt
	}
}

// Hill is a broad bump in the broadband noise spectrum — the "gently
// rolling hills and valleys" caused by randomly timed switching activity
// (§2.1).
type Hill struct {
	Center float64 // Hz
	Width  float64 // Gaussian sigma, Hz
	GainDB float64 // height above the floor at the center, dB
}

// Background renders the thermal noise floor plus colored-noise hills. It
// synthesizes the noise in the frequency domain so the per-bin density
// follows the configured shape exactly. Safe for concurrent Render calls:
// plans come from the process-wide fft.PlanFor cache, which is
// concurrency-safe for every transform length.
type Background struct {
	// FloorDBmPerHz is the flat noise density (e.g. -170 for a typical
	// receive chain noise figure over kT = -174 dBm/Hz).
	FloorDBmPerHz float64
	Hills         []Hill
}

// Name implements Component.
func (b *Background) Name() string { return "background noise" }

// BandExtent implements Extenter: broadband noise touches every band.
func (b *Background) BandExtent() Extent { return Everywhere() }

// densityMwPerHz evaluates the noise density at frequency f.
func (b *Background) densityMwPerHz(f float64) float64 {
	gain := 0.0
	for _, h := range b.Hills {
		d := (f - h.Center) / h.Width
		gain += h.GainDB * math.Exp(-d*d/2)
	}
	return math.Pow(10, (b.FloorDBmPerHz+gain)/10)
}

// bgPrep is Background's per-segment state: the per-bin noise standard
// deviation, which depends only on the capture geometry.
type bgPrep struct {
	sd []float64
}

// Prepare implements Prepper: the per-bin standard deviations — the
// expensive part of the density shaping (a Gaussian per hill plus a
// dB→mW conversion per bin) — are computed once per segment instead of
// once per capture.
func (b *Background) Prepare(band Band, n int) any {
	fs := band.SampleRate
	f0 := band.Center - fs/2
	fres := fs / float64(n)
	sd := make([]float64, n)
	for k := range sd {
		// Bin variance n·N0(f)·fs gives time-domain density N0 after the
		// 1/n of the inverse transform.
		sd[k] = math.Sqrt(float64(n) * b.densityMwPerHz(f0+float64(k)*fres) * fs / 2)
	}
	return &bgPrep{sd: sd}
}

// Static implements StaticRenderer: the noise floor and its hills are
// environmental — activity never shapes them.
func (b *Background) Static(Band, int) bool { return true }

// Render implements Component: Gaussian bins shaped by the prepared
// per-bin deviations, inverse-transformed.
func (b *Background) Render(dst []complex128, ctx *Context) {
	n := ctx.N
	plan := fft.PlanFor(n)
	r := ctx.Rand
	spec := bufpool.Complex(n)
	// Fill bins directly in post-ifftshift (FFT) order: ascending-frequency
	// bin k lands at (k + n − n/2) mod n, so writing there up front is the
	// exact index permutation that undoes fft.Shift — same values, same
	// noise-draw order, no rotate pass over the buffer.
	j := n - n/2
	for _, sd := range ctx.Prep.(*bgPrep).sd {
		spec[j] = complex(sd*r.NormFloat64(), sd*r.NormFloat64())
		if j++; j == n {
			j = 0
		}
	}
	plan.Inverse(spec)
	for i := range dst {
		dst[i] += spec[i]
	}
	bufpool.PutComplex(spec)
}

// StandardEnvironment builds the RF environment of the paper's
// measurements: a metropolitan AM broadcast band ("hundreds of radio
// stations nearby"), plus the receive chain's noise floor with broadband
// hills. All of it is ground-truth *unmodulated by program activity*.
func StandardEnvironment(r *rand.Rand) []Component {
	stations := []struct {
		call string
		freq float64
		dbm  float64
	}{
		{"WABC", 560e3, -97}, {"WCNN", 615e3, -92}, {"WGST", 680e3, -88},
		{"WSB", 750e3, -85}, {"WQXI", 790e3, -95}, {"WGKA", 940e3, -93},
		{"WDUN", 1010e3, -99}, {"WKHX", 1160e3, -101}, {"WIGO", 1340e3, -104},
		{"WNIV", 1400e3, -103}, {"WAOK", 1380e3, -98}, {"WGUN", 1520e3, -106},
	}
	var out []Component
	for _, s := range stations {
		out = append(out, &AMStation{
			Call:      s.call,
			Freq:      s.freq,
			PowerMw:   math.Pow(10, s.dbm/10),
			Depth:     0.3 + 0.5*r.Float64(),
			AudioSeed: r.Int63(),
		})
	}
	// The FM broadcast band (88-108 MHz) for the second campaign's range.
	fms := []struct {
		call string
		freq float64
		dbm  float64
	}{
		{"WABE", 90.1e6, -95}, {"WSB-FM", 98.5e6, -90}, {"WVEE", 103.3e6, -93},
	}
	for _, s := range fms {
		out = append(out, &FMStation{
			Call:      s.call,
			Freq:      s.freq,
			PowerMw:   math.Pow(10, s.dbm/10),
			AudioSeed: r.Int63(),
		})
	}
	out = append(out, &Background{
		FloorDBmPerHz: -172,
		Hills: []Hill{
			{Center: 150e3, Width: 120e3, GainDB: 9},
			{Center: 900e3, Width: 500e3, GainDB: 5},
			{Center: 2.5e6, Width: 1.2e6, GainDB: 3},
		},
	})
	return out
}

package experiments

import (
	"fmt"
	"math"
	"sort"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/report"
	"fase/internal/sig"
)

// amCarrier is the didactic emitter used by Figures 1–5: a carrier with a
// configurable envelope (the modulating signal) and optional RC-oscillator
// frequency wander (the "non-ideal carrier").
type amCarrier struct {
	freq        float64
	powerDBm    float64
	depth       float64
	wanderSigma float64
	wanderTau   float64
	// modulate returns the modulating signal in [-1, 1]; nil means an
	// unmodulated carrier. The activity cursor gives access to program
	// activity for "arbitrary signal" modulation.
	modulate func(t float64, cur *activity.Cursor) float64
}

func (c *amCarrier) Name() string { return "conceptual carrier" }

// BandExtent implements emsim.Extenter: a line at the carrier, matching
// Render's gate, so planned sweeps skip the component for bands that
// cannot see it.
func (c *amCarrier) BandExtent() emsim.Extent { return emsim.Lines(c.freq) }

func (c *amCarrier) Render(dst []complex128, ctx *emsim.Context) {
	if !ctx.Band.Contains(c.freq) {
		return
	}
	r := ctx.Rand
	dt := ctx.Dt()
	a0 := math.Sqrt(spectral.MwFromDBm(c.powerDBm))
	osc := sig.Oscillator{F0: c.freq, Wander: sig.OU{Sigma: c.wanderSigma, Tau: c.wanderTau}}
	osc.Start(r)
	cur := ctx.Loads()
	for i := range dst {
		t := ctx.Start + float64(i)*dt
		env := a0
		if c.modulate != nil {
			env *= 1 + c.depth*c.modulate(t, cur)
		}
		s, cs := math.Sincos(osc.Phase())
		dst[i] += complex(env*cs, env*s)
		osc.Step(dt, ctx.Band.Center, r)
	}
}

const (
	conceptFc   = 1e6    // carrier at 1 MHz
	conceptFalt = 43.3e3 // alternation frequency
	conceptF1   = 0.85e6 // plot range
	conceptF2   = 1.15e6
	conceptFres = 100.0
)

// conceptActivity builds the "arbitrary signal" modulation: the Figure 6
// alternation loop with realistic timing jitter, viewed as a ±1 square
// wave derived from the DRAM load.
func conceptActivity(seed int64) *activity.Trace {
	return microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: conceptFalt,
		Jitter: microbench.DefaultJitter(), Seed: seed,
	}, 1.0)
}

func loadAsSignal(t float64, cur *activity.Cursor) float64 {
	// Map DRAM load (≈1 during X, ≈0 during Y) to a ±1 modulating signal.
	return 2*cur.At(t).DRAM - 1
}

// fig01: sinusoidal carrier modulated by a sinusoidal signal — carrier
// plus two clean side-bands at fc ± falt.
func fig01(cfg Config) *report.Output {
	scene := &emsim.Scene{}
	scene.Add(&amCarrier{
		freq: conceptFc, powerDBm: -90, depth: 0.5,
		modulate: func(t float64, _ *activity.Cursor) float64 {
			return math.Sin(2 * math.Pi * conceptFalt * t)
		},
	})
	scene.Add(&emsim.Background{FloorDBmPerHz: -175})
	s := sweep(scene, conceptF1, conceptF2, conceptFres, nil, cfg.Seed+1)
	out := &report.Output{
		ID:     "fig01",
		Title:  "Sinusoidal carrier modulated by a sinusoidal signal",
		Series: []report.Series{dbmSeries("spectrum", s)},
	}
	_, c := peakNear(s, conceptFc, 500)
	lf, l := peakNear(s, conceptFc-conceptFalt, 500)
	rf, rr := peakNear(s, conceptFc+conceptFalt, 500)
	out.Notes = append(out.Notes,
		fmt.Sprintf("carrier %.1f dBm; side-bands at %.1f kHz (%.1f dBm) and %.1f kHz (%.1f dBm), offsets ±falt",
			c, lf/1e3, l, rf/1e3, rr))
	return out
}

// fig02: sinusoidal carrier modulated by an arbitrary signal — side-bands
// mirror the modulating activity's multi-modal spectrum ("bumps").
func fig02(cfg Config) *report.Output {
	scene := &emsim.Scene{}
	scene.Add(&amCarrier{freq: conceptFc, powerDBm: -90, depth: 0.5, modulate: loadAsSignal})
	scene.Add(&emsim.Background{FloorDBmPerHz: -175})
	s := sweep(scene, conceptF1, conceptF2, conceptFres, conceptActivity(cfg.Seed+2), cfg.Seed+2)
	out := &report.Output{
		ID:     "fig02",
		Title:  "Sinusoidal carrier modulated by an arbitrary (program-activity) signal",
		Series: []report.Series{dbmSeries("spectrum", s)},
	}
	// The side-band contains the alternation fundamental plus odd
	// harmonics and jitter bumps.
	_, sb1 := peakNear(s, conceptFc+conceptFalt, 2e3)
	_, sb3 := peakNear(s, conceptFc+3*conceptFalt, 2e3)
	out.Notes = append(out.Notes,
		fmt.Sprintf("right side-band: fundamental %.1f dBm, 3rd alternation harmonic %.1f dBm (square-wave activity)", sb1, sb3))
	return out
}

// fig03: non-ideal carrier modulated by a sinusoid — spreading of the
// carrier is inherited by both side-bands.
func fig03(cfg Config) *report.Output {
	scene := &emsim.Scene{}
	scene.Add(&amCarrier{
		freq: conceptFc, powerDBm: -90, depth: 0.5,
		wanderSigma: 400, wanderTau: 1e-3,
		modulate: func(t float64, _ *activity.Cursor) float64 {
			return math.Sin(2 * math.Pi * conceptFalt * t)
		},
	})
	scene.Add(&emsim.Background{FloorDBmPerHz: -175})
	s := sweep(scene, conceptF1, conceptF2, conceptFres, nil, cfg.Seed+3)
	out := &report.Output{
		ID:     "fig03",
		Title:  "Non-ideal (RC-oscillator) carrier modulated by a sinusoidal signal",
		Series: []report.Series{dbmSeries("spectrum", s)},
	}
	// Spreading: compare peak bin to power integrated over ±2 kHz.
	_, pk := peakNear(s, conceptFc, 2e3)
	var tot float64
	for _, p := range s.Slice(conceptFc-2e3, conceptFc+2e3).PmW {
		tot += p
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("carrier spread: peak bin %.1f dBm vs ±2 kHz integral %.1f dBm (energy spread by jitter)",
			pk, spectral.DBmFromMw(tot)))
	return out
}

// fig04: non-ideal carrier, arbitrary modulating signal.
func fig04(cfg Config) *report.Output {
	scene := &emsim.Scene{}
	scene.Add(&amCarrier{
		freq: conceptFc, powerDBm: -90, depth: 0.5,
		wanderSigma: 400, wanderTau: 1e-3,
		modulate: loadAsSignal,
	})
	scene.Add(&emsim.Background{FloorDBmPerHz: -175})
	s := sweep(scene, conceptF1, conceptF2, conceptFres, conceptActivity(cfg.Seed+4), cfg.Seed+4)
	return &report.Output{
		ID:     "fig04",
		Title:  "Non-ideal carrier modulated by an arbitrary signal",
		Series: []report.Series{dbmSeries("spectrum", s)},
		Notes:  []string{"side-bands inherit both the carrier spread and the activity spectrum (convolution)"},
	}
}

// fig05: Figure 4 plus noise and unrelated signals — why "eyeballing" the
// spectrum fails and FASE is needed.
func fig05(cfg Config) *report.Output {
	scene := &emsim.Scene{}
	scene.Add(&amCarrier{
		freq: conceptFc, powerDBm: -112, depth: 0.5,
		wanderSigma: 400, wanderTau: 1e-3,
		modulate: loadAsSignal,
	})
	// Unrelated periodic signals and the metropolitan AM band.
	scene.Add(&emsim.AMStation{Call: "WDUN", Freq: 1010e3, PowerMw: spectral.MwFromDBm(-99), Depth: 0.6, AudioSeed: cfg.Seed + 50})
	scene.Add(&emsim.AMStation{Call: "WQXI", Freq: 0.92e6, PowerMw: spectral.MwFromDBm(-95), Depth: 0.5, AudioSeed: cfg.Seed + 51})
	scene.Add(&emsim.Background{
		FloorDBmPerHz: -172,
		Hills:         []emsim.Hill{{Center: 0.95e6, Width: 200e3, GainDB: 7}},
	})
	s := sweep(scene, conceptF1, conceptF2, conceptFres, conceptActivity(cfg.Seed+5), cfg.Seed+5)
	out := &report.Output{
		ID:     "fig05",
		Title:  "Non-ideal modulated carrier with noise and unrelated signals present",
		Series: []report.Series{dbmSeries("spectrum", s)},
	}
	_, station := peakNear(s, 1010e3, 1e3)
	_, carrier := peakNear(s, conceptFc, 2e3)
	out.Notes = append(out.Notes,
		fmt.Sprintf("unrelated AM station reads %.1f dBm vs the modulated carrier's %.1f dBm: visual identification is impractical", station, carrier))
	return out
}

// fig06: the alternation micro-benchmark itself (the paper's pseudo-code)
// demonstrated as an executable model: achieved alternation frequency,
// duty cycle, and the multi-modal distribution of half-period durations.
func fig06(cfg Config) *report.Output {
	target := conceptFalt
	tr := microbench.Generate(microbench.Config{
		X: activity.LDM, Y: activity.LDL1, FAlt: target,
		Jitter: microbench.DefaultJitter(), Seed: cfg.Seed + 6,
	}, 1.0)
	// Half-period duration histogram (multi-modal per §2.1).
	durs := map[string]int{}
	var total float64
	n := 0
	for i := 1; i < tr.Len(); i++ {
		d := tr.Segment(i).Start - tr.Segment(i-1).Start
		total += d
		n++
		key := fmt.Sprintf("%.1f µs", math.Round(d*1e7)/10)
		durs[key]++
	}
	achieved := float64(n) / 2 / total
	tbl := report.Table{
		Title:  "Half-period duration distribution (Figure 6 loop with contention jitter)",
		Header: []string{"duration", "count"},
	}
	keys := make([]string, 0, len(durs))
	for k := range durs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tbl.Rows = append(tbl.Rows, []string{k, fmt.Sprintf("%d", durs[k])})
	}
	return &report.Output{
		ID:     "fig06",
		Title:  "X/Y alternation micro-benchmark (executable model of the paper's pseudo-code)",
		Tables: []report.Table{tbl},
		Notes: []string{fmt.Sprintf("target f_alt %.1f kHz, achieved %.2f kHz over %d half-periods, %d distinct duration modes",
			target/1e3, achieved/1e3, n, len(durs))},
	}
}

package experiments

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/baseline"
	"fase/internal/core"
	"fase/internal/dsp/demod"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/report"
	"fase/internal/specan"
)

// fig17: FASE on the AMD Turion X2 laptop with LDM/LDL1 activity —
// memory regulator, 132 kHz refresh, two unidentified regulators; the
// FM-modulated core regulator must not appear.
func fig17(cfg Config) *report.Output {
	sys := machine.AMDTurionX2Laptop2007()
	r := &core.Runner{Scene: sys.Scene(cfg.Seed, true)}
	res := r.Run(core.Campaign{
		F1: 0.1e6, F2: 1.1e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 170,
	})
	found := func(f float64) bool { return detected(res.Detections, f, 1.5e3) }
	return &report.Output{
		ID:     "fig17",
		Title:  "FASE results for the AMD Turion X2 laptop, LDM/LDL1 modulating activity",
		Tables: []report.Table{campaignTable(sys, r, res), groupTable(res)},
		Claims: []report.Claim{
			{ID: "refresh-132khz",
				Text:  "refresh carrier at 132 kHz (not 128 kHz as on the other systems) reported within 1.5 kHz",
				Holds: found(132e3)},
			{ID: "memory-side-found",
				Text:  "memory regulator (250 kHz) and unidentified regulators A (540 kHz) and B (820 kHz) each reported within 1.5 kHz",
				Holds: found(250e3) && found(540e3) && found(820e3)},
			{ID: "fm-regulator-absent",
				Text:  "no detection within 1.5 kHz of the FM core regulator (390 kHz) (paper: FASE correctly does not report it)",
				Holds: !found(sys.FMCoreRegulator.F0)},
		},
	}
}

// refreshInverse reproduces §4.2's counterintuitive observation: the
// refresh carrier is strongest when memory is idle and weakens as memory
// activity increases.
func refreshInverse(cfg Config) *report.Output {
	sys := machine.IntelCoreI7Desktop()
	r := &core.Runner{Scene: sys.Scene(cfg.Seed, false)}
	fLine := float64(sys.Refresh.Ranks) / sys.Refresh.TRefi // 512 kHz
	levels := []float64{0, 0.25, 0.5, 0.75, 1.0}
	series := report.Series{Name: "512 kHz refresh line vs DRAM activity"}
	tbl := report.Table{
		Title:  "Refresh line power vs continuous memory activity",
		Header: []string{"DRAM load", "512 kHz line dBm"},
	}
	var floor float64
	for i, lv := range levels {
		tr := activity.NewConstant(activity.Load{Core: 0.5, MemCtl: 0.9 * lv, DRAM: lv})
		s := sweep(r.Scene, fLine-30e3, fLine+30e3, 100, tr, cfg.Seed+180+int64(i))
		_, p := peakNear(s, fLine, 2e3)
		floor = dbmOf(s.MedianPower())
		series.X = append(series.X, lv)
		series.Y = append(series.Y, p)
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%.2f", lv), db1(p)})
	}
	drop := series.Y[0] - series.Y[len(series.Y)-1]
	// Monotone up to noise: once the line sinks into the floor, readings
	// are floor noise and only need to stay there (±3 dB).
	monotone := true
	for i := 1; i < len(series.Y); i++ {
		prev := math.Max(series.Y[i-1], floor+3)
		if series.Y[i] > prev+3 {
			monotone = false
		}
	}
	return &report.Output{
		ID:     "refresh-inverse",
		Title:  "§4.2: refresh carrier weakens as memory activity increases",
		Series: []report.Series{series},
		Tables: []report.Table{tbl},
		Notes:  []string{fmt.Sprintf("idle→full-load drop %.1f dB", drop)},
		Claims: []report.Claim{{ID: "weakens-monotonically",
			Text:  "as DRAM load grows, each 512 kHz line reading rises at most 3 dB above the previous one or stays within 6 dB of the floor (paper: 'strongest when there is no memory activity and weakest when we generate continuous memory activity')",
			Holds: monotone}},
	}
}

// fmRejection reproduces §4.4: the constant-on-time (frequency-modulated)
// core regulator is not reported by FASE, and a spectrogram confirms the
// modulation is FM.
func fmRejection(cfg Config) *report.Output {
	sys := machine.AMDTurionX2Laptop2007()
	r := &core.Runner{Scene: sys.Scene(cfg.Seed, false)}
	f0 := sys.FMCoreRegulator.F0
	// FASE campaign with on-chip alternation (the FM source is the core
	// domain) across the regulator's band.
	res := r.Run(core.Campaign{
		F1: f0 - 90e3, F2: f0 + 90e3, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 190,
	})
	// Spectrogram/discriminator confirmation of FM ("we confirmed this
	// with a spectrogram of the modulation"): capture the regulator at
	// baseband under a slow core-load alternation and compare the mean
	// instantaneous frequency of the X and Y halves.
	stats := confirmFM(r.Scene, f0, cfg.Seed+191)
	return &report.Output{
		ID:    "fm-rejection",
		Title: "§4.4: frequency-modulated regulator is correctly not reported; spectrogram confirms FM",
		Notes: []string{stats},
		Claims: []report.Claim{{ID: "not-reported",
			Text:  "no FASE detection within 50 kHz of the FM regulator (390 kHz): the signal is FM, not AM",
			Holds: !detected(res.Detections, f0, 50e3)}},
	}
}

// confirmFM measures the frequency shift of the strongest in-band signal
// between the two halves of a slow alternation — positive for an
// FM-modulated regulator, ~zero for AM.
func confirmFM(scene *emsim.Scene, f0 float64, seed int64) string {
	const (
		// Narrow capture: keep other emitters (stronger regulators,
		// refresh lines) out of band so the discriminator sees only the
		// FM regulator.
		fs   = 160e3
		falt = 500.0 // slow alternation so each half is long
		n    = 1 << 16
	)
	tr := microbench.Generate(microbench.Config{
		X: activity.LDL2, Y: activity.LDL1, FAlt: falt,
		Jitter: microbench.NoJitter(), Seed: seed,
	}, float64(n)/fs+0.01)
	x := scene.Render(emsim.Capture{
		Band: emsim.Band{Center: f0, SampleRate: fs}, N: n,
		Activity: tr, Seed: seed,
	})
	freq := demod.InstFreq(x, fs)
	// Average the discriminator output per alternation half.
	var sumX, sumY float64
	var nX, nY int
	cur := tr.Cursor()
	for i, f := range freq {
		t := float64(i) / fs
		if cur.At(t).Core > 0.6 { // LDL2 half
			sumX += f
			nX++
		} else {
			sumY += f
			nY++
		}
	}
	shift := sumX/float64(nX) - sumY/float64(nY)
	return fmt.Sprintf("mean instantaneous frequency shift between LDL2 and LDL1 halves: %.1f kHz (FM confirmed if ≫ 0)", shift/1e3)
}

// nearfieldGCD reproduces the §4.2 localization discovery: far-field
// measurements show a 512 kHz comb, but near-field probes at the DIMMs
// reveal harmonics with a greatest common divisor of 128 kHz.
func nearfieldGCD(cfg Config) *report.Output {
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(cfg.Seed, false)
	far := sweep(scene, 0.1e6, 1.1e6, 100, nil, cfg.Seed+200)
	nearAn := specan.New(specan.Config{Fres: 100})
	near := nearAn.Sweep(specan.Request{
		Scene: scene, F1: 0.1e6, F2: 1.1e6, Seed: cfg.Seed + 201,
		NearField: true,
	})
	fine := 1 / sys.Refresh.TRefi
	tbl := report.Table{
		Title:  "Refresh comb lines, far field vs near field",
		Header: []string{"line kHz", "far-field dBm", "near-field dBm"},
	}
	var farLines, nearLines []float64
	floorFar := dbmOf(far.MedianPower())
	floorNear := dbmOf(near.MedianPower())
	for n := 1; float64(n)*fine <= 1.05e6; n++ {
		f := float64(n) * fine
		_, pf := peakNear(far, f, 1e3)
		_, pn := peakNear(near, f, 1e3)
		tbl.Rows = append(tbl.Rows, []string{khz(f), db1(pf), db1(pn)})
		if pf > floorFar+10 {
			farLines = append(farLines, f)
		}
		if pn > floorNear+10 {
			nearLines = append(nearLines, f)
		}
	}
	return &report.Output{
		ID:     "nearfield-gcd",
		Title:  "§4.2: near-field probing reveals the 128 kHz refresh grid behind the 512 kHz far-field comb",
		Tables: []report.Table{tbl},
		Notes: []string{
			fmt.Sprintf("far-field visible lines GCD %.0f kHz; near-field visible lines GCD %.0f kHz (paper: 512 kHz vs 128 kHz)",
				gcdOf(farLines)/1e3, gcdOf(nearLines)/1e3),
		},
	}
}

func dbmOf(mw float64) float64 {
	if mw <= 0 {
		return -300
	}
	return 10 * math.Log10(mw)
}

// gcdOf estimates the greatest common divisor of a set of frequencies.
func gcdOf(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	g := fs[0]
	for _, f := range fs[1:] {
		g = floatGCD(g, f)
	}
	return g
}

func floatGCD(a, b float64) float64 {
	for b > 1e3 {
		a, b = b, math.Mod(a, b)
	}
	return a
}

// validation reproduces the §1/§3 headline claim across all four systems:
// FASE finds every modulated emitter and rejects every unmodulated or
// merely-FM signal, AM stations included.
func validation(cfg Config) *report.Output {
	tbl := report.Table{
		Title:  "Ground-truth validation: FASE across systems and activity pairs",
		Header: []string{"system", "pair", "detections", "explained", "unexplained (FP)", "modulated emitters", "found (recall)"},
	}
	type pairT struct{ x, y activity.Kind }
	pairs := []pairT{{activity.LDM, activity.LDL1}, {activity.LDL2, activity.LDL1}}
	allClean := true
	for _, name := range []string{"i7-desktop", "i3-laptop", "turion-laptop", "p3m-laptop", "fivr-desktop"} {
		sys, err := machine.Lookup(name)
		if err != nil {
			panic(err)
		}
		scene := sys.Scene(cfg.Seed, true)
		r := &core.Runner{Scene: scene}
		for _, p := range pairs {
			f1, f2 := 0.1e6, 2e6
			res := r.Run(core.Campaign{
				F1: f1, F2: f2, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
				X: p.x, Y: p.y, Seed: cfg.Seed + 210,
			})
			explained, fp, _ := detectionStats(r, res, p.x, p.y)
			heads := headlineCarriers(scene, f1, f2, p.x, p.y)
			foundCount := 0
			for _, lines := range heads {
				for _, f := range lines {
					if detected(res.Detections, f, 2e3) {
						foundCount++
						break
					}
				}
			}
			if fp > 0 || foundCount < len(heads) {
				allClean = false
			}
			tbl.Rows = append(tbl.Rows, []string{
				name, pairName(p.x, p.y),
				fmt.Sprintf("%d", len(res.Detections)),
				fmt.Sprintf("%d", explained),
				fmt.Sprintf("%d", fp),
				fmt.Sprintf("%d", len(heads)),
				fmt.Sprintf("%d", foundCount),
			})
		}
	}
	return &report.Output{
		ID:     "validation",
		Title:  "FASE validation against simulator ground truth",
		Tables: []report.Table{tbl},
		Claims: []report.Claim{{ID: "all-clean",
			Text:  "every campaign clean: zero unexplained detections and every modulated emitter found (paper: 'FASE successfully rejected all such signals, while reporting the small number of remaining signals that were indeed modulated')",
			Holds: allClean}},
	}
}

func pairName(x, y activity.Kind) string { return x.String() + "/" + y.String() }

// baselineComparison quantifies §2.3's argument: the single-spectrum
// symmetric-side-band heuristic and a generic AM classifier against FASE
// on the same i7 measurement.
func baselineComparison(cfg Config) *report.Output {
	_, r := i7Scene(cfg.Seed)
	f1, f2 := 0.1e6, 2e6
	x, y := activity.LDM, activity.LDL1
	res := r.Run(core.Campaign{
		F1: f1, F2: f2, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: x, Y: y, Seed: cfg.Seed + 220,
	})
	lines := explainableLines(r.Scene, f1, f2, x, y)
	evaluate := func(freqs []float64) (tp, fp int) {
		for _, f := range freqs {
			if matchesAny(f, lines, 2.5e3) {
				tp++
			} else {
				fp++
			}
		}
		return
	}
	// FASE.
	var faseFreqs []float64
	for _, d := range res.Detections {
		faseFreqs = append(faseFreqs, d.Freq)
	}
	faseTP, faseFP := evaluate(faseFreqs)
	// Symmetric side-band baseline on the first measurement.
	sp := res.Measurements[0].Spectrum
	var symFreqs []float64
	for _, c := range baseline.SymmetricSideband(sp, baseline.SymmetricConfig{FAlt: res.Measurements[0].FAlt}) {
		symFreqs = append(symFreqs, c.Freq)
	}
	symTP, symFP := evaluate(symFreqs)
	// Generic AM classifier on the same spectrum.
	var amcFreqs []float64
	for _, c := range baseline.AMClassifier(sp, baseline.AMCConfig{}) {
		amcFreqs = append(amcFreqs, c.Freq)
	}
	amcTP, amcFP := evaluate(amcFreqs)
	// How many AM stations did the AMC flag? (All of them are FPs for the
	// side-channel task.)
	stationFPs := 0
	for _, f := range amcFreqs {
		if f >= 540e3 && f <= 1600e3 && !matchesAny(f, lines, 2.5e3) {
			stationFPs++
		}
	}
	tbl := report.Table{
		Title:  "Detector comparison on the i7 LDM/LDL1 measurement (0.1–2 MHz)",
		Header: []string{"detector", "reports", "true (modulated emitter)", "false"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"FASE (5 f_alt)", fmt.Sprintf("%d", len(faseFreqs)), fmt.Sprintf("%d", faseTP), fmt.Sprintf("%d", faseFP)},
		[]string{"symmetric side-band (1 spectrum)", fmt.Sprintf("%d", len(symFreqs)), fmt.Sprintf("%d", symTP), fmt.Sprintf("%d", symFP)},
		[]string{"generic AM classifier", fmt.Sprintf("%d", len(amcFreqs)), fmt.Sprintf("%d", amcTP), fmt.Sprintf("%d", amcFP)},
	)
	return &report.Output{
		ID:     "baseline-comparison",
		Title:  "FASE vs the §2.3 naive detector and a generic AM classifier",
		Tables: []report.Table{tbl},
		Notes: []string{
			fmt.Sprintf("AM classifier flagged %d broadcast stations — §2.3/§5: such detectors 'would also report radio stations and other modulated signals'", stationFPs),
			fmt.Sprintf("FASE: %d/%d true; baselines admit false positives and/or miss carriers", faseTP, len(faseFreqs)),
		},
	}
}

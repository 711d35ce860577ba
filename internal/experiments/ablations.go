package experiments

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/report"
)

// ablationAverages sweeps the per-spectrum trace averaging (the paper
// averages 4 captures, §3; §6 contrasts FASE's "few spectrum
// measurements" with DPA's thousands): how little observation time does
// a reliable scan need?
func ablationAverages(cfg Config) *report.Output {
	_, r := ablScene(cfg.Seed)
	tbl := report.Table{
		Title:  "Detection quality vs per-spectrum averaging",
		Header: []string{"averages", "observation time", "true detections", "false detections", "weakest true score"},
	}
	for _, av := range []int{1, 2, 4, 8} {
		res := r.Run(core.Campaign{
			F1: ablF1, F2: ablF2, Fres: ablFres,
			FAlt1: 43.3e3, FDelta: 1e3, Averages: av,
			X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 270,
		})
		tp, fp, weakest := detectionStats(r, res, activity.LDM, activity.LDL1)
		obs := float64(av) * 5 / ablFres // averages × 5 f_alt × capture time
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", av),
			fmt.Sprintf("%.0f ms", obs*1e3),
			fmt.Sprintf("%d", tp), fmt.Sprintf("%d", fp), sc1(weakest),
		})
	}
	return &report.Output{
		ID:     "ablation-averages",
		Title:  "Ablation: trace averaging (paper: 4 averages; 'only a few spectrum measurements', §6)",
		Tables: []report.Table{tbl},
		Notes:  []string{"a complete regulator-band scan needs well under a second of observation — versus thousands of captures for DPA (§6)"},
	}
}

// ablationBand is the regulator band used by all ablations.
const (
	ablF1   = 0.25e6
	ablF2   = 0.55e6
	ablFres = 100.0
)

// ablScene is the i7's memory-side emitters plus environment clutter.
func ablScene(seed int64) (*machine.System, *core.Runner) {
	sys := machine.IntelCoreI7Desktop()
	return sys, &core.Runner{Scene: sys.Scene(seed, true)}
}

// detectionStats summarizes a campaign against the modulated ground truth.
func detectionStats(r *core.Runner, res *core.Result, x, y activity.Kind) (tp, fp int, weakest float64) {
	lines := explainableLines(r.Scene, res.Campaign.F1, res.Campaign.F2, x, y)
	weakest = math.Inf(1)
	for _, d := range res.Detections {
		if matchesAny(d.Freq, lines, 2e3) {
			tp++
			if d.Score < weakest {
				weakest = d.Score
			}
		} else {
			fp++
		}
	}
	if math.IsInf(weakest, 1) {
		weakest = 0
	}
	return
}

// ablationNAlts sweeps the number of alternation frequencies (the paper
// uses 5): fewer measurements weaken the product and its artifact
// rejection.
func ablationNAlts(cfg Config) *report.Output {
	_, r := ablScene(cfg.Seed)
	tbl := report.Table{
		Title:  "Detection quality vs number of alternation frequencies N",
		Header: []string{"N", "true detections", "false detections", "weakest true score"},
	}
	for _, n := range []int{2, 3, 5, 7} {
		res := r.Run(core.Campaign{
			F1: ablF1, F2: ablF2, Fres: ablFres,
			FAlt1: 43.3e3, FDelta: 1e3, NumAlts: n,
			X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 230,
		})
		tp, fp, weakest := detectionStats(r, res, activity.LDM, activity.LDL1)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", tp), fmt.Sprintf("%d", fp), sc1(weakest),
		})
	}
	return &report.Output{
		ID:     "ablation-nalts",
		Title:  "Ablation: number of alternation frequencies (paper: 'we use five')",
		Tables: []report.Table{tbl},
		Notes:  []string{"scores grow multiplicatively with N; N=2 offers little margin over artifacts"},
	}
}

// ablationCombine compares the paper's product combination (Eq. 1)
// against summing sub-scores.
func ablationCombine(cfg Config) *report.Output {
	_, r := ablScene(cfg.Seed)
	res := r.Run(core.Campaign{
		F1: ablF1, F2: ablF2, Fres: ablFres,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 240,
	})
	falts := res.Campaign.FAlts()
	spectra := make([]*spectral.Spectrum, len(res.Measurements))
	for i, m := range res.Measurements {
		spectra[i] = core.SmoothSpectrum(m.Spectrum, res.Campaign.SmoothBins)
	}
	subs := core.SubScores(spectra, falts, 1)
	bins := spectra[0].Bins()
	carrierBin := spectra[0].Index(315e3)
	contrast := func(trace []float64) float64 {
		// Peak-to-background contrast: value at the carrier over the 99th
		// percentile away from known carriers.
		peak := trace[carrierBin]
		var bg []float64
		for k := 0; k < bins; k++ {
			f := spectra[0].Freq(k)
			if math.Abs(f-315e3) > 5e3 && math.Abs(f-332.5e3) > 5e3 &&
				math.Abs(f-475e3) > 5e3 && math.Abs(f-512e3) > 5e3 {
				bg = append(bg, trace[k])
			}
		}
		hi := percentile(bg, 0.999)
		if hi <= 0 {
			return 0
		}
		return peak / hi
	}
	prod := make([]float64, bins)
	sum := make([]float64, bins)
	for k := 0; k < bins; k++ {
		p := 1.0
		s := 0.0
		for i := range subs {
			p *= subs[i][k]
			s += subs[i][k]
		}
		prod[k] = p
		sum[k] = s
	}
	tbl := report.Table{
		Title:  "Combination rule: carrier-to-background contrast at the 315 kHz carrier",
		Header: []string{"rule", "contrast (peak / p99.9 background)"},
		Rows: [][]string{
			{"product (Eq. 1)", fmt.Sprintf("%.1f", contrast(prod))},
			{"sum", fmt.Sprintf("%.1f", contrast(sum))},
		},
	}
	return &report.Output{
		ID:     "ablation-combine",
		Title:  "Ablation: product vs sum combination of sub-scores",
		Tables: []report.Table{tbl},
		Notes:  []string{"the product amplifies agreement across measurements; a sum lets one lucky sub-score dominate"},
	}
}

func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	cp := append([]float64(nil), x...)
	// Partial selection is overkill here; simple sort.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	i := int(p * float64(len(cp)-1))
	return cp[i]
}

// ablationHarmonics demonstrates §2.3's redundancy argument: when strong
// interferers bury both first-harmonic side-bands, the higher harmonics
// still detect the carrier.
func ablationHarmonics(cfg Config) *report.Output {
	sys := machine.IntelCoreI7Desktop()
	scene := &emsim.Scene{}
	scene.Add(sys.MemRegulator)
	// Interferers parked exactly on the ±1st-harmonic side-band regions
	// of the 315 kHz carrier (f_alt ≈ 43–47 kHz).
	scene.Add(
		&machine.UnmodulatedClock{Label: "interferer L", F0: 270.2e3, FundamentalDBm: -100, MaxHarmonics: 1},
		&machine.UnmodulatedClock{Label: "interferer R", F0: 360.1e3, FundamentalDBm: -100, MaxHarmonics: 1},
	)
	scene.Add(&emsim.Background{FloorDBmPerHz: -172})
	r := &core.Runner{Scene: scene}
	tbl := report.Table{
		Title:  "Detection of the 315 kHz carrier with buried ±1st side-bands",
		Header: []string{"harmonics used", "carrier detected", "score"},
	}
	for _, hs := range [][]int{{1, -1}, {2, -2, 3, -3}, core.DefaultHarmonics()} {
		res := r.Run(core.Campaign{
			F1: ablF1, F2: ablF2, Fres: ablFres,
			FAlt1: 43.3e3, FDelta: 1e3, Harmonics: hs,
			X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 250,
		})
		found := false
		score := 0.0
		for _, d := range res.Detections {
			if math.Abs(d.Freq-315e3) < 2e3 {
				found = true
				score = d.Score
			}
		}
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%v", hs), fmt.Sprintf("%v", found), sc1(score)})
	}
	return &report.Output{
		ID:     "ablation-harmonics",
		Title:  "Ablation: harmonic redundancy under side-band obscuration (§2.3)",
		Tables: []report.Table{tbl},
		Notes:  []string{"paper: 'detection of a single harmonic of falt in a single side-band is sufficient to detect a carrier'"},
	}
}

// ablationFDelta sweeps the f_Δ step: too small and side-bands do not
// separate between measurements (the smoothing window and line widths
// overlap); larger steps restore contrast.
func ablationFDelta(cfg Config) *report.Output {
	_, r := ablScene(cfg.Seed)
	tbl := report.Table{
		Title:  "Detection quality vs f_Δ",
		Header: []string{"fΔ (Hz)", "fΔ/fres (bins)", "true detections", "false detections", "weakest true score"},
	}
	for _, fd := range []float64{100, 200, 500, 1000, 2000} {
		res := r.Run(core.Campaign{
			F1: ablF1, F2: ablF2, Fres: ablFres,
			FAlt1: 43.3e3, FDelta: fd,
			X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 260,
		})
		tp, fp, weakest := detectionStats(r, res, activity.LDM, activity.LDL1)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", fd), fmt.Sprintf("%.0f", fd/ablFres),
			fmt.Sprintf("%d", tp), fmt.Sprintf("%d", fp), sc1(weakest),
		})
	}
	return &report.Output{
		ID:     "ablation-fdelta",
		Title:  "Ablation: side-band separation step f_Δ",
		Tables: []report.Table{tbl},
		Notes:  []string{"fΔ must exceed the side-band linewidth (a few bins) for the shift to be resolvable; beyond that the choice is arbitrary (§3)"},
	}
}

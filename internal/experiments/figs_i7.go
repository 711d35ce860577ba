package experiments

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/report"
)

// i7Scene builds the paper's primary platform with the metropolitan RF
// environment.
func i7Scene(seed int64) (*machine.System, *core.Runner) {
	sys := machine.IntelCoreI7Desktop()
	return sys, &core.Runner{Scene: sys.Scene(seed, true)}
}

var fig7Falts = []float64{43.3e3, 43.8e3, 44.3e3, 44.8e3, 45.3e3}

// sidebandDetail measures one carrier's neighbourhood at the five
// alternation frequencies plus an unmodulated control pair — the raw
// material of Figures 7 and 12.
func sidebandDetail(r *core.Runner, fc float64, x, y, cx, cy activity.Kind, fres float64, seed int64) ([]report.Series, []string) {
	f1 := fc - 50e3
	f2 := fc + 50e3
	var series []report.Series
	var notes []string
	var leftPeaks []float64
	for i, fa := range fig7Falts {
		tr := microbench.Generate(microbench.Config{
			X: x, Y: y, FAlt: fa, Jitter: microbench.DefaultJitter(), Seed: seed + int64(i),
		}, 0.3)
		s := sweep(r.Scene, f1, f2, fres, tr, seed+int64(i)*37)
		series = append(series, dbmSeries(fmt.Sprintf("%v/%v falt=%.1fkHz", x, y, fa/1e3), s))
		// Track the left side-band peak: it must move by -f_Δ per step.
		lf, _ := peakNear(s, fc-fa, 1.5e3)
		leftPeaks = append(leftPeaks, lf)
	}
	ctl := microbench.Generate(microbench.Config{
		X: cx, Y: cy, FAlt: fig7Falts[0], Jitter: microbench.DefaultJitter(), Seed: seed + 99,
	}, 0.3)
	s := sweep(r.Scene, f1, f2, fres, ctl, seed+999)
	series = append(series, dbmSeries(fmt.Sprintf("%v/%v control", cx, cy), s))
	// Quantify the side-band movement.
	var steps []float64
	for i := 1; i < len(leftPeaks); i++ {
		steps = append(steps, leftPeaks[i]-leftPeaks[i-1])
	}
	notes = append(notes, fmt.Sprintf("left side-band peak steps between successive f_alt: %v Hz (paper: exactly -f_Δ = -500 Hz per step)", steps))
	return series, notes
}

// fig07: the refresh-comb carrier near 1.024 MHz and its side-bands under
// LDM/LDL1 at five alternation frequencies, with the LDL1/LDL1 control.
func fig07(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	fc := 2 * float64(sys.Refresh.Ranks) / sys.Refresh.TRefi // 1.024 MHz line
	series, notes := sidebandDetail(r, fc, activity.LDM, activity.LDL1,
		activity.LDL1, activity.LDL1, 50, cfg.Seed+70)
	return &report.Output{
		ID:     "fig07",
		Title:  "Carrier at ~1.024 MHz with side-bands generated by memory activity (5 f_alt + control)",
		Series: series,
		Notes:  notes,
	}
}

// fig08: simplified spectrum representation of the LDL2/LDL1 carriers and
// their side-band harmonic positions.
func fig08(cfg Config) *report.Output {
	_, r := i7Scene(cfg.Seed)
	res := r.Run(core.Campaign{
		F1: 0.1e6, F2: 2e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 80,
	})
	tbl := report.Table{
		Title:  "Carriers and side-band harmonic frequencies (LDL2/LDL1, f_alt1 = 43.3 kHz)",
		Header: []string{"carrier kHz", "score", "h=-3", "h=-1", "h=+1", "h=+3", "h=+5"},
	}
	for _, d := range res.Detections {
		row := []string{khz(d.Freq), sc1(d.Score)}
		for _, h := range []int{-3, -1, 1, 3, 5} {
			row = append(row, khz(d.Freq+float64(h)*fig7Falts[0]))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return &report.Output{
		ID:     "fig08",
		Title:  "Simplified spectrum representation: harmonics of the LDL2/LDL1 activity",
		Tables: []report.Table{tbl},
		Notes:  []string{fmt.Sprintf("%d carriers detected; interleaved side-band harmonics of different carriers overlap, which is why manual interpretation fails", len(res.Detections))},
	}
}

// fig09: heuristic output for the ±1st harmonics around the two carriers
// of Figures 7 and 12.
func fig09(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	out := &report.Output{
		ID:    "fig09",
		Title: "Heuristic function output, ±1st harmonics, for the Fig. 7 and Fig. 12 carriers",
	}
	cases := []struct {
		name string
		fc   float64
		x, y activity.Kind
	}{
		{"memory refresh @1.024 MHz", 2 * float64(sys.Refresh.Ranks) / sys.Refresh.TRefi, activity.LDM, activity.LDL1},
		{"core regulator @332.5 kHz", sys.CoreRegulator.FSw, activity.LDL2, activity.LDL1},
	}
	for ci, c := range cases {
		res := r.Run(core.Campaign{
			F1: c.fc - 60e3, F2: c.fc + 60e3, Fres: 50,
			FAlt1: 43.3e3, FDelta: 0.5e3,
			Harmonics: []int{1, -1},
			X:         c.x, Y: c.y, Seed: cfg.Seed + 90 + int64(ci),
		})
		for _, h := range []int{1, -1} {
			trace := res.Scores[h]
			sp := res.Measurements[0].Spectrum
			var xs, ys []float64
			for k := range trace {
				off := sp.Freq(k) - c.fc
				if off >= -12e3 && off <= 12e3 {
					xs = append(xs, off)
					ys = append(ys, math.Log10(trace[k]))
				}
			}
			out.Series = append(out.Series, report.Series{
				Name: fmt.Sprintf("%s h=%+d (log10 score)", c.name, h),
				X:    xs, Y: ys,
			})
		}
		// The peak must sit at zero offset.
		for _, s := range out.Series[len(out.Series)-2:] {
			x, y := s.Peak()
			out.Notes = append(out.Notes, fmt.Sprintf("%s: peak log10-score %.2f at offset %.0f Hz", s.Name, y, x))
		}
	}
	return out
}

// fig10: the measurement campaign parameter table.
func fig10(cfg Config) *report.Output {
	cs := core.PaperCampaigns(activity.LDM, activity.LDL1)
	tbl := report.Table{
		Title:  "FASE measurement parameters (Figure 10)",
		Header: []string{"Frequency Range (MHz)", "fres (Hz)", "falt1 (kHz)", "fΔ (kHz)", "spectrum bins", "capture (ms)"},
	}
	for _, c := range cs {
		bins := int((c.F2 - c.F1) / c.Fres)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%g to %g", c.F1/1e6, c.F2/1e6),
			fmt.Sprintf("%g", c.Fres),
			fmt.Sprintf("%g", c.FAlt1/1e3),
			fmt.Sprintf("%g", c.FDelta/1e3),
			fmt.Sprintf("%d", bins),
			fmt.Sprintf("%g", 1000/c.Fres),
		})
	}
	return &report.Output{
		ID:     "fig10",
		Title:  "FASE measurement parameters",
		Tables: []report.Table{tbl},
		Notes:  []string{"paper: 0–4 MHz at 50 Hz resolution = 80,000 data points per spectrum; reproduced by the campaign configuration"},
	}
}

// attribution matches a detection to the closest emitter line; an exact
// tie goes to the name that sorts first.
func attribution(sys *machine.System, r *core.Runner, d core.Detection) string {
	lines := map[string][]float64{}
	for _, e := range r.Scene.Emitters() {
		lines[e.Name()] = e.Carriers(d.Freq-5e3, d.Freq+5e3)
	}
	// Refresh fine grid.
	if sys.Refresh != nil {
		fine := 1 / sys.Refresh.TRefi
		n := math.Round(d.Freq / fine)
		if n >= 1 && math.Abs(d.Freq-n*fine) < 2e3 {
			lines[sys.Refresh.Label] = append(lines[sys.Refresh.Label], n*fine)
		}
	}
	best, bestDist := "unattributed", math.Inf(1)
	for name, fs := range lines {
		for _, f := range fs {
			if dd := math.Abs(f - d.Freq); dd < bestDist || dd == bestDist && name < best {
				best, bestDist = name, dd
			}
		}
	}
	return best
}

// campaignTable renders a campaign's detections with source attribution.
func campaignTable(sys *machine.System, r *core.Runner, res *core.Result) report.Table {
	tbl := report.Table{
		Title:  "FASE detections",
		Header: []string{"carrier kHz", "score", "harmonics", "magnitude dBm", "depth dB", "attributed source"},
	}
	for _, d := range res.Detections {
		tbl.Rows = append(tbl.Rows, []string{
			khz(d.Freq), sc1(d.Score), hstr(d.Harmonics),
			db1(d.MagnitudeDBm), db1(d.DepthDB),
			attribution(sys, r, d),
		})
	}
	return tbl
}

// groupTable renders harmonic sets.
func groupTable(res *core.Result) report.Table {
	sets := core.GroupHarmonics(res.Detections)
	tbl := report.Table{
		Title:  "Harmonic sets (carriers grouped by common fundamental)",
		Header: []string{"fundamental kHz", "members", "orders"},
	}
	for _, s := range sets {
		var ms string
		for i, m := range s.Members {
			if i > 0 {
				ms += " "
			}
			ms += khz(m.Freq)
		}
		tbl.Rows = append(tbl.Rows, []string{khz(s.Fundamental), ms, fmt.Sprintf("%v", s.Orders)})
	}
	return tbl
}

// fig11: the headline result — FASE on the i7 desktop with main-memory
// (LDM/LDL1) modulating activity over the 0.1–4 MHz campaign.
func fig11(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	res := r.Run(core.Campaign{
		F1: 0.1e6, F2: 4e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 110,
	})
	// The paper's findings: memory regulator set, memory controller
	// regulator, memory refresh set; core regulator absent.
	found := func(f float64) bool { return detected(res.Detections, f, 1e3) }
	_, unexplained, _ := detectionStats(r, res, activity.LDM, activity.LDL1)
	return &report.Output{
		ID:     "fig11",
		Title:  "FASE results for the Intel Core i7 desktop, LDM/LDL1 modulating activity",
		Tables: []report.Table{campaignTable(sys, r, res), groupTable(res)},
		Notes:  []string{fmt.Sprintf("total detections: %d, unexplained by a modulated emitter's lines: %d", len(res.Detections), unexplained)},
		Claims: []report.Claim{
			{ID: "memory-side-found",
				Text:  "memory regulator (315 kHz), memory interface regulator (475 kHz) and refresh comb (512 kHz) each reported within 1 kHz",
				Holds: found(sys.MemRegulator.FSw) && found(sys.MemCtlRegulator.FSw) && found(512e3)},
			{ID: "core-regulator-absent",
				Text:  "no detection within 1 kHz of the core regulator (332.5 kHz) (paper: visible in the spectrum but not modulated by LDM/LDL1)",
				Holds: !found(sys.CoreRegulator.FSw)},
			{ID: "all-explained",
				Text:  "every detection lies within 2 kHz of a line of an emitter LDM/LDL1 modulates (validation's rule)",
				Holds: unexplained == 0},
		},
	}
}

// fig12: the core-regulator carrier and side-bands under on-chip
// (LDL2/LDL1) activity.
func fig12(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	series, notes := sidebandDetail(r, sys.CoreRegulator.FSw, activity.LDL2, activity.LDL1,
		activity.LDL1, activity.LDL1, 50, cfg.Seed+120)
	return &report.Output{
		ID:     "fig12",
		Title:  "Switching-regulator carrier at 332.5 kHz and side-bands generated by on-chip activity",
		Series: series,
		Notes:  notes,
	}
}

// fig13: FASE on the i7 with L2 (LDL2/LDL1) activity: only the core
// regulator responds.
func fig13(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	res := r.Run(core.Campaign{
		F1: 0.1e6, F2: 4e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 130,
	})
	onlyCore := true
	for _, d := range res.Detections {
		n := math.Round(d.Freq / sys.CoreRegulator.FSw)
		if n < 1 || math.Abs(d.Freq-n*sys.CoreRegulator.FSw) > 2e3 {
			onlyCore = false
		}
	}
	return &report.Output{
		ID:     "fig13",
		Title:  "FASE results for the Intel Core i7 desktop, LDL2/LDL1 modulating activity",
		Tables: []report.Table{campaignTable(sys, r, res)},
		Notes:  []string{fmt.Sprintf("%d detections", len(res.Detections))},
		Claims: []report.Claim{{ID: "only-core-regulator",
			Text:  "every detection is within 2 kHz of a core-regulator (332.5 kHz) harmonic (paper: 'Only one type of carrier was found to be modulated in this case')",
			Holds: onlyCore}},
	}
}

package experiments

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/dsp/spectral"
	"fase/internal/microbench"
	"fase/internal/report"
)

var fig15Falts = []float64{180e3, 190e3, 200e3, 210e3, 220e3}

// fig14: the spread-spectrum DRAM clock at 0% (LDL1/LDL1) vs 100%
// (LDM/LDM) memory activity.
func fig14(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	f0 := sys.DRAMClock.F0
	f1, f2 := f0-4e6, f0+3e6
	idle := sweep(r.Scene, f1, f2, 500, microbench.Constant(activity.LDL1), cfg.Seed+140)
	busy := sweep(r.Scene, f1, f2, 500, microbench.Constant(activity.LDM), cfg.Seed+141)
	out := &report.Output{
		ID:    "fig14",
		Title: "DRAM clock spectrum with 0% (LDL1/LDL1) and 100% (LDM/LDM) memory activity",
		Series: []report.Series{
			dbmSeries("LDL1/LDL1 (0% memory)", idle),
			dbmSeries("LDM/LDM (100% memory)", busy),
		},
	}
	// The swept band [F0-Spread, F0] carries the energy; activity raises it.
	mid := f0 - sys.DRAMClock.SpreadHz/2
	_, pi := peakNear(idle, mid, sys.DRAMClock.SpreadHz/2)
	_, pb := peakNear(busy, mid, sys.DRAMClock.SpreadHz/2)
	_, outOfSpread := peakNear(busy, f0-3e6, 500e3)
	out.Notes = append(out.Notes,
		fmt.Sprintf("in-spread peak: idle %.1f dBm, busy %.1f dBm (+%.1f dB with activity, §2.2)", pi, pb, pb-pi),
		fmt.Sprintf("out-of-spread level %.1f dBm: energy confined to [%.0f, %.0f] MHz", outOfSpread, (f0-sys.DRAMClock.SpreadHz)/1e6, f0/1e6))
	return out
}

// fig15: the DRAM clock with 50% memory activity (LDM/LDL1) at the five
// large alternation frequencies that move the side-bands outside the
// spread carrier.
func fig15(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	f0 := sys.DRAMClock.F0
	f1, f2 := f0-4e6, f0+3e6
	out := &report.Output{
		ID:    "fig15",
		Title: "DRAM clock spectrum with 50% (LDM/LDL1) memory activity at f_alt 180–220 kHz",
	}
	var first *spectral.Spectrum
	for i, fa := range fig15Falts {
		tr := microbench.Generate(microbench.Config{
			X: activity.LDM, Y: activity.LDL1, FAlt: fa,
			Jitter: microbench.DefaultJitter(), Seed: cfg.Seed + 150 + int64(i),
		}, 0.1)
		s := sweep(r.Scene, f1, f2, 500, tr, cfg.Seed+150+int64(i)*31)
		if first == nil {
			first = s
		}
		out.Series = append(out.Series, dbmSeries(fmt.Sprintf("LDM/LDL1 falt=%.0fkHz", fa/1e3), s))
	}
	ctl := sweep(r.Scene, f1, f2, 500, microbench.Constant(activity.LDL1), cfg.Seed+159)
	out.Series = append(out.Series, dbmSeries("LDL1/LDL1 control", ctl))
	// Side-band energy outside the spread range appears only under
	// alternation: compare at (F0-Spread) - falt.
	spreadLo := f0 - sys.DRAMClock.SpreadHz
	_, sb := peakNear(first, spreadLo-fig15Falts[0], 60e3)
	_, cb := peakNear(ctl, spreadLo-fig15Falts[0], 60e3)
	out.Notes = append(out.Notes,
		fmt.Sprintf("left side-band region (spread edge - f_alt): %.1f dBm under alternation vs %.1f dBm control", sb, cb))
	return out
}

// fig16: the heuristic detects the modulated spread-spectrum clock,
// reporting it as two carriers at the edges of the spread.
func fig16(cfg Config) *report.Output {
	sys, r := i7Scene(cfg.Seed)
	f0 := sys.DRAMClock.F0
	// Figure 10's campaign-3 parameters: f_alt must be "large enough to
	// move the side-band signals outside of the carrier's own spectrum"
	// (§4.3), and f_Δ must exceed the horn width so the shifted humps
	// decorrelate between measurements.
	res := r.Run(core.Campaign{
		F1: f0 - 4e6, F2: f0 + 3e6, Fres: 500,
		FAlt1: 1.8e6, FDelta: 100e3,
		MergeBins: 200, // merge each horn's sub-peaks (±100 kHz)
		X:         activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 160,
	})
	out := &report.Output{
		ID:    "fig16",
		Title: "Heuristic carrier detection output for the spread-spectrum DRAM clock",
	}
	sp := res.Measurements[0].Spectrum
	for _, h := range []int{1, -1} {
		trace := res.Scores[h]
		var xs, ys []float64
		for k := range trace {
			xs = append(xs, sp.Freq(k))
			ys = append(ys, math.Log10(trace[k]))
		}
		out.Series = append(out.Series, report.Series{Name: fmt.Sprintf("h=%+d (log10 score)", h), X: xs, Y: ys})
	}
	tbl := report.Table{
		Title:  "Detections (expect the two spread edges)",
		Header: []string{"carrier MHz", "score", "harmonics"},
	}
	for _, d := range res.Detections {
		tbl.Rows = append(tbl.Rows, []string{mhz(d.Freq), sc1(d.Score), hstr(d.Harmonics)})
	}
	out.Tables = append(out.Tables, tbl)
	out.Notes = append(out.Notes, fmt.Sprintf("%d detections", len(res.Detections)))
	out.Claims = []report.Claim{{ID: "both-edges",
		Text:  "detections within 300 kHz of both spread edges, 332 and 333 MHz (paper: 'reports the clock as two separate carriers at the edges of the spread out clock signal')",
		Holds: detected(res.Detections, f0-sys.DRAMClock.SpreadHz, 300e3) && detected(res.Detections, f0, 300e3)}}
	return out
}

package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"fase/internal/activity"
	"fase/internal/attack"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/report"
)

// fivrBandwidth examines the §4.1 forward-looking claim: integrated
// regulators (FIVR, 140 MHz switching) give attackers "a higher bandwidth
// readout of power consumption". FASE finds the FIVR carrier with the
// campaign-3 parameters, and the demodulation attack sustains MHz-rate
// bit recovery that the 65 kHz-loop board regulator cannot follow — the
// board regulator is also hemmed in by neighbouring carriers, while
// 140 MHz sits in a clean part of the spectrum.
func fivrBandwidth(cfg Config) *report.Output {
	sys, err := machine.Lookup("fivr-desktop")
	if err != nil {
		panic(err)
	}
	scene := sys.Scene(cfg.Seed, true)
	// FASE detection of the FIVR carrier (campaign-3 parameters: large
	// f_alt keeps side-bands clear of the carrier's wander).
	runner := &core.Runner{Scene: scene}
	res := runner.Run(core.Campaign{
		F1: 136e6, F2: 144e6, Fres: 500,
		FAlt1: 1.8e6, FDelta: 100e3,
		MergeBins: 120, // the 25 kHz oscillator wander spreads the line
		X:         activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 330,
	})
	// Bit-rate sweep through both core-activity channels.
	r := rand.New(rand.NewSource(cfg.Seed + 331))
	bits := make([]byte, 128)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	i7 := machine.IntelCoreI7Desktop()
	i7Scene := i7.Scene(cfg.Seed, true)
	boardRx := &attack.Receiver{Carrier: i7.CoreRegulator.FSw, Bandwidth: 15e3}
	fivrRx := &attack.Receiver{Carrier: sys.CoreRegulator.FSw, Bandwidth: 2e6}
	tbl := report.Table{
		Title:  "Core-activity leak rate: board regulator (332.5 kHz) vs FIVR (140 MHz)",
		Header: []string{"bit period", "board reg BER", "board bit/s", "FIVR BER", "FIVR bit/s"},
	}
	// The claim is read at 25 µs: a bit rate far past the board
	// regulator's 65 kHz loop and well inside the FIVR's bandwidth.
	outpaces := false
	for i, tBit := range []float64{250e-6, 25e-6, 5e-6, 2e-6} {
		lkBoard := attack.Quantify(boardRx, i7Scene, bits, activity.LDL2, activity.LDL1, tBit, cfg.Seed+332+int64(i))
		lkFIVR := attack.Quantify(fivrRx, scene, bits, activity.LDL2, activity.LDL1, tBit, cfg.Seed+340+int64(i))
		if tBit == 25e-6 {
			outpaces = lkFIVR.BER <= 0.05 && lkBoard.BER >= 0.3
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f µs", tBit*1e6),
			fmt.Sprintf("%.3f", lkBoard.BER),
			fmt.Sprintf("%.0f", lkBoard.BitsPerSymbol/tBit),
			fmt.Sprintf("%.3f", lkFIVR.BER),
			fmt.Sprintf("%.0f", lkFIVR.BitsPerSymbol/tBit),
		})
	}
	return &report.Output{
		ID:     "fivr-bandwidth",
		Title:  "§4.1: integrated regulators give a higher-bandwidth power readout",
		Tables: []report.Table{tbl},
		Notes:  []string{fmt.Sprintf("%d detections in 136–144 MHz", len(res.Detections))},
		Claims: []report.Claim{
			{ID: "fivr-found",
				Text:  "FASE reports a carrier within 200 kHz of the 140 MHz FIVR",
				Holds: detected(res.Detections, sys.CoreRegulator.FSw, 200e3)},
			{ID: "outpaces-board",
				Text:  "at a 25 µs bit period the FIVR's BER is at most 0.05 while the 65 kHz-loop board regulator's is at least 0.3",
				Holds: outpaces},
		},
	}
}

// attackLeakage quantifies what each FASE-found carrier is worth to an
// attacker: bits of victim activity recovered per second by AM
// demodulation, with error rate and class-separation SNR — the paper's
// §1/§4.1 threat ("power side-channel attacks from a distance") made
// concrete, and the §6 leakage-quantification use case.
func attackLeakage(cfg Config) *report.Output {
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(cfg.Seed, true)
	r := rand.New(rand.NewSource(cfg.Seed + 300))
	bits := make([]byte, 192)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	tbl := report.Table{
		Title:  "Leakage through FASE-found carriers (192 secret bits, DRAM-load encoding)",
		Header: []string{"carrier", "bit period", "BER", "SNR dB", "bits/symbol", "leak rate"},
	}
	cases := []struct {
		name    string
		carrier float64
		tBit    float64
	}{
		{"DIMM regulator 315 kHz", sys.MemRegulator.FSw, 250e-6},
		{"DIMM regulator 315 kHz", sys.MemRegulator.FSw, 1e-3},
		{"memory interface reg 475 kHz", sys.MemCtlRegulator.FSw, 250e-6},
		{"refresh comb 512 kHz", 512e3, 1e-3},
		{"UART clock 1.8432 MHz (control)", 1.8432e6, 1e-3},
	}
	lks := make([]attack.Leakage, len(cases))
	for i, cs := range cases {
		rx := &attack.Receiver{Carrier: cs.carrier, Bandwidth: 15e3}
		lk := attack.Quantify(rx, scene, bits, activity.LDM, activity.LDL1, cs.tBit, cfg.Seed+301+int64(i))
		lks[i] = lk
		tbl.Rows = append(tbl.Rows, []string{
			cs.name,
			fmt.Sprintf("%.0f µs", cs.tBit*1e6),
			fmt.Sprintf("%.3f", lk.BER),
			fmt.Sprintf("%.1f", lk.SNRdB),
			fmt.Sprintf("%.2f", lk.BitsPerSymbol),
			fmt.Sprintf("%.0f bit/s", lk.BitsPerSymbol/cs.tBit),
		})
	}
	// The strongest carrier leaks error-free, every modulated one leaks,
	// and the unmodulated control (the last case) leaks nothing.
	ctl := len(cases) - 1
	leaks := lks[0].BER == 0 && lks[ctl].BER >= 0.4
	for i := range cases[:ctl] {
		leaks = leaks && lks[i].BitsPerSymbol/cases[i].tBit >= 100
	}
	return &report.Output{
		ID:     "attack-leakage",
		Title:  "AM-demodulation attack through FASE-found carriers (§1, §4.1, refs [28,31])",
		Tables: []report.Table{tbl},
		Claims: []report.Claim{{ID: "leaks",
			Text:  "the DIMM regulator leaks error-free at a 250 µs bit period, every modulated carrier leaks at least 100 bit/s, and the unmodulated UART clock leaks nothing (BER at least 0.4)",
			Holds: leaks}},
	}
}

// mitigationRefresh evaluates the paper's proposed fix (§4.2/§6):
// "randomizing the issue of memory refresh commands would be compatible
// with existing DRAM standards and would greatly reduce the modulation of
// refresh activity." The experiment compares the refresh comb, FASE
// detectability, and demodulation leakage before and after dithering.
func mitigationRefresh(cfg Config) *report.Output {
	tbl := report.Table{
		Title:  "Refresh-interval randomization (tREFI dither) as mitigation",
		Header: []string{"dither (±% tREFI)", "512 kHz line dBm (idle)", "FASE detections on refresh grid", "attack BER via 512 kHz"},
	}
	r := rand.New(rand.NewSource(cfg.Seed + 310))
	bits := make([]byte, 128)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	var lineBefore, lineAfter float64
	var detBefore, detAfter int
	for _, dither := range []float64{0, 0.1, 0.3, 0.5} {
		sys := machine.IntelCoreI7Desktop()
		sys.Refresh.IntervalDither = dither
		scene := sys.Scene(cfg.Seed, true)
		// Comb line strength at idle.
		s := sweep(scene, 500e3, 524e3, 100, nil, cfg.Seed+311)
		_, line := peakNear(s, 512e3, 2e3)
		// FASE detections attributable to the refresh grid.
		runner := &core.Runner{Scene: scene}
		res := runner.Run(core.Campaign{
			F1: 0.45e6, F2: 1.1e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
			X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 312,
		})
		refreshDets := 0
		for _, d := range res.Detections {
			n := math.Round(d.Freq / 128e3)
			if n >= 1 && math.Abs(d.Freq-n*128e3) < 2e3 {
				refreshDets++
			}
		}
		// Attack through the (former) 512 kHz line.
		rx := &attack.Receiver{Carrier: 512e3, Bandwidth: 15e3}
		lk := attack.Quantify(rx, scene, bits, activity.LDM, activity.LDL1, 1e-3, cfg.Seed+313)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", dither*100),
			db1(line),
			fmt.Sprintf("%d", refreshDets),
			fmt.Sprintf("%.3f", lk.BER),
		})
		switch dither {
		case 0:
			lineBefore, detBefore = line, refreshDets
		case 0.5:
			lineAfter, detAfter = line, refreshDets
		}
	}
	return &report.Output{
		ID:     "mitigation-refresh",
		Title:  "§4.2/§6 mitigation: randomized refresh issue times",
		Tables: []report.Table{tbl},
		Notes: []string{
			fmt.Sprintf("512 kHz line: %.1f dBm → %.1f dBm with ±50%% dither (%.1f dB reduction)", lineBefore, lineAfter, lineBefore-lineAfter),
			fmt.Sprintf("FASE refresh-grid detections: %d → %d", detBefore, detAfter),
		},
		Claims: []report.Claim{{ID: "dither-removes-refresh",
			Text:  "FASE reports refresh-grid carriers without dither and none at ±50% tREFI dither (paper: randomization 'would greatly reduce the modulation of refresh activity')",
			Holds: detBefore > 0 && detAfter == 0}},
	}
}

// fmFase exercises the §4.4 future-work extension: a FASE-like detector
// for frequency-modulated carriers finds the AMD Turion's constant-on-
// time core regulator that AM-FASE correctly does not report.
func fmFase(cfg Config) *report.Output {
	sys := machine.AMDTurionX2Laptop2007()
	runner := &core.Runner{Scene: sys.Scene(cfg.Seed, false)}
	// AM-FASE over the regulator's band (correctly empty near 390 kHz).
	am := runner.Run(core.Campaign{
		F1: 0.3e6, F2: 0.5e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3,
		X: activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 320,
	})
	amNear := 0
	for _, d := range am.Detections {
		if math.Abs(d.Freq-sys.FMCoreRegulator.F0) < 60e3 {
			amNear++
		}
	}
	// FM-FASE over the same band.
	fm := runner.RunFM(core.FMCampaign{
		F1: 0.3e6, F2: 0.5e6, FAlt1: 400, FDelta: 60,
		X: activity.LDL2, Y: activity.LDL1, Seed: cfg.Seed + 321,
	})
	tbl := report.Table{
		Title:  "FM-FASE detections (Turion, LDL2/LDL1, 0.3–0.5 MHz)",
		Header: []string{"carrier kHz", "score", "deviation Hz"},
	}
	fmFound := false
	for _, d := range fm {
		tbl.Rows = append(tbl.Rows, []string{khz(d.Freq), sc1(d.Score), fmt.Sprintf("%.0f", d.DeviationHz)})
		if math.Abs(d.Freq-sys.FMCoreRegulator.F0) < 60e3 {
			fmFound = true
		}
	}
	// And FM-FASE on the i7's AM regulators: must stay silent.
	i7 := machine.IntelCoreI7Desktop()
	r2 := &core.Runner{Scene: i7.Scene(cfg.Seed, false)}
	fmI7 := r2.RunFM(core.FMCampaign{
		F1: 0.28e6, F2: 0.36e6, FAlt1: 400, FDelta: 60,
		X: activity.LDM, Y: activity.LDL1, Seed: cfg.Seed + 322,
	})
	amFalse := 0
	for _, d := range fmI7 {
		if math.Abs(d.Freq-i7.MemRegulator.FSw) < 10e3 {
			amFalse++
		}
	}
	return &report.Output{
		ID:     "fm-fase",
		Title:  "§4.4 extension: FASE-like detection of frequency-modulated carriers",
		Tables: []report.Table{tbl},
		Notes: []string{
			fmt.Sprintf("AM-FASE detections near the FM regulator: %d (want 0: it is not AM)", amNear),
			fmt.Sprintf("FM-FASE false reports on the i7's AM regulator: %d", amFalse),
		},
		Claims: []report.Claim{{ID: "finds-fm-regulator",
			Text:  "FM-FASE reports a carrier within 60 kHz of the constant-on-time regulator (390 kHz)",
			Holds: fmFound}},
	}
}

// Quickstart: run FASE against the simulated Intel Core i7 desktop and
// print every carrier that main-memory activity modulates.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fase"
)

func main() {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		log.Fatal(err)
	}
	// Scene = the machine's emitters + a metropolitan RF environment full
	// of AM stations FASE must reject.
	runner := fase.NewRunner(sys.Scene(1, true))

	// The paper's first campaign (Figure 10, row 1): 0.1–4 MHz at 50 Hz
	// resolution, five alternation frequencies starting at 43.3 kHz.
	res := runner.Run(fase.Campaign{
		F1: 100e3, F2: 4e6, Fres: 50,
		FAlt1: 43.3e3, FDelta: 500,
		X: fase.LDM, Y: fase.LDL1, // alternate LLC misses vs L1 hits
		Seed: 1,
	})

	fmt.Printf("%s, LDM/LDL1 — %d activity-modulated carriers:\n", sys.Name, len(res.Detections))
	for _, d := range res.Detections {
		fmt.Printf("  %8.1f kHz  score %8.1f  %6.1f dBm  modulation depth %5.1f dB\n",
			d.Freq/1e3, d.Score, d.MagnitudeDBm, d.DepthDB)
	}

	// Group into harmonic sets: each set is one physical source.
	fmt.Println("\nharmonic sets (one per physical source):")
	for _, set := range fase.GroupHarmonics(res.Detections) {
		fmt.Printf("  fundamental %8.1f kHz with %d harmonic(s)\n",
			set.Fundamental/1e3, len(set.Members))
	}
}

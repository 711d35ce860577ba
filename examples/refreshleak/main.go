// Refreshleak: the DRAM-refresh side channel of §4.2.
//
// Memory refresh emits a comb of harmonics whose periodicity is disrupted
// by memory traffic, so the comb *weakens* as memory activity rises — an
// at-a-distance readout of how busy memory is. This example reproduces
// the three observations the paper chains together:
//
//  1. FASE finds the refresh comb (512 kHz lines on the i7);
//
//  2. the line is strongest at idle and weakens monotonically with load;
//
//  3. a near-field probe reveals the underlying 128 kHz (tREFI) grid,
//     identifying memory refresh as the source.
//
//     go run ./examples/refreshleak
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
	scene := sys.Scene(1, true)

	// 1. FASE detection around the refresh comb.
	runner := fase.NewRunner(scene)
	res := runner.Run(fase.Campaign{
		F1: 450e3, F2: 1.1e6, Fres: 50,
		FAlt1: 43.3e3, FDelta: 500,
		X: fase.LDM, Y: fase.LDL1, Seed: 3,
	})
	fmt.Println("FASE detections, 450 kHz – 1.1 MHz (LDM/LDL1):")
	for _, d := range res.Detections {
		fmt.Printf("  %8.2f kHz  score %8.1f  %6.1f dBm\n", d.Freq/1e3, d.Score, d.MagnitudeDBm)
	}

	// 2. The inverse-activity signature: measure the 512 kHz line while
	// the machine runs increasing constant memory load.
	an := fase.NewAnalyzer(fase.AnalyzerConfig{Fres: 100})
	fmt.Println("\n512 kHz refresh line vs memory activity:")
	for _, duty := range []float64{0, 0.5, 1.0} {
		var act *fase.Trace
		switch duty {
		case 0:
			act = fase.ConstantActivity(fase.LDL1) // no memory traffic
		case 1:
			act = fase.ConstantActivity(fase.LDM) // continuous misses
		default:
			act = fase.Alternation(fase.LDM, fase.LDL1, 40e3, 1.0, 3)
		}
		s := an.Sweep(fase.SweepRequest{Scene: scene, F1: 500e3, F2: 524e3, Activity: act, Seed: 5})
		i := s.MaxIn(510e3, 514e3)
		fmt.Printf("  memory duty %3.0f%%: %6.1f dBm\n", duty*100, s.DBm(i))
	}

	// 3. Near-field localization: the probe reveals the full 128 kHz grid
	// (tREFI = 7.8125 µs), identifying refresh as the source.
	near := an.Sweep(fase.SweepRequest{
		Scene: scene, F1: 100e3, F2: 600e3, Seed: 6,
		NearField: true,
	})
	fmt.Println("\nnear-field probe at the DIMMs (128 kHz grid):")
	for _, f := range []float64{128e3, 256e3, 384e3, 512e3} {
		i := near.MaxIn(f-1e3, f+1e3)
		fmt.Printf("  %6.0f kHz: %6.1f dBm\n", f/1e3, near.DBm(i))
	}
	fmt.Println("\nmitigation (§4.2): randomizing refresh issue times spreads these lines without violating DRAM standards")
}

// Regulators: separate the voltage-regulator carriers of the i7 desktop
// by the system aspect that modulates them (§4.1).
//
// A switching regulator's duty cycle tracks the current its domain draws,
// so LDM/LDL1 alternation (memory vs L1) modulates the DIMM and memory
// interface regulators, while LDL2/LDL1 alternation (L2 vs L1) modulates
// only the core supply regulator. Cross-referencing both campaigns yields
// per-component power side channels — the paper's "component-by-component
// power consumption information" available at a distance.
//
//	go run ./examples/regulators
package main

import (
	"fmt"
	"log"
	"strings"

	"fase"
)

func main() {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		log.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(1, true))

	base := fase.Campaign{
		F1: 100e3, F2: 1.2e6, Fres: 50,
		FAlt1: 43.3e3, FDelta: 500,
		Seed: 7,
	}

	memory := base
	memory.X, memory.Y = fase.LDM, fase.LDL1
	fmt.Println("campaign 1: LDM/LDL1 (memory vs L1) ...")
	memRes := runner.Run(memory)

	onchip := base
	onchip.X, onchip.Y = fase.LDL2, fase.LDL1
	fmt.Println("campaign 2: LDL2/LDL1 (L2 vs L1) ...")
	chipRes := runner.Run(onchip)

	fmt.Println("\ncarrier classification (§2.2):")
	for _, cc := range fase.Classify(memRes, chipRes) {
		fmt.Printf("  %9.2f kHz  %-16s  %6.1f dBm  pairs: %s\n",
			cc.Freq/1e3, cc.Class, cc.MagnitudeDBm, strings.Join(cc.Pairs, ", "))
	}

	fmt.Println("\nwhat this means for an attacker:")
	fmt.Printf("  - memory-related carriers (%.0f kHz set) leak DRAM/memory-controller power\n", sys.MemRegulator.FSw/1e3)
	fmt.Printf("  - on-chip carriers (%.1f kHz set) leak core power: a remote per-domain power side channel\n", sys.CoreRegulator.FSw/1e3)
}

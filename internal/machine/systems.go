package machine

import (
	"fmt"
	"math/rand"
	"sort"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/sig"
)

// System is a complete modeled computer: its EM emitters plus handles to
// the components experiments reference by role.
type System struct {
	Name string
	// Emitters in rendering order.
	Emitters []emsim.Component

	// Role handles (may be nil when a system lacks the component).
	MemRegulator    *SwitchingRegulator
	MemCtlRegulator *SwitchingRegulator
	CoreRegulator   *SwitchingRegulator
	FMCoreRegulator *ConstantOnTimeRegulator
	Refresh         *RefreshEmitter
	DRAMClock       *SSCClock
	CPUClock        *SSCClock
}

// Scene assembles a measurement scene: the system's emitters plus,
// optionally, the standard metropolitan RF environment. envSeed controls
// the randomized environment parameters (station modulation depths).
// Without the environment the scene still carries the receive chain's
// thermal noise floor — a noiseless measurement does not exist.
func (s *System) Scene(envSeed int64, withEnvironment bool) *emsim.Scene {
	sc := &emsim.Scene{}
	sc.Add(s.Emitters...)
	if withEnvironment {
		sc.Add(emsim.StandardEnvironment(rand.New(rand.NewSource(envSeed)))...)
	} else {
		sc.Add(&emsim.Background{FloorDBmPerHz: -172})
	}
	return sc
}

// Registry lists the built-in systems by name.
func Registry() map[string]func() *System {
	return map[string]func() *System{
		"i7-desktop":    IntelCoreI7Desktop,
		"i3-laptop":     IntelCoreI3Laptop2010,
		"turion-laptop": AMDTurionX2Laptop2007,
		"p3m-laptop":    IntelPentium3M2002,
		"fivr-desktop":  IntelFIVRDesktop,
	}
}

// Names returns the registry's system names, sorted.
func Names() []string {
	var names []string
	for name := range Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named system or an error listing valid names.
func Lookup(name string) (*System, error) {
	mk, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown system %q (have %v)", name, Names())
	}
	return mk(), nil
}

// IntelCoreI7Desktop models the paper's primary test platform (§4,
// Figures 7–16): a recent desktop with separate switching regulators for
// the DRAM DIMMs (315 kHz), the on-chip memory interface (475 kHz), and
// the CPU cores (332.5 kHz); DDR3 refresh every 7.8125 µs across 4
// staggered ranks (far-field comb at 512 kHz); and a 333 MHz DDR3 clock
// with 1 MHz down-spread SSC.
func IntelCoreI7Desktop() *System {
	memReg := &SwitchingRegulator{
		Label:          "DIMM supply regulator (315 kHz)",
		FSw:            315e3,
		BaseDuty:       0.083, // 1 V from 12 V
		DutySwing:      0.035,
		FundamentalDBm: -104,
		MaxHarmonics:   12,
		WanderSigma:    350,
		WanderTau:      1.2e-3,
		LoopBw:         65e3,
		Dom:            activity.DomainDRAM,
	}
	memCtlReg := &SwitchingRegulator{
		Label:          "memory interface regulator (475 kHz)",
		FSw:            475e3,
		BaseDuty:       0.095,
		DutySwing:      0.030,
		FundamentalDBm: -111,
		MaxHarmonics:   8,
		WanderSigma:    450,
		WanderTau:      1.0e-3,
		LoopBw:         80e3,
		Dom:            activity.DomainMemCtl,
	}
	coreReg := &SwitchingRegulator{
		Label:          "core supply regulator (332.5 kHz)",
		FSw:            332.5e3,
		BaseDuty:       0.083,
		DutySwing:      0.090, // deep duty response: core current swings hardest
		FundamentalDBm: -105,
		MaxHarmonics:   10,
		WanderSigma:    300,
		WanderTau:      0.9e-3,
		LoopBw:         70e3,
		Dom:            activity.DomainCore,
	}
	refresh := &RefreshEmitter{
		Label:           "DDR3 memory refresh (tREFI 7.8125 µs)",
		TRefi:           7.8125e-6, // 128 kHz per rank
		PulseWidth:      200e-9,
		LineDBm:         -124,
		Ranks:           4, // far-field comb at 512 kHz
		NearRankWeights: []float64{1, 0.05, 0.05, 0.05},
		DisruptGain:     0.35,
		JitterIdle:      0.002,
		MaxHarmonics:    7,
		Dom:             activity.DomainDRAM,
	}
	dramClk := &SSCClock{
		Label:          "DDR3 clock (333 MHz, SSC)",
		F0:             333e6,
		SpreadHz:       1e6,
		RateHz:         10e3, // 100 µs sweep period (§4.3)
		Profile:        sig.SineSweep{},
		FundamentalDBm: -98, // strong before SSC spreads it over 1 MHz
		IdleFrac:       0.40,
		MaxHarmonics:   3,
		Dom:            activity.DomainDRAM,
	}
	cpuClk := &SSCClock{
		Label:          "CPU clock (3.4 GHz, SSC)",
		F0:             3.4e9,
		SpreadHz:       17e6,
		RateHz:         33e3,
		Profile:        sig.TriangleSweep{},
		FundamentalDBm: -138,
		IdleFrac:       1, // emissions do not respond to activity (§1)
		MaxHarmonics:   1,
		Dom:            activity.DomainNone,
	}
	sys := &System{
		Name:            "Intel Core i7 desktop",
		MemRegulator:    memReg,
		MemCtlRegulator: memCtlReg,
		CoreRegulator:   coreReg,
		Refresh:         refresh,
		DRAMClock:       dramClk,
		CPUClock:        cpuClk,
	}
	// The PCIe reference clock (campaign 2 territory, 4–120 MHz): spread-
	// spectrum for EMC but not modulated by program activity — FASE's
	// negative control in the VHF range.
	pcieClk := &SSCClock{
		Label:          "PCIe reference clock (100 MHz, SSC)",
		F0:             100e6,
		SpreadHz:       0.5e6,
		RateHz:         32e3,
		Profile:        sig.TriangleSweep{},
		FundamentalDBm: -112,
		IdleFrac:       1,
		MaxHarmonics:   1,
		Dom:            activity.DomainNone,
	}
	sys.Emitters = []emsim.Component{
		memReg, memCtlReg, coreReg, refresh, dramClk, cpuClk, pcieClk,
		// Unmodulated periodic system signals FASE must reject.
		&UnmodulatedClock{Label: "RTC crystal (32.768 kHz)", F0: 32.768e3, FundamentalDBm: -119, MaxHarmonics: 61},
		&UnmodulatedClock{Label: "super-I/O UART clock (1.8432 MHz)", F0: 1.8432e6, FundamentalDBm: -115, MaxHarmonics: 3, WanderSigma: 5, WanderTau: 1e-3},
		&UnmodulatedClock{Label: "neighbouring monitor SMPS (65 kHz)", F0: 65e3, FundamentalDBm: -112, MaxHarmonics: 31, WanderSigma: 120, WanderTau: 2e-3},
		&UnmodulatedClock{Label: "USB SOF keep-alive (12 kHz)", F0: 12e3, FundamentalDBm: -126, MaxHarmonics: 41},
		// Campaign-2 (4-120 MHz) clutter: fixed VHF clocks.
		&UnmodulatedClock{Label: "audio codec master clock (24.576 MHz)", F0: 24.576e6, FundamentalDBm: -116, MaxHarmonics: 5, WanderSigma: 20, WanderTau: 1e-3},
		&UnmodulatedClock{Label: "USB PHY clock (48 MHz)", F0: 48e6, FundamentalDBm: -118, MaxHarmonics: 3, WanderSigma: 50, WanderTau: 1e-3},
	}
	return sys
}

// IntelCoreI3Laptop2010 models the 2010 Intel Core i3 laptop (§4.4):
// the same signal classes at laptop power levels.
func IntelCoreI3Laptop2010() *System {
	memReg := &SwitchingRegulator{
		Label:          "memory regulator (300 kHz)",
		FSw:            300e3,
		BaseDuty:       0.079, // 1.5 V from 19 V
		DutySwing:      0.030,
		FundamentalDBm: -112,
		MaxHarmonics:   10,
		WanderSigma:    400,
		WanderTau:      1.1e-3,
		LoopBw:         60e3,
		Dom:            activity.DomainDRAM,
	}
	coreReg := &SwitchingRegulator{
		Label:          "core regulator (450 kHz)",
		FSw:            450e3,
		BaseDuty:       0.058,
		DutySwing:      0.060,
		FundamentalDBm: -110,
		MaxHarmonics:   8,
		WanderSigma:    500,
		WanderTau:      1.0e-3,
		LoopBw:         85e3,
		Dom:            activity.DomainCore,
	}
	refresh := &RefreshEmitter{
		Label:           "DDR3 memory refresh (tREFI 7.8125 µs)",
		TRefi:           7.8125e-6,
		PulseWidth:      200e-9,
		LineDBm:         -126,
		Ranks:           2,
		NearRankWeights: []float64{1, 0.05},
		DisruptGain:     0.35,
		JitterIdle:      0.002,
		MaxHarmonics:    9,
		Dom:             activity.DomainDRAM,
	}
	dramClk := &SSCClock{
		Label:          "DDR3 clock (533 MHz, SSC)",
		F0:             533e6,
		SpreadHz:       2.6e6,
		RateHz:         31e3,
		Profile:        sig.TriangleSweep{},
		FundamentalDBm: -107,
		IdleFrac:       0.45,
		MaxHarmonics:   1,
		Dom:            activity.DomainDRAM,
	}
	sys := &System{
		Name:          "Intel Core i3 laptop (2010)",
		MemRegulator:  memReg,
		CoreRegulator: coreReg,
		Refresh:       refresh,
		DRAMClock:     dramClk,
	}
	sys.Emitters = []emsim.Component{
		memReg, coreReg, refresh, dramClk,
		&UnmodulatedClock{Label: "RTC crystal (32.768 kHz)", F0: 32.768e3, FundamentalDBm: -124, MaxHarmonics: 41},
		&UnmodulatedClock{Label: "panel backlight PWM (43 kHz)", F0: 43e3, FundamentalDBm: -118, MaxHarmonics: 21, WanderSigma: 80, WanderTau: 2e-3},
	}
	return sys
}

// AMDTurionX2Laptop2007 models the 2007 AMD Turion X2 laptop (§4.4,
// Fig. 17). Distinctive features the paper reports: the memory refresh
// carrier sits at 132 kHz instead of 128 kHz, and the core regulator is a
// constant-on-time (frequency-modulated) design that FASE correctly does
// not report.
func AMDTurionX2Laptop2007() *System {
	memReg := &SwitchingRegulator{
		Label:          "memory regulator (250 kHz)",
		FSw:            250e3,
		BaseDuty:       0.095, // 1.8 V from 19 V
		DutySwing:      0.035,
		FundamentalDBm: -110,
		MaxHarmonics:   10,
		WanderSigma:    380,
		WanderTau:      1.3e-3,
		LoopBw:         55e3,
		Dom:            activity.DomainDRAM,
	}
	// Two more regulators whose loads track memory activity; the paper
	// could not localize them without damaging the compact laptop
	// ("unidentified carriers", Fig. 17).
	unident1 := &SwitchingRegulator{
		Label:          "unidentified regulator A (540 kHz)",
		FSw:            540e3,
		BaseDuty:       0.088,
		DutySwing:      0.035,
		FundamentalDBm: -111,
		MaxHarmonics:   4,
		WanderSigma:    420,
		WanderTau:      1.0e-3,
		LoopBw:         70e3,
		Dom:            activity.DomainMemCtl,
	}
	unident2 := &SwitchingRegulator{
		Label:          "unidentified regulator B (820 kHz)",
		FSw:            820e3,
		BaseDuty:       0.075,
		DutySwing:      0.040,
		FundamentalDBm: -110,
		MaxHarmonics:   2,
		WanderSigma:    350,
		WanderTau:      0.8e-3,
		LoopBw:         90e3,
		Dom:            activity.DomainDRAM,
	}
	fmCore := &ConstantOnTimeRegulator{
		Label:          "core regulator (constant on-time, FM)",
		F0:             390e3,
		FreqSwing:      0.14,
		TOn:            260e-9,
		FundamentalDBm: -109,
		WanderSigma:    35e3, // large wander smears the comb
		WanderTau:      60e-6,
		Dom:            activity.DomainCore,
	}
	refresh := &RefreshEmitter{
		Label:           "DDR2 memory refresh (tREFI 7.576 µs)",
		TRefi:           1 / 132e3, // 132 kHz (§4.4: "at 132 kHz instead of 128 kHz")
		PulseWidth:      200e-9,
		LineDBm:         -122,
		Ranks:           1, // single rank: the comb sits directly at 132 kHz
		NearRankWeights: []float64{1},
		DisruptGain:     0.35,
		JitterIdle:      0.002,
		MaxHarmonics:    8,
		Dom:             activity.DomainDRAM,
	}
	dramClk := &SSCClock{
		Label:          "DDR2 clock (333 MHz, SSC)",
		F0:             333e6,
		SpreadHz:       1.7e6,
		RateHz:         30e3,
		Profile:        sig.TriangleSweep{},
		FundamentalDBm: -106,
		IdleFrac:       0.45,
		MaxHarmonics:   1,
		Dom:            activity.DomainDRAM,
	}
	sys := &System{
		Name:            "AMD Turion X2 laptop (2007)",
		MemRegulator:    memReg,
		FMCoreRegulator: fmCore,
		Refresh:         refresh,
		DRAMClock:       dramClk,
	}
	sys.Emitters = []emsim.Component{
		memReg, unident1, unident2, fmCore, refresh, dramClk,
		&UnmodulatedClock{Label: "RTC crystal (32.768 kHz)", F0: 32.768e3, FundamentalDBm: -125, MaxHarmonics: 31},
		&UnmodulatedClock{Label: "LCD inverter (55 kHz)", F0: 55e3, FundamentalDBm: -116, MaxHarmonics: 19, WanderSigma: 150, WanderTau: 2e-3},
	}
	return sys
}

// IntelFIVRDesktop models the §4.1 forward-looking case the paper
// discusses: a 4th-generation Core with a fully integrated voltage
// regulator (FIVR, Burton et al. [10]) switching at 140 MHz. Integration
// shortens the switching current paths (weaker emanations per ampere),
// but the high switching frequency and fast control loop give attackers
// "a higher bandwidth readout of power consumption" — the core's
// activity can be demodulated at MHz rates instead of tens of kHz.
func IntelFIVRDesktop() *System {
	fivr := &SwitchingRegulator{
		Label:          "integrated core regulator (FIVR, 140 MHz)",
		FSw:            140e6,
		BaseDuty:       0.45, // 1.05 V from 1.8 V input rail
		DutySwing:      0.04, // flat d·sinc(d) region: duty AM is weak here
		AmpSwing:       0.50, // inductor current tracks load: the dominant AM
		FundamentalDBm: -90,  // 140 MHz: short loops but efficient radiators (§4.1: "stronger emanations")
		MaxHarmonics:   2,
		WanderSigma:    25e3, // fast RC oscillator, proportionally larger wander
		WanderTau:      50e-6,
		LoopBw:         3e6, // the high-bandwidth readout (§4.1)
		Dom:            activity.DomainCore,
	}
	memReg := &SwitchingRegulator{
		Label:          "DIMM supply regulator (315 kHz)",
		FSw:            315e3,
		BaseDuty:       0.083,
		DutySwing:      0.035,
		FundamentalDBm: -104,
		MaxHarmonics:   12,
		WanderSigma:    350,
		WanderTau:      1.2e-3,
		LoopBw:         65e3,
		Dom:            activity.DomainDRAM,
	}
	refresh := &RefreshEmitter{
		Label:           "DDR4 memory refresh (tREFI 7.8125 µs)",
		TRefi:           7.8125e-6,
		PulseWidth:      150e-9,
		LineDBm:         -124,
		Ranks:           4,
		NearRankWeights: []float64{1, 0.05, 0.05, 0.05},
		DisruptGain:     0.35,
		JitterIdle:      0.002,
		MaxHarmonics:    7,
		Dom:             activity.DomainDRAM,
	}
	dramClk := &SSCClock{
		Label:          "DDR4 clock (1066 MHz, SSC)",
		F0:             1066e6,
		SpreadHz:       5.3e6,
		RateHz:         31e3,
		Profile:        sig.TriangleSweep{},
		FundamentalDBm: -102,
		IdleFrac:       0.45,
		MaxHarmonics:   1,
		Dom:            activity.DomainDRAM,
	}
	sys := &System{
		Name:          "Intel Core desktop with FIVR (2014)",
		MemRegulator:  memReg,
		CoreRegulator: fivr,
		Refresh:       refresh,
		DRAMClock:     dramClk,
	}
	sys.Emitters = []emsim.Component{
		fivr, memReg, refresh, dramClk,
		&UnmodulatedClock{Label: "RTC crystal (32.768 kHz)", F0: 32.768e3, FundamentalDBm: -119, MaxHarmonics: 61},
		&UnmodulatedClock{Label: "Ethernet PHY clock (125 MHz)", F0: 125e6, FundamentalDBm: -118, MaxHarmonics: 1, WanderSigma: 40, WanderTau: 1e-3},
	}
	return sys
}

// IntelPentium3M2002 models the oldest test system (2002 Pentium 3M
// laptop): a single low-frequency regulator, SDRAM-era refresh, and a
// 133 MHz memory clock without spread-spectrum.
func IntelPentium3M2002() *System {
	memReg := &SwitchingRegulator{
		Label:          "system regulator (200 kHz)",
		FSw:            200e3,
		BaseDuty:       0.13, // 2.5 V from 19 V
		DutySwing:      0.040,
		FundamentalDBm: -108,
		MaxHarmonics:   14,
		WanderSigma:    300,
		WanderTau:      1.5e-3,
		LoopBw:         40e3,
		Dom:            activity.DomainDRAM,
	}
	coreReg := &SwitchingRegulator{
		Label:          "core regulator (280 kHz)",
		FSw:            280e3,
		BaseDuty:       0.10,
		DutySwing:      0.100,
		FundamentalDBm: -106,
		MaxHarmonics:   10,
		WanderSigma:    350,
		WanderTau:      1.2e-3,
		LoopBw:         45e3,
		Dom:            activity.DomainCore,
	}
	refresh := &RefreshEmitter{
		Label:           "SDRAM refresh (tREFI 7.8125 µs)",
		TRefi:           7.8125e-6,
		PulseWidth:      250e-9,
		LineDBm:         -125,
		Ranks:           1, // single rank: far-field comb directly at 128 kHz
		NearRankWeights: []float64{1},
		DisruptGain:     0.30,
		JitterIdle:      0.002,
		MaxHarmonics:    15,
		Dom:             activity.DomainDRAM,
	}
	dramClk := &SSCClock{
		Label:          "SDRAM clock (133 MHz, no SSC)",
		F0:             133e6,
		SpreadHz:       0,
		RateHz:         0,
		Profile:        nil,
		FundamentalDBm: -104,
		IdleFrac:       0.5,
		MaxHarmonics:   1,
		Dom:            activity.DomainDRAM,
	}
	sys := &System{
		Name:          "Intel Pentium 3M laptop (2002)",
		MemRegulator:  memReg,
		CoreRegulator: coreReg,
		Refresh:       refresh,
		DRAMClock:     dramClk,
	}
	sys.Emitters = []emsim.Component{
		memReg, coreReg, refresh, dramClk,
		&UnmodulatedClock{Label: "RTC crystal (32.768 kHz)", F0: 32.768e3, FundamentalDBm: -122, MaxHarmonics: 31},
	}
	return sys
}

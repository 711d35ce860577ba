// Kernel microbenchmarks: single-emitter render times for the three
// dynamic kernels the campaign spends its cycles in (switching regulator,
// memory refresh, spread-spectrum clock), each idle and under load. The
// regulator is timed at two shapes: the narrowband segment, where one of
// its lines is in band, and the campaign's wide segment, where four are.
//
// The idle case renders against the constant idle trace — one run for the
// segmented paths — while the loaded case renders against a generated
// alternation micro-benchmark trace, which forces the run-length
// machinery to walk thousands of load change-points.
package fase_test

import (
	"testing"

	"fase"
	"fase/internal/emsim"
	"fase/internal/microbench"
)

// kernelBenchN and kernelBenchFs are the campaign narrowband segment
// shape: 4096 samples at 409.6 kHz (100 Hz resolution), a 10 ms window.
const (
	kernelBenchN  = 4096
	kernelBenchFs = 409600.0
)

// kernelWideN and kernelWideFs are the campaign's 16384-sample segment
// shape: 1.6384 MHz (100 Hz resolution), also a 10 ms window.
const (
	kernelWideN  = 16384
	kernelWideFs = 1638400.0
)

// kernelBenchTrace generates the alternation load trace the loaded
// sub-benchmarks share — LDM/LDL1 at 43.3 kHz, the campaign's first
// alternation frequency, so a 10 ms window sees ~433 alternation periods.
func kernelBenchTrace(b *testing.B) *fase.Trace {
	b.Helper()
	return microbench.Generate(microbench.Config{
		X: fase.LDM, Y: fase.LDL1,
		FAlt:   43.3e3,
		Jitter: microbench.DefaultJitter(),
		Seed:   1,
	}, 0.1)
}

// benchRenderComponent times a single component's render of n samples
// at rate fs, idle and loaded.
func benchRenderComponent(b *testing.B, c emsim.Component, center float64, n int, fs float64) {
	scene := &emsim.Scene{}
	scene.Add(c)
	trace := kernelBenchTrace(b)
	for _, loaded := range []bool{false, true} {
		name, activity := "idle", (*fase.Trace)(nil)
		if loaded {
			name, activity = "loaded", trace
		}
		b.Run(name, func(b *testing.B) {
			dst := make([]complex128, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scene.RenderInto(dst, emsim.Capture{
					Band:     emsim.Band{Center: center, SampleRate: fs},
					N:        n,
					Seed:     int64(i),
					Activity: activity,
				})
			}
		})
	}
}

// BenchmarkRenderRegulator times the i7 core supply regulator (332.5 kHz,
// the campaign's strongest detection) over the regulator band.
func BenchmarkRenderRegulator(b *testing.B) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	benchRenderComponent(b, sys.CoreRegulator, 400e3, kernelBenchN, kernelBenchFs)
}

// BenchmarkRenderRegulatorWide times the i7 memory regulator (315 kHz,
// memory domain) at the campaign's wide shape centred at 550 kHz, where
// its lines 1–4 are in band. Under the alternation trace its duty moves
// on every sample.
func BenchmarkRenderRegulatorWide(b *testing.B) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	benchRenderComponent(b, sys.MemRegulator, 550e3, kernelWideN, kernelWideFs)
}

// BenchmarkRenderRefresh times the DDR3 refresh impulse train — ~5120
// pulses per 10 ms window across 4 ranks.
func BenchmarkRenderRefresh(b *testing.B) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	benchRenderComponent(b, sys.Refresh, 400e3, kernelBenchN, kernelBenchFs)
}

// BenchmarkRenderSSC times the spread-spectrum DDR3 clock in its own
// band (333 MHz, 1 MHz spread).
func BenchmarkRenderSSC(b *testing.B) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	benchRenderComponent(b, sys.DRAMClock, 333e6, kernelBenchN, kernelBenchFs)
}

// Benchmarks regenerating every figure and table of the paper, and the
// pipeline benchmarks.
//
// BenchmarkExperiments runs each experiment of internal/experiments as a
// sub-benchmark, BenchmarkExperiments/<id>, and prints its markdown record
// (first iteration only), so
//
//	go test -run xxx -bench=Experiments -benchmem
//
// both times the full reproduction and emits the paper-vs-measured data;
// it writes no files. EXPERIMENTS.md holds the record at seed 1. The
// pipeline benchmarks below are the rows of `make ab` (cmd/benchgate),
// which times them against a base revision on the same host.
package fase_test

import (
	"fmt"
	"testing"

	"fase"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/experiments"
	"fase/internal/report"
	"fase/internal/specan"
)

// BenchmarkExperiments times every registered experiment at seed 1, in
// paper order.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.IDs() {
		printed := false
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := experiments.Run(id, experiments.Config{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if !printed {
					fmt.Print(report.Markdown(out))
					printed = true
				}
			}
		})
	}
}

// benchScene builds the i7 desktop scene the pipeline benchmarks share.
func benchScene(b *testing.B) *emsim.Scene {
	b.Helper()
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	return sys.Scene(1, true)
}

// BenchmarkSceneRender times one capture render — the inner loop of every
// sweep (4096 samples, the narrowband campaign's segment size).
func BenchmarkSceneRender(b *testing.B) {
	scene := benchScene(b)
	const n = 4096
	dst := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene.RenderInto(dst, emsim.Capture{
			Band: emsim.Band{Center: 400e3, SampleRate: 409600},
			N:    n, Seed: int64(i),
		})
	}
}

// BenchmarkPeriodogram times the window+FFT+calibrate stage on one
// capture.
func BenchmarkPeriodogram(b *testing.B) {
	scene := benchScene(b)
	const n = 4096
	buf := make([]complex128, n)
	scene.RenderInto(buf, emsim.Capture{
		Band: emsim.Band{Center: 400e3, SampleRate: 409600}, N: n, Seed: 7,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spectral.Periodogram(buf, 409600, 400e3, window.BlackmanHarris)
	}
}

// BenchmarkSweep times one full analyzer sweep over the regulator band.
func BenchmarkSweep(b *testing.B) {
	scene := benchScene(b)
	an := specan.New(specan.Config{Fres: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := an.Sweep(specan.Request{Scene: scene, F1: 250e3, F2: 550e3, Seed: int64(i)})
		if sp.Bins() == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkWideSweep times the 0.1–4 MHz CLI scan (cmd/emspec defaults):
// one analyzer sweep at 50 Hz resolution over the full first-campaign
// band — the workload the render planner targets.
func BenchmarkWideSweep(b *testing.B) {
	scene := benchScene(b)
	an := specan.New(specan.Config{Fres: 50})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := an.Sweep(specan.Request{Scene: scene, F1: 100e3, F2: 4e6, Seed: int64(i)})
		if sp.Bins() == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkCampaignNarrowband times the core FASE pipeline (5 sweeps +
// scoring + detection) on a regulator-band campaign — the unit of work an
// operator iterates on.
func BenchmarkCampaignNarrowband(b *testing.B) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		b.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(1, true))
	campaign := fase.Campaign{
		F1: 250e3, F2: 550e3, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: fase.LDM, Y: fase.LDL1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := campaign
		c.Seed = int64(i)
		res := runner.Run(c)
		if len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}

// adaptiveCampaign is the budgeted coarse-to-fine campaign on the full
// regulator band (200–900 kHz, the accuracy corpus geometry), with the
// transform cap pinned (MaxFFT 2048 splits the band into five segments a
// window re-sweep can actually avoid) and the budget at 30% of the
// exhaustive capture cost, which it returns beside the runner.
func adaptiveCampaign(tb testing.TB) (*fase.Runner, fase.Campaign, int64) {
	tb.Helper()
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		tb.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(1, true))
	campaign := fase.Campaign{
		F1: 200e3, F2: 900e3, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: fase.LDM, Y: fase.LDL1,
		MaxFFT: 2048,
	}
	// Price the exhaustive campaign so the budget is a fraction of it,
	// not a magic number.
	exhaustive, err := runner.RunE(campaign)
	if err != nil {
		tb.Fatal(err)
	}
	campaign.Budget = int(exhaustive.Captures * 30 / 100)
	campaign.Adaptive = &fase.AdaptivePlan{}
	return runner, campaign, exhaustive.Captures
}

// BenchmarkCampaignAdaptive times the adaptive planner on adaptiveCampaign.
func BenchmarkCampaignAdaptive(b *testing.B) {
	runner, campaign, _ := adaptiveCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := campaign
		c.Seed = int64(i)
		res, err := runner.RunE(c)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Detections) == 0 {
			b.Fatal("no detections")
		}
	}
}

// TestCampaignAdaptiveCaptures pins the planner's deterministic spend on
// the campaign BenchmarkCampaignAdaptive times: a planner change that
// spends more (or less) of the budget fails here even if it runs fast.
func TestCampaignAdaptiveCaptures(t *testing.T) {
	runner, campaign, exhaustive := adaptiveCampaign(t)
	if exhaustive != 100 || campaign.Budget != 30 {
		t.Fatalf("exhaustive price %d captures, budget %d; want 100 and 30", exhaustive, campaign.Budget)
	}
	for seed := int64(0); seed < 5; seed++ {
		c := campaign
		c.Seed = seed
		res, err := runner.RunE(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Captures != 19 {
			t.Errorf("seed %d: adaptive campaign used %d captures, want 19", seed, res.Captures)
		}
	}
}

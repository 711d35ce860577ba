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
	"runtime"
	"sort"
	"testing"

	"fase"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/experiments"
	"fase/internal/obs"
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

// BenchmarkSceneRender times one capture render, the inner loop of every
// sweep, under a plan built once, as the analyzer keeps it. /4096 is the
// narrowband campaign's segment size. /256 is the capture of the
// service's small scan (256 samples at 128 kHz on 330 kHz): seeding the
// component streams is a large share of its cost.
func BenchmarkSceneRender(b *testing.B) {
	scene := benchScene(b)
	b.Run("256", func(b *testing.B) {
		band := emsim.Band{Center: 330e3, SampleRate: 128e3}
		const n = 256
		plan := scene.Plan(band, n)
		dst := make([]complex128, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scene.RenderInto(dst, emsim.Capture{Band: band, N: n, Seed: int64(i), Plan: plan})
		}
	})
	b.Run("4096", func(b *testing.B) {
		band := emsim.Band{Center: 400e3, SampleRate: 409600}
		const n = 4096
		plan := scene.Plan(band, n)
		dst := make([]complex128, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scene.RenderInto(dst, emsim.Capture{Band: band, N: n, Seed: int64(i), Plan: plan})
		}
	})
}

// BenchmarkPeriodogram times the window+FFT+calibrate stage on one
// capture of the i7 scene at 100 Hz bins, at the adaptive corpus's
// transform cap (2048) and the campaign's transform size (16384): the
// capture is copied into the work buffer, which PeriodogramInPlace
// consumes, as the analyzer does.
func BenchmarkPeriodogram(b *testing.B) {
	scene := benchScene(b)
	for _, n := range []int{2048, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			fs := 100 * float64(n)
			capture := make([]complex128, n)
			scene.RenderInto(capture, emsim.Capture{
				Band: emsim.Band{Center: 400e3, SampleRate: fs}, N: n, Seed: 7,
			})
			work := make([]complex128, n)
			out := &spectral.Spectrum{PmW: make([]float64, n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, capture)
				spectral.PeriodogramInPlace(out, work, fs, 400e3, window.BlackmanHarris)
			}
		})
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

// TestCampaignAdaptiveTraceGenerations pins the alternation traces an
// adaptive campaign generates, over the 20 campaigns of a 20-op
// BenchmarkCampaignAdaptive: at most one per ladder index plus one per
// recon index (whose recon-length trace may be outlasted once by the
// widest refinement window), 7 here. Traces sized before the windows
// were known regenerated for each wider window: these 20 campaigns then
// generated 143 traces, up to 10 in one campaign; sized to the widest
// window they generate 122.
func TestCampaignAdaptiveTraceGenerations(t *testing.T) {
	runner, campaign, _ := adaptiveCampaign(t)
	traces := obs.Default.Counter(obs.MetricTraces)
	var total int64
	for seed := int64(0); seed < 20; seed++ {
		c := campaign
		c.Seed = seed
		before := traces.Value()
		res, err := runner.RunE(c)
		if err != nil {
			t.Fatal(err)
		}
		n := traces.Value() - before
		total += n
		if limit := int64(res.Campaign.NumAlts + len(res.Measurements)); n > limit {
			t.Errorf("seed %d: %d trace generations, want <= %d (one per ladder index, one more per recon index)",
				seed, n, limit)
		}
	}
	t.Logf("%d trace generations over 20 campaigns", total)
}

// TestCampaignAdaptiveAllocBytes pins the bytes one adaptive campaign
// allocates, the campaign BenchmarkCampaignAdaptive times: the median over
// seeds 0 to 4 of one run each, at GOMAXPROCS 1 (sync.Pool keeps a slot
// per P, so buffers a warm-up left on another P would read as fresh
// allocation) after a warm-up run has filled the pools, FFT plans and
// window tables. A change that copies spectra, regenerates traces or
// stores scores per window again fails here even when it runs fast.
func TestCampaignAdaptiveAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled buffers; the pin only holds on plain builds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runner, campaign, _ := adaptiveCampaign(t)
	run := func(seed int64) {
		c := campaign
		c.Seed = seed
		if _, err := runner.RunE(c); err != nil {
			t.Fatal(err)
		}
	}
	run(100)
	mb := make([]float64, 5)
	for seed := range mb {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(int64(seed))
		runtime.ReadMemStats(&after)
		mb[seed] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	sort.Float64s(mb)
	t.Logf("allocated %.2f MB per campaign (median; seeds read %.2f to %.2f MB)", mb[2], mb[0], mb[4])
	// Measured 0.96 MB (seeds 0.76 to 1.11 MB) on a 2-vCPU x86-64 host with
	// Go 1.24; 1.49 MB before traces stored 8-byte switch times, captures
	// kept only their bins, the recon and refine analyzers shared one
	// render cache and traces were sized from the windows; 2.91 MB before
	// sweeps reduced in place, the planner kept one trace per ladder index
	// and windows scored from one sub-score table.
	const maxMB = 1.25 * 0.96
	if mb[2] > maxMB {
		t.Errorf("adaptive campaign allocated %.2f MB, want <= %.2f MB", mb[2], maxMB)
	}
}

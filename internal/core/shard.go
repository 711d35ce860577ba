package core

import (
	"context"
	"fmt"

	"fase/internal/dsp/spectral"
	"fase/internal/microbench"
	"fase/internal/obs"
	"fase/internal/specan"
)

// ShardPlan is an exhaustive campaign decomposed into its natural unit of
// distribution: one shard per ladder sweep. FASE's bit-identical
// seeded-capture design means every shard derives its child seed from the
// campaign seed and its ladder index alone, so shards can render on any
// worker — in any interleaving, on any analyzer — and reducing them in
// fixed ladder order reproduces the single-process result byte for byte.
// Runner.RunE and the campaign service (internal/service) both execute
// through this API, which is what makes the service's sharded path
// bit-identical to the serial one by construction rather than by test.
type ShardPlan struct {
	// Campaign is the defaults-resolved configuration (withDefaults
	// applied); manifestConfig over it matches what RunE would record.
	Campaign Campaign
	// FAlts is the alternation-frequency ladder; shard i renders FAlts[i].
	FAlts []float64
	// Captures and SimulatedSeconds are the campaign totals, filled in by
	// Begin once an analyzer exists to price the sweeps.
	Captures         int64
	SimulatedSeconds float64
}

// PlanShards validates the campaign and decomposes it into ladder-sweep
// shards. Adaptive campaigns are rejected: their capture schedule is
// decided at run time by the budget planner, so they have no static shard
// decomposition (the service runs them as a single unsharded task).
func PlanShards(c Campaign) (*ShardPlan, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Adaptive != nil {
		return nil, fmt.Errorf("core: adaptive campaigns cannot be sharded (capture schedule is decided at run time)")
	}
	c = c.withDefaults()
	return &ShardPlan{Campaign: c, FAlts: c.FAlts()}, nil
}

// AnalyzerConfig is the specan configuration RunE would build for this
// campaign, including a fresh static render cache that every analyzer
// built from the returned config shares: the campaign's sweeps all use the
// campaign seed, so each capture's static layer is built once and replayed
// by the other NumAlts-1 sweeps. Callers running shards on separate
// analyzers (one per worker) should override Parallelism to 1 so the
// fleet, not each analyzer, bounds concurrency.
func (p *ShardPlan) AnalyzerConfig(run *obs.Run) specan.Config {
	c := p.Campaign
	return specan.Config{Fres: c.Fres, Averages: c.Averages, Parallelism: c.Parallelism,
		MaxFFT: c.MaxFFT, Faults: c.Faults,
		Statics: specan.NewStaticCache(), Obs: run}
}

// Begin prices the campaign against an analyzer (any analyzer built from
// AnalyzerConfig — capture counts depend only on the configuration),
// records the totals on the run, and emits the campaign_start event.
// It also counts the campaign: Begin is called exactly once per
// exhaustive campaign, whichever path executes it.
func (p *ShardPlan) Begin(an *specan.Analyzer, run *obs.Run) {
	c := p.Campaign
	p.Captures = int64(len(p.FAlts)) * an.SweepCaptures(c.F1, c.F2)
	p.SimulatedSeconds = float64(len(p.FAlts)) * an.TotalDuration(c.F1, c.F2)
	campaignsTotal.Inc()
	run.SetTotals(p.Captures, int64(len(p.FAlts)), p.SimulatedSeconds)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignStart, Name: "exhaustive",
		F1Hz: c.F1, F2Hz: c.F2, Total: p.Captures})
}

// RenderShard renders ladder sweep i on the given analyzer and returns
// its measurement (see sweepLadder for the seed and journal track it
// uses, which make the canonical journal identical however shards are
// scheduled). ctx, when non-nil, cooperatively cancels the shard
// mid-render (see specan.Request.Ctx); a cancelled shard's measurement is
// partial garbage and must be discarded, never reduced. The run's trace
// is laid out from its journal; the obs.Span parameter is unused, and
// stays only because the benchmark (fasebench) calls RenderShard with
// obs.Span{}.
func (r *Runner) RenderShard(ctx context.Context, an *specan.Analyzer, p *ShardPlan, i int, run *obs.Run, _ obs.Span) Measurement {
	c := p.Campaign
	fa := p.FAlts[i]
	return Measurement{FAlt: fa, Spectrum: r.sweepLadder(ctx, an, c, c.F1, c.F2, fa, i, run)}
}

// sweepLadder sweeps [f1, f2] while the micro-benchmark alternates at fa,
// the frequency of ladder index i. The alternation trace and its fault
// drift derive from c.Seed + i·104729, so a refinement sweep over part of
// the band sees the same realization the exhaustive sweep i would, and
// the sweep's journal events land on track 1+i.
func (r *Runner) sweepLadder(ctx context.Context, an *specan.Analyzer, c Campaign, f1, f2, fa float64, i int, run *obs.Run) *spectral.Spectrum {
	seed := c.Seed + int64(i)*104729
	// Under fault injection the micro-benchmark's clock may drift: the
	// generated alternation runs at fa·(1+ε) while scoring still probes
	// the nominal ladder.
	tr := microbench.Generate(microbench.Config{
		X: c.X, Y: c.Y, FAlt: fa * (1 + c.Faults.DriftFor(seed)),
		Jitter: microbench.DefaultJitter(), Seed: seed,
	}, traceSeconds(an, f1, f2))
	// Journal track 1+i belongs to this ladder index: events within it
	// are sequential, so the canonical journal is identical at any
	// parallelism and any shard placement.
	jt := run.Track(1 + int64(i))
	jt.Emit(obs.Event{Kind: obs.EventSweepPlan, FAltHz: fa, F1Hz: f1, F2Hz: f2})
	return an.Sweep(specan.Request{
		Scene: r.Scene, F1: f1, F2: f2, Activity: tr,
		Seed:   c.Seed,
		Events: jt,
		Ctx:    ctx,
	})
}

// traceSeconds is the length of the alternation trace a sweep of
// [f1, f2] on an generates: the analyzer's sweep time plus 50 ms of
// slack.
func traceSeconds(an *specan.Analyzer, f1, f2 float64) float64 {
	return an.TotalDuration(f1, f2) + 0.05
}

// TraceSegments bounds the activity segments in the campaign's longest
// alternation trace: two per period of the ladder's top f_alt, over the
// trace of a full-band sweep at the campaign's resolution (traceSeconds).
// Sweep time only falls with a coarser resolution, a narrower window or
// fewer averages, so that sweep, priced with the recon pass's averages
// when they are more, outlasts every adaptive recon and refinement sweep.
// The campaign must be valid.
func (c Campaign) TraceSegments() float64 {
	c = c.withDefaults()
	avg := c.Averages
	if c.Adaptive != nil {
		avg = max(avg, reconAverages)
	}
	an := specan.New(specan.Config{Fres: c.Fres, Averages: avg, MaxFFT: c.MaxFFT})
	falts := c.FAlts()
	return 2 * falts[len(falts)-1] * traceSeconds(an, c.F1, c.F2)
}

// ReduceShards merges the campaign's shard measurements — which must be
// ordered by ladder index, ms[i] from RenderShard(i) — through the
// smooth/score/detect stages and finalizes the run manifest. The reduce
// is pure fixed-order computation over the spectra, so where the shards
// rendered is invisible to it. The stages are the run's own (Run.Begin);
// the obs.Span parameter is unused, and stays only because the benchmark
// (fasebench) calls ReduceShards with obs.Span{}.
func (r *Runner) ReduceShards(p *ShardPlan, ms []Measurement, run *obs.Run, _ obs.Span) (*Result, error) {
	c := p.Campaign
	if len(ms) != len(p.FAlts) {
		return nil, fmt.Errorf("core: ReduceShards got %d measurements for %d shards", len(ms), len(p.FAlts))
	}
	res := &Result{Campaign: c, Measurements: ms,
		SimulatedSeconds: p.SimulatedSeconds, Captures: p.Captures}
	falts := p.FAlts
	smooth := run.Begin("smooth")
	spectra := make([]*spectral.Spectrum, len(res.Measurements))
	for i, m := range res.Measurements {
		spectra[i] = m.Spectrum
	}
	// Smoothed spectra are scoring scratch, released after detection.
	smoothed := smoothPooled(spectra, c.SmoothBins)
	smooth.End()
	score := run.Begin("score")
	scoreHarmonics(res, smoothed, falts)
	score.End()
	detectStage := run.Begin("detect")
	res.Detections = detect(res, spectra, smoothed, falts)
	detectStage.End()
	releaseSmoothed(smoothed)
	detectionsTotal.Add(int64(len(res.Detections)))
	emitDetections(run, res, c)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignEnd,
		Captures: res.Captures, Detections: len(res.Detections)})
	if run != nil {
		run.Finish(manifestConfig(c), res.SimulatedSeconds, provenance(res, c))
	}
	return res, nil
}

// ResolvedConfig validates the campaign and returns its defaults-resolved
// manifest configuration — the same record RunE stores in the run
// manifest and runstore hashes for content addressing. Services use it to
// compute a submission's identity before (and independent of) running it.
func (c Campaign) ResolvedConfig() (any, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return manifestConfig(c.withDefaults()), nil
}

// Package specan models the measurement instrument of the paper's setup —
// the Agilent MXA spectrum analyzer behind the loop antenna.
//
// A sweep over [f1, f2] is performed in band segments: each segment is a
// complex-baseband capture rendered by the scene, windowed, transformed,
// amplitude-calibrated (see package spectral) and trace-averaged; segments
// are stitched into one spectrum whose bins land exactly on the global
// f1 + k·fres grid.
package specan

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"fase/internal/activity"
	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/fft"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/obs"
	"fase/internal/par"
)

// sweepsTotal is the process-wide sweep counter. Captures and cache
// lookups are counted through Config.Obs (obs.Run.Count), which moves the
// process-wide counters even when no run is attached.
var sweepsTotal = obs.Default.Counter(obs.MetricSweeps)

// Config tunes the analyzer.
type Config struct {
	// Fres is the resolution bandwidth (bin spacing), Hz.
	Fres float64
	// Averages is the number of traces averaged per segment (the paper
	// averages 4 captures, §3). Zero means 4.
	Averages int
	// MaxFFT caps the per-segment transform size (power of two). Zero
	// means 1<<17.
	MaxFFT int
	// Parallelism bounds how many captures the analyzer renders and
	// transforms concurrently, across all Sweep calls sharing this
	// analyzer. Zero (or negative) means runtime.GOMAXPROCS(0). The
	// result is bit-identical for every setting: captures are seeded by
	// their sweep position and reduced in a fixed order, so parallelism
	// changes only wall-clock time, never output.
	Parallelism int
	// Faults, when non-nil, deterministically degrades every rendered
	// capture before its FFT (see emsim.FaultPlan): dropped/truncated
	// traces, ADC clipping, burst interferers, added noise. Nil — the
	// default — leaves the capture path untouched and allocation-free; the
	// accuracy harness (internal/verify) uses this to stress the unchanged
	// FASE algorithm.
	Faults *emsim.FaultPlan
	// Meter, when non-nil, charges every rendered capture against a hard
	// measurement budget (see Meter). The analyzer only accounts — it
	// never refuses a sweep; admission control is the planner's job via
	// Meter.Reserve before each Sweep call. Nil (the default) keeps the
	// capture path meter-free.
	Meter *Meter
	// Statics, when non-nil, is the static render cache: the
	// activity-independent layer of each capture identity (segment band,
	// length, seed, start time, probe placement — see emsim.StaticSet) is
	// built once and replayed by every sweep that renders the same
	// identity. Profitable exactly when sweeps share Seed and differ only
	// in activity, as a campaign's alternation sweeps do — which is why
	// every campaign analyzer gets one (core.ShardPlan.AnalyzerConfig). One
	// cache may serve several analyzers: the campaign service renders a
	// campaign's ladder sweeps on separate single-threaded analyzers, one
	// per shard, all sharing the campaign's cache. Sharing is only
	// meaningful between analyzers with identical geometry configuration
	// (Fres, Averages, MaxFFT); cache keys carry the
	// full capture identity, so mismatched sharing is wasteful, never
	// incorrect. Replay is bit-identical to live rendering at any
	// Parallelism. Nil — the default, kept by one-off analyzers — renders
	// every capture live.
	Statics *StaticCache
	// Obs, when non-nil, attaches run-level observability: per-capture
	// render/FFT timing, plan-cache statistics, and — when Obs.Tracer is
	// set — sweep/capture spans. A nil Obs (the default) keeps the hot
	// path allocation-free, and instrumentation never changes rendered
	// output (enforced by the equivalence tests).
	Obs *obs.Run
}

func (c Config) withDefaults() Config {
	if c.Averages == 0 {
		c.Averages = 4
	}
	if c.MaxFFT == 0 {
		c.MaxFFT = 1 << 17
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Fres <= 0 {
		panic(fmt.Sprintf("specan: resolution bandwidth must be positive, got %g", c.Fres))
	}
	return c
}

// analyzerWindow is the FFT window of every capture: Blackman-Harris,
// whose -92 dB side lobes keep strong AM stations from burying the
// µW-level system signals.
const analyzerWindow = window.BlackmanHarris

// usableFrac is the fraction of each segment's bandwidth kept after
// discarding the band edges.
const usableFrac = 0.75

// Analyzer performs swept spectrum measurements of a scene. One analyzer
// may serve concurrent Sweep calls; its Parallelism budget is shared
// between them, so e.g. the five f_alt sweeps of a FASE measurement never
// oversubscribe the machine.
type Analyzer struct {
	cfg Config
	// sem is the capture-level concurrency budget shared by all sweeps on
	// this analyzer.
	sem chan struct{}
	// plans caches render plans per segment geometry (planKey). Segment
	// geometry is identical across a sweep's averages and across the
	// NumAlts sweeps of a campaign sharing this analyzer, so each segment's
	// component culling and per-component preparation happens once, not
	// once per capture.
	plans sync.Map
	// arena retains capture and bin buffers for the analyzer's lifetime:
	// the process-wide bufpool can lose its contents to a garbage
	// collection between sweeps, but a campaign's analyzer re-renders the
	// same geometry for every alternation sweep, so pinning the buffers
	// here keeps repeated sweeps allocation-free end to end.
	arena bufpool.Arena
}

// staticKey is the full capture identity a cached static layer is valid
// for — unlike planKey it includes seed, start time, and probe placement,
// because the static layer bakes in the components' PRNG streams.
type staticKey struct {
	scene      *emsim.Scene
	center, fs float64
	n          int
	seed       int64
	start      float64
	nearField  bool
	nearGainDB float64
}

// StaticCache is a static-layer render cache (see Config.Statics),
// shareable between analyzers. A plain struct-keyed map behind an RWMutex
// rather than a sync.Map: warm lookups then neither box the key nor
// allocate, keeping the steady-state sweep allocation-free. Each identity
// holds a bucket keyed by the capture's conditional-static key (empty for
// sets with no conditional layer), so sweeps under different
// window-constant loads cache distinct sets side by side.
type StaticCache struct {
	mu sync.RWMutex
	m  map[staticKey]*staticBucket
}

// NewStaticCache returns an empty cache for Config.Statics.
func NewStaticCache() *StaticCache {
	return &StaticCache{m: make(map[staticKey]*staticBucket)}
}

// staticEntry is one cache slot. The sync.Once serializes the build so
// concurrent first renders of an identity (Parallelism > 1, or sibling
// shard analyzers sharing the cache) share one BuildStaticSet instead of
// racing duplicate work.
type staticEntry struct {
	once sync.Once
	set  *emsim.StaticSet
}

// staticBucket holds one capture identity's cached sets, keyed by
// conditional-static key. Lookups index the map with string(b) on a
// pooled byte slice, which Go compiles without materializing a string, so
// warm hits stay allocation-free.
type staticBucket struct {
	mu     sync.RWMutex
	byCond map[string]*staticEntry
}

// condKeyBuf is the pooled scratch for computing a capture's
// conditional-static key (see emsim.Scene.AppendCondStaticKey).
type condKeyBuf struct{ b []byte }

var condKeyPool = sync.Pool{New: func() any { return &condKeyBuf{b: make([]byte, 0, 64)} }}

// planKey identifies a segment's render geometry. Near-field settings are
// deliberately absent: plans hold only geometry (active subsets, harmonic
// lists, rotation phasors, noise densities), none of which depends on the
// probe model.
type planKey struct {
	scene      *emsim.Scene
	center, fs float64
	n          int
}

// planEntry is one plan-cache slot. Like staticEntry, the sync.Once
// builds the plan once however many captures of the segment start
// concurrently, so the plans built and the hit/miss split are the same
// at any Parallelism.
type planEntry struct {
	once sync.Once
	plan *emsim.RenderPlan
}

// planFor returns the cached render plan for a segment, building it on
// first use.
func (a *Analyzer) planFor(scene *emsim.Scene, band emsim.Band, n int) *emsim.RenderPlan {
	key := planKey{scene: scene, center: band.Center, fs: band.SampleRate, n: n}
	v, ok := a.plans.Load(key)
	if !ok {
		v, _ = a.plans.LoadOrStore(key, &planEntry{})
	}
	e := v.(*planEntry)
	stat := obs.StatPlanHits
	e.once.Do(func() {
		stat = obs.StatPlanMisses
		e.plan = scene.Plan(band, n)
		a.cfg.Obs.RecordPlan(band.Center, band.SampleRate, n,
			e.plan.ActiveCount(), len(scene.Components)-e.plan.ActiveCount())
	})
	a.cfg.Obs.Count(stat, 1)
	return e.plan
}

// staticFor returns the cached static layer for a capture identity,
// building it on first use. It returns nil without touching the cache
// when the plan classified nothing cacheable for the geometry.
func (a *Analyzer) staticFor(req Request, band emsim.Band, n int, seed int64, start float64, plan *emsim.RenderPlan) *emsim.StaticSet {
	if plan.StaticCount() == 0 && plan.CondStaticCount() == 0 {
		return nil
	}
	key := staticKey{
		scene: req.Scene, center: band.Center, fs: band.SampleRate, n: n,
		seed: seed, start: start,
		nearField: req.NearField, nearGainDB: req.NearFieldGainDB,
	}
	// The conditional-static key distinguishes sets within one identity:
	// the same (band, seed, start) capture under different window-constant
	// loads caches different regulator layers. Skipped when the plan rules
	// out conditional components for this geometry.
	var kb *condKeyBuf
	cond := []byte(nil)
	if plan.CondStaticCount() > 0 {
		kb = condKeyPool.Get().(*condKeyBuf)
		kb.b = req.Scene.AppendCondStaticKey(kb.b[:0], emsim.Capture{
			Band: band, Start: start, N: n, Activity: req.Activity, Plan: plan,
		})
		cond = kb.b
	}
	sc := a.cfg.Statics
	sc.mu.RLock()
	bk := sc.m[key]
	sc.mu.RUnlock()
	if bk == nil {
		sc.mu.Lock()
		if bk = sc.m[key]; bk == nil {
			bk = &staticBucket{byCond: make(map[string]*staticEntry)}
			sc.m[key] = bk
		}
		sc.mu.Unlock()
	}
	bk.mu.RLock()
	e := bk.byCond[string(cond)]
	bk.mu.RUnlock()
	if e == nil {
		bk.mu.Lock()
		if e = bk.byCond[string(cond)]; e == nil {
			e = &staticEntry{}
			bk.byCond[string(cond)] = e
		}
		bk.mu.Unlock()
	}
	stat := obs.StatStaticHits
	e.once.Do(func() {
		stat = obs.StatStaticMisses
		e.set = req.Scene.BuildStaticSet(emsim.Capture{
			Band: band, Start: start, N: n, Seed: seed,
			Activity:  req.Activity,
			NearField: req.NearField, NearFieldGainDB: req.NearFieldGainDB,
			Plan: plan,
		})
		if e.set != nil {
			a.cfg.Obs.Count(obs.StatStaticComponents, int64(e.set.Components()))
		}
	})
	if kb != nil {
		condKeyPool.Put(kb)
	}
	a.cfg.Obs.Count(stat, 1)
	return e.set
}

// New creates an analyzer. See Config for defaults.
func New(cfg Config) *Analyzer {
	cfg = cfg.withDefaults()
	return &Analyzer{cfg: cfg, sem: make(chan struct{}, cfg.Parallelism)}
}

// Fres returns the configured resolution bandwidth.
func (a *Analyzer) Fres() float64 { return a.cfg.Fres }

// plan describes the segmentation of a sweep.
type plan struct {
	nfft     int
	fs       float64
	needBins int
	perSeg   int
	segs     int
}

func (a *Analyzer) planSweep(f1, f2 float64) plan {
	if f2 <= f1 {
		panic(fmt.Sprintf("specan: empty sweep [%g, %g]", f1, f2))
	}
	needBins := int(math.Round((f2 - f1) / a.cfg.Fres))
	if needBins < 1 {
		needBins = 1
	}
	nfft := fft.NextPow2(int(math.Ceil(float64(needBins) / usableFrac)))
	if nfft > a.cfg.MaxFFT {
		nfft = a.cfg.MaxFFT
	}
	if nfft < 64 {
		nfft = 64
	}
	perSeg := int(float64(nfft) * usableFrac)
	segs := (needBins + perSeg - 1) / perSeg
	return plan{nfft: nfft, fs: float64(nfft) * a.cfg.Fres, needBins: needBins, perSeg: perSeg, segs: segs}
}

// CaptureDuration returns the observation time of a single trace of a
// sweep over [f1, f2] (1/fres).
func (a *Analyzer) CaptureDuration() float64 { return 1 / a.cfg.Fres }

// TotalDuration returns how much activity-trace time a sweep consumes:
// segments × averages × capture duration.
func (a *Analyzer) TotalDuration(f1, f2 float64) float64 {
	p := a.planSweep(f1, f2)
	return float64(p.segs*a.cfg.Averages) * a.CaptureDuration()
}

// Request is one sweep specification.
type Request struct {
	Scene  *emsim.Scene
	F1, F2 float64
	// Ctx, when non-nil, lets a caller abandon the sweep mid-flight: once
	// the context is cancelled, remaining captures are skipped (not
	// rendered, not charged to any Meter, not counted) and the sweep
	// returns promptly. The returned spectrum is then partial garbage and
	// MUST be discarded — cancellation is for callers (a campaign service
	// killing a job) that throw the whole result away. A nil or
	// never-cancelled context leaves the sweep byte-identical to one
	// without a context.
	Ctx context.Context
	// Span, when active, is the trace span the sweep nests under (e.g.
	// a campaign stage). The zero value is fine: with Config.Obs tracing
	// enabled the sweep then opens a root span of its own.
	Span obs.Span
	// Activity is the program-activity envelope during the sweep (nil =
	// idle machine).
	Activity *activity.Trace
	// Seed controls the measurement noise; sweeps with different seeds
	// are independent observations.
	Seed int64
	// NearField enables the localization probe model.
	NearField bool
	// NearFieldGainDB is the probe gain (e.g. 30 dB); only meaningful
	// with NearField.
	NearFieldGainDB float64
	// Events, when non-nil, receives the sweep's journal events
	// (sweep_start, strided sweep_progress, sweep_end) on the caller's
	// track. They are emitted from the sweep's coordinating goroutine —
	// progress follows the deterministic reduce order, not render
	// completion — so per-track event order is reproducible at any
	// Parallelism. Nil (the default) keeps the sweep journal-free.
	Events *obs.JournalTrack
}

// segGeom returns the bin range and center frequency of segment s.
func (a *Analyzer) segGeom(p plan, f1 float64, s int) (fStart, center float64, bins int) {
	binStart := s * p.perSeg
	bins = p.perSeg
	if binStart+bins > p.needBins {
		bins = p.needBins - binStart
	}
	fStart = f1 + float64(binStart)*a.cfg.Fres
	center = fStart + float64(bins)/2*a.cfg.Fres
	return fStart, center, bins
}

// renderCapture renders capture capIdx of the sweep and writes its
// periodogram into out (whose PmW the caller supplies). All scratch comes
// from pools, so steady state allocates nothing. With Config.Obs attached
// the two halves — scene render and window+FFT+calibrate — are timed
// separately (and traced under parent when a tracer is set); timing never
// touches the sample math, so output is identical either way.
func (a *Analyzer) renderCapture(req Request, p plan, capIdx int, out *spectral.Spectrum, parent obs.Span) {
	// Cancelled sweeps stop paying for captures immediately: the spectrum
	// slot stays zeroed, nothing is charged to the meter or the capture
	// counters, and the (garbage) sweep result is discarded by the caller.
	if req.Ctx != nil && req.Ctx.Err() != nil {
		// Keep the slot's geometry valid so the discarded sweep can still
		// reduce without tripping the Averager; the power stays zero.
		_, center, _ := a.segGeom(p, req.F1, capIdx/a.cfg.Averages)
		fres := p.fs / float64(p.nfft)
		out.F0 = center - fres*float64(p.nfft/2)
		out.Fres = fres
		return
	}
	run := a.cfg.Obs
	_, center, _ := a.segGeom(p, req.F1, capIdx/a.cfg.Averages)
	band := emsim.Band{Center: center, SampleRate: p.fs}
	buf := a.arena.Complex(p.nfft)
	var t0, t1 time.Time
	var cs obs.Span
	if run != nil {
		if parent.Active() {
			cs = parent.Fork("capture")
		}
		t0 = time.Now()
	}
	capSeed := req.Seed + int64(capIdx)*7919
	start := float64(capIdx) * a.CaptureDuration()
	rp := a.planFor(req.Scene, band, p.nfft)
	var static *emsim.StaticSet
	if a.cfg.Statics != nil {
		static = a.staticFor(req, band, p.nfft, capSeed, start, rp)
	}
	req.Scene.RenderInto(buf, emsim.Capture{
		Band:            band,
		Start:           start,
		N:               p.nfft,
		Activity:        req.Activity,
		Seed:            capSeed,
		NearField:       req.NearField,
		NearFieldGainDB: req.NearFieldGainDB,
		Plan:            rp,
		Static:          static,
		Obs:             run,
	})
	if run != nil {
		t1 = time.Now()
	}
	if fp := a.cfg.Faults; fp != nil {
		// Fault seed = capture seed: the degradation is pinned to the
		// capture's position in the sweep, so results are independent of
		// parallelism exactly like the render itself.
		fp.Apply(buf, band, capSeed)
	}
	spectral.PeriodogramInPlace(out, buf, p.fs, center, analyzerWindow)
	a.arena.PutComplex(buf)
	a.cfg.Meter.record()
	run.Capture(cs, t0, t1, a.CaptureDuration())
}

// capture renders one capture inside the analyzer's concurrency budget.
// The slot is released even if the render panics, so a panicking capture
// cannot wedge the other sweeps sharing this analyzer.
func (a *Analyzer) capture(req Request, p plan, capIdx int, out *spectral.Spectrum, sw obs.Span) {
	a.sem <- struct{}{}
	defer func() { <-a.sem }()
	a.renderCapture(req, p, capIdx, out, sw)
}

// Sweep measures the spectrum of the scene over [F1, F2].
//
// The segs × averages captures are independent — each is seeded by its
// position in the sweep — so they render concurrently on up to
// Config.Parallelism goroutines. The periodograms are then reduced into
// per-segment trace averages in the same (segment, trace) order the serial
// loop used, keeping the result bit-identical to Parallelism: 1. A capture
// that panics does so on the caller's goroutine at any Parallelism
// (wrapped in a *par.Panic when it rendered on a worker goroutine).
func (a *Analyzer) Sweep(req Request) *spectral.Spectrum {
	if req.Scene == nil {
		panic("specan: sweep without a scene")
	}
	sweepsTotal.Inc()
	// The span setup stays out of sweep so that, uninstrumented, req and
	// the zero Span are captured by the worker closures by value: a defer
	// or reassignment in the closure-owning frame would force both to the
	// heap and cost two allocations per sweep even with tracing off.
	if run := a.cfg.Obs; run != nil {
		var sw obs.Span
		if req.Span.Active() {
			sw = req.Span.Fork("sweep")
		} else {
			sw = run.Tracer.Begin("sweep")
		}
		sp := a.sweep(req, sw)
		sw.End()
		return sp
	}
	return a.sweep(req, obs.Span{})
}

// sweep is the body of Sweep; sw is the already-open sweep span (zero
// when tracing is off) and is ended by the caller.
func (a *Analyzer) sweep(req Request, sw obs.Span) *spectral.Spectrum {
	p := a.planSweep(req.F1, req.F2)
	nCaps := p.segs * a.cfg.Averages
	req.Events.Emit(obs.Event{Kind: obs.EventSweepStart,
		F1Hz: req.F1, F2Hz: req.F2, Total: int64(nCaps)})
	specs := make([]spectral.Spectrum, nCaps)
	for i := range specs {
		specs[i].PmW = a.arena.Float(p.nfft)
	}
	if a.cfg.Parallelism == 1 {
		for i := 0; i < nCaps; i++ {
			a.capture(req, p, i, &specs[i], sw)
		}
	} else {
		// A capture that panics re-raises on this goroutine, after the
		// sweep's other captures finish (see par.Do).
		par.Do(nCaps, func(i int) { a.capture(req, p, i, &specs[i], sw) })
	}
	// Deterministic reduction: segment by segment, traces in capture
	// order, exactly as the serial sweep accumulated them. Progress
	// events stride this loop (not render completion), so the journal
	// sees the same positions at any Parallelism.
	stride := p.segs / 8
	if stride < 1 {
		stride = 1
	}
	parts := make([]*spectral.Spectrum, 0, p.segs)
	for s := 0; s < p.segs; s++ {
		fStart, _, bins := a.segGeom(p, req.F1, s)
		var avg spectral.Averager
		for t := 0; t < a.cfg.Averages; t++ {
			sp := &specs[s*a.cfg.Averages+t]
			avg.Add(sp)
			a.arena.PutFloat(sp.PmW)
			sp.PmW = nil
		}
		parts = append(parts, avg.Mean().Slice(fStart, fStart+float64(bins)*a.cfg.Fres))
		if req.Events != nil && (s+1)%stride == 0 && s+1 < p.segs {
			req.Events.Emit(obs.Event{Kind: obs.EventSweepProgress,
				Captures: int64((s + 1) * a.cfg.Averages), Total: int64(nCaps)})
		}
	}
	// Through the run, which counts the finished sweep for /progress.
	a.cfg.Obs.Emit(req.Events, obs.Event{Kind: obs.EventSweepEnd,
		Captures: int64(nCaps), Total: int64(nCaps)})
	return spectral.Stitch(parts)
}

package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Run collects one campaign's observability: stage wall/CPU timings,
// per-segment planner decisions, capture counts and render/FFT time from
// the analyzer's workers, and (optionally) a Tracer. Finish folds it all,
// plus the Default registry's deltas, into a Manifest.
//
// All methods are nil-safe no-ops on a nil *Run, so instrumented code
// threads a *Run unconditionally and pays only a nil check when
// observability is off.
//
// Cache and planner statistics come from process-wide counters, so they
// are only attributable to this run when no other campaign runs
// concurrently in the process (true for the CLI; tests that assert on
// them run their campaigns alone).
type Run struct {
	// Tracer, when non-nil, records spans alongside the timings.
	Tracer *Tracer
	// Journal, when non-nil, receives the run's structured event stream
	// (see events.go): Stage emits stage_start/stage_end on track 0, and
	// the campaign/planner/analyzer emit their own events through tracks
	// obtained from Track.
	Journal *Journal

	// Captures counts analyzer captures rendered under this run.
	Captures Counter
	// RenderSeconds and FFTSeconds accumulate the two halves of each
	// capture: scene rendering vs window+FFT+calibration.
	RenderSeconds FloatAdder
	FFTSeconds    FloatAdder
	// PlanCacheHits/Misses count the analyzer's per-segment render-plan
	// cache behaviour for this run.
	PlanCacheHits   Counter
	PlanCacheMisses Counter
	// StaticCacheHits/Misses count the analyzer's static-layer cache
	// behaviour for this run (see specan.Config.Statics): hits are
	// captures whose activity-independent layer was replayed rather than
	// re-rendered.
	StaticCacheHits   Counter
	StaticCacheMisses Counter

	start     time.Time
	startCPU  float64
	startSnap Snapshot

	progress progress

	mu         sync.Mutex
	stages     []StageTiming
	segments   []SegmentPlan
	components map[string]*componentStat
	manifest   *Manifest
}

// Track returns the journal track with the given id, or nil (whose Emit
// is a no-op) when the run or its journal is nil. Track 0 is the
// campaign coordinator; sweeps use 1 + their ladder index.
func (r *Run) Track(id int64) *JournalTrack {
	if r == nil || r.Journal == nil {
		return nil
	}
	return r.Journal.Track(id)
}

// componentStat accumulates one component's render attribution (guarded
// by Run.mu; the sweep workers call AddComponentRender concurrently).
type componentStat struct {
	renders int64
	replays int64
	wall    float64
}

// renderComponentSeconds is the process-wide distribution of component
// render times; instrumented runs feed it alongside their own table.
var renderComponentSeconds = Default.Histogram(MetricRenderComponentSeconds,
	ExpBuckets(1e-6, 4, 12))

// NewRun starts a run clock and snapshots the Default registry so Finish
// can attribute metric deltas to this run.
func NewRun() *Run {
	return &Run{start: time.Now(), startCPU: processCPUSeconds(), startSnap: Default.Snapshot()}
}

var nopStageEnd = func() {}

// Stage starts timing a named pipeline stage and returns the function
// that ends it. Stages are expected to be sequential at the campaign
// level, so their wall times sum to ≈ the run's total and their CPU
// times are read as process-CPU deltas.
func (r *Run) Stage(name string) func() {
	if r == nil {
		return nopStageEnd
	}
	r.SetStage(name)
	r.Track(0).Emit(Event{Kind: EventStageStart, Name: name})
	t0, c0 := time.Now(), processCPUSeconds()
	return func() {
		st := StageTiming{Name: name, WallSeconds: time.Since(t0).Seconds(),
			CPUSeconds: processCPUSeconds() - c0}
		r.mu.Lock()
		r.stages = append(r.stages, st)
		r.mu.Unlock()
		r.Track(0).Emit(Event{Kind: EventStageEnd, Name: name, WallSeconds: st.WallSeconds})
	}
}

// RecordPlan records one segment's render-plan decision: how many scene
// components stayed active vs were culled for the segment's band.
func (r *Run) RecordPlan(centerHz, sampleRate float64, samples, active, skipped int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.segments = append(r.segments, SegmentPlan{CenterHz: centerHz, SampleRate: sampleRate,
		Samples: samples, Active: active, Skipped: skipped})
	r.mu.Unlock()
}

// AddComponentRender attributes one live component render to the run: the
// wall time feeds both the fase_render_component_seconds histogram and the
// manifest's per-component table. Callers gate on a non-nil run before
// timing, so uninstrumented rendering pays only the nil check.
func (r *Run) AddComponentRender(name string, seconds float64) {
	if r == nil {
		return
	}
	renderComponentSeconds.Observe(seconds)
	r.mu.Lock()
	cs := r.component(name)
	cs.renders++
	cs.wall += seconds
	r.mu.Unlock()
}

// AddComponentReplay attributes one static-cache replay to the component —
// a render the cache saved, counted so the table shows both what was paid
// and what was avoided.
func (r *Run) AddComponentReplay(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.component(name).replays++
	r.mu.Unlock()
}

// component returns name's accumulator; callers hold r.mu.
func (r *Run) component(name string) *componentStat {
	cs, ok := r.components[name]
	if !ok {
		if r.components == nil {
			r.components = make(map[string]*componentStat)
		}
		cs = &componentStat{}
		r.components[name] = cs
	}
	return cs
}

// Stages returns a copy of the stage timings recorded so far.
func (r *Run) Stages() []StageTiming {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StageTiming, len(r.stages))
	copy(out, r.stages)
	return out
}

// Finish assembles the run's manifest: resolved config (any
// JSON-marshalable value), the simulated spectrum-analyzer observation
// time, and the detection provenance records. The first call wins;
// subsequent calls return the existing manifest unchanged.
func (r *Run) Finish(config any, simulatedSeconds float64, detections []DetectionRecord) *Manifest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.manifest != nil {
		return r.manifest
	}
	delta := Default.Snapshot().Sub(r.startSnap)
	m := &Manifest{
		Schema:                   ManifestSchema,
		CreatedUnix:              time.Now().Unix(),
		Config:                   config,
		Stages:                   append([]StageTiming(nil), r.stages...),
		TotalWallSeconds:         time.Since(r.start).Seconds(),
		TotalCPUSeconds:          processCPUSeconds() - r.startCPU,
		SimulatedAnalyzerSeconds: simulatedSeconds,
		Captures:                 r.Captures.Value(),
		RenderSeconds:            r.RenderSeconds.Value(),
		FFTSeconds:               r.FFTSeconds.Value(),
		Planner: PlannerStats{
			PlansBuilt:             delta.Counters[MetricPlansBuilt],
			CacheHits:              r.PlanCacheHits.Value(),
			CacheMisses:            r.PlanCacheMisses.Value(),
			ComponentsActive:       delta.Counters[MetricPlanComponentsActive],
			ComponentsSkipped:      delta.Counters[MetricPlanComponentsSkip],
			RenderSkips:            delta.Counters[MetricRenderComponentSkips],
			StaticCacheHits:        r.StaticCacheHits.Value(),
			StaticCacheMisses:      r.StaticCacheMisses.Value(),
			StaticComponentsCached: delta.Counters[MetricStaticComponents],
			StaticReplays:          delta.Counters[MetricStaticReplays],
			Segments:               append([]SegmentPlan(nil), r.segments...),
		},
		Caches: map[string]CacheStats{
			"fft_plan":        cacheStats(delta, MetricFFTPlanHits, MetricFFTPlanMisses),
			"rfft_plan":       cacheStats(delta, MetricRFFTPlanHits, MetricRFFTPlanMisses),
			"window":          cacheStats(delta, MetricWindowHits, MetricWindowMisses),
			"bufpool_complex": cacheStats(delta, MetricBufpoolComplexHits, MetricBufpoolComplexMisses),
			"bufpool_float":   cacheStats(delta, MetricBufpoolFloatHits, MetricBufpoolFloatMisses),
			"specan_plan":     cacheStats(delta, MetricSpecanPlanHits, MetricSpecanPlanMisses),
			"render_static":   cacheStats(delta, MetricStaticCacheHits, MetricStaticCacheMisses),
		},
		Detections: sanitizeDetections(detections),
		Build:      CurrentBuildInfo(),
	}
	if r.Journal != nil {
		emitted, dropped := r.Journal.Stats()
		m.Events = &EventStats{Emitted: emitted, Dropped: dropped}
	}
	for name, h := range delta.Histograms {
		if h.Count <= 0 {
			continue
		}
		if m.Histograms == nil {
			m.Histograms = make(map[string]HistogramSnapshot)
		}
		m.Histograms[name] = h
	}
	if len(r.components) > 0 {
		comps := make([]ComponentRenderStats, 0, len(r.components))
		for name, cs := range r.components {
			comps = append(comps, ComponentRenderStats{
				Name: name, Renders: cs.renders, Replays: cs.replays, WallSeconds: cs.wall})
		}
		sort.Slice(comps, func(i, j int) bool {
			if comps[i].WallSeconds != comps[j].WallSeconds {
				return comps[i].WallSeconds > comps[j].WallSeconds
			}
			return comps[i].Name < comps[j].Name
		})
		m.RenderComponents = comps
	}
	r.manifest = m
	r.progress.done.Store(true)
	return m
}

// Manifest returns the manifest built by Finish, or nil before Finish
// (or on a nil run).
func (r *Run) Manifest() *Manifest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.manifest
}

func cacheStats(delta Snapshot, hitKey, missKey string) CacheStats {
	s := CacheStats{Hits: delta.Counters[hitKey], Misses: delta.Counters[missKey]}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// sanitizeDetections clamps non-finite floats (e.g. the -Inf depth of a
// detection with no measurable side-band) to JSON-representable values.
func sanitizeDetections(in []DetectionRecord) []DetectionRecord {
	out := make([]DetectionRecord, len(in))
	for i, d := range in {
		d.FreqHz = finiteOr(d.FreqHz, 0)
		d.Score = finiteOr(d.Score, math.MaxFloat64)
		d.MagnitudeDBm = finiteOr(d.MagnitudeDBm, -999)
		d.DepthDB = finiteOr(d.DepthDB, -999)
		subs := make([]HarmonicScore, len(d.SubScores))
		for j, s := range d.SubScores {
			s.Score = finiteOr(s.Score, math.MaxFloat64)
			subs[j] = s
		}
		d.SubScores = subs
		out[i] = d
	}
	return out
}

func finiteOr(v, repl float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if math.IsInf(v, -1) && repl > 0 {
			return -repl
		}
		return repl
	}
	return v
}

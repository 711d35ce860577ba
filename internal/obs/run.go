package obs

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Run collects one campaign's observability, and its own records are the
// only source of its Manifest: stage timings (Begin), planner decisions
// (RecordPlan), counts (Count), capture timings and histograms (Capture),
// and per-component render attribution. Every count and histogram also
// moves its process-wide twin in Default, so /metrics sees all work while
// a manifest sees only its run's, even beside concurrent `fase serve`
// jobs. The one process-wide figure left is CPU: stage and total CPU
// seconds are process-CPU deltas.
//
// All methods are nil-safe, so instrumented code threads a *Run
// unconditionally and pays only a nil check when observability is off;
// a nil run's Count, RecordPlan and Capture still move the twins.
type Run struct {
	// Trace, when set, keeps each capture's timing (Capture) so that
	// WriteChromeTrace can lay out capture spans beside the stage and
	// sweep spans it reads from the journal. Off, a run keeps nothing per
	// capture.
	Trace bool
	// Journal, when non-nil, receives the run's structured event stream
	// (see events.go): Begin emits stage_start/stage_end on track 0, and
	// the campaign/planner/analyzer emit their own events through tracks
	// obtained from Track (or through Emit, for events /progress reads).
	// WriteChromeTrace lays the run's trace out from it.
	Journal *Journal

	start    time.Time
	startCPU float64

	stats [numStats]Counter
	hists [numHists]*Histogram // their sums are the manifest's render/FFT seconds

	progress progress

	mu         sync.Mutex
	stages     []StageTiming
	captures   []captureTiming // Trace only
	segments   []SegmentPlan
	components map[string]*componentStat
	manifest   *Manifest
}

// Stat names a per-run count that has a process-wide twin in Default.
type Stat int

const (
	StatCaptures         Stat = iota // analyzer captures rendered
	StatPlanHits                     // analyzer render-plan cache hits
	StatPlanMisses                   // ... and misses (plans built)
	StatStaticHits                   // static-layer cache hits (captures replaying a layer)
	StatStaticMisses                 // ... and misses (layers built)
	StatStaticComponents             // components captured into static layers
	StatRenderSkips                  // components a render plan let a capture skip
	numStats
)

// statTwins are the Default counters each Stat moves with.
var statTwins = [numStats]*Counter{
	StatCaptures:         Default.Counter(MetricSpecanCaptures),
	StatPlanHits:         Default.Counter(MetricSpecanPlanHits),
	StatPlanMisses:       Default.Counter(MetricSpecanPlanMisses),
	StatStaticHits:       Default.Counter(MetricStaticCacheHits),
	StatStaticMisses:     Default.Counter(MetricStaticCacheMisses),
	StatStaticComponents: Default.Counter(MetricStaticComponents),
	StatRenderSkips:      Default.Counter(MetricRenderComponentSkips),
}

// Planner counters: plans built and, across all of them, how many
// component/band tests kept vs culled the component.
var (
	plansBuilt  = Default.Counter(MetricPlansBuilt)
	planActive  = Default.Counter(MetricPlanComponentsActive)
	planSkipped = Default.Counter(MetricPlanComponentsSkip)
)

// The run's histograms; each has a twin of the same name in Default.
const (
	histRender = iota
	histFFT
	histComponent
	numHists
)

var (
	histNames = [numHists]string{MetricRenderSeconds, MetricFFTSeconds, MetricRenderComponentSeconds}
	histTwins = [numHists]*Histogram{
		Default.Histogram(MetricRenderSeconds, ExpBuckets(1e-5, 4, 12)),
		Default.Histogram(MetricFFTSeconds, ExpBuckets(1e-5, 4, 12)),
		Default.Histogram(MetricRenderComponentSeconds, ExpBuckets(1e-6, 4, 12)),
	}
)

// componentStat accumulates one component's render attribution (guarded
// by Run.mu; the sweep workers call AddComponentRender concurrently).
type componentStat struct {
	renders int64
	replays int64
	wall    float64
}

// NewRun starts a run clock. The run's own setup, its histograms and the
// CPU read, comes first, so the clock starts at the run's first step.
func NewRun() *Run {
	r := &Run{}
	for i, twin := range histTwins {
		r.hists[i] = newHistogram(twin.bounds)
	}
	r.startCPU = processCPUSeconds()
	r.start = time.Now()
	return r
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

// Emit journals e on t and folds the facts /progress reports into the
// run's live position: a sweep_end counts a finished sweep, and a
// budget_reserve sets the reservation level and cap. Either of r and t
// may be nil.
func (r *Run) Emit(t *JournalTrack, e Event) {
	if r != nil {
		switch e.Kind {
		case EventSweepEnd:
			r.progress.sweepsDone.Add(1)
		case EventBudgetReserve:
			r.progress.budgetReserved.Store(e.Reserved)
			r.progress.budgetCap.Store(e.Cap)
		}
	}
	t.Emit(e)
}

// Span is one open pipeline stage, returned by Run.Begin; its End
// records the stage. The zero Span (a nil run's) does nothing.
type Span struct {
	run   *Run
	name  string
	start time.Time
	cpu   float64 // process CPU seconds at Begin
}

// Begin opens the named pipeline stage: stage_start on track 0 and the
// /progress stage. The returned span's End records the stage's
// StageTiming and emits stage_end. Stages are sequential at the campaign
// level, so their wall times sum to ≈ the run's total. The stage's clocks
// start before its bookkeeping and stop after End's CPU read, so the
// stretches between stages hold only the few stores of a stage change. A
// nil run returns the zero Span.
func (r *Run) Begin(name string) Span {
	if r == nil {
		return Span{}
	}
	s := Span{run: r, name: name, start: time.Now(), cpu: processCPUSeconds()}
	r.progress.stage.Store(name)
	r.Track(0).Emit(Event{Kind: EventStageStart, Name: name})
	return s
}

// End records the stage on its run. Ending the zero Span does nothing.
func (s Span) End() {
	r := s.run
	if r == nil {
		return
	}
	cpu := processCPUSeconds() - s.cpu
	st := StageTiming{Name: s.name, WallSeconds: time.Since(s.start).Seconds(), CPUSeconds: cpu}
	r.mu.Lock()
	r.stages = append(r.stages, st)
	r.mu.Unlock()
	r.Track(0).Emit(Event{Kind: EventStageEnd, Name: s.name, WallSeconds: st.WallSeconds})
}

// Count adds n to stat s on the run and on its Default twin. A nil run
// moves only the twin.
func (r *Run) Count(s Stat, n int64) {
	statTwins[s].Add(n)
	if r != nil {
		r.stats[s].Add(n)
	}
}

// Stat returns the run's own count of s.
func (r *Run) Stat(s Stat) int64 {
	if r == nil {
		return 0
	}
	return r.stats[s].Value()
}

// RecordPlan records one segment's render-plan decision: how many scene
// components stayed active vs were culled for the segment's band. The
// run's planner block is built from these records.
func (r *Run) RecordPlan(centerHz, sampleRate float64, samples, active, skipped int) {
	plansBuilt.Inc()
	planActive.Add(int64(active))
	planSkipped.Add(int64(skipped))
	if r == nil {
		return
	}
	r.mu.Lock()
	r.segments = append(r.segments, SegmentPlan{CenterHz: centerHz, SampleRate: sampleRate,
		Samples: samples, Active: active, Skipped: skipped})
	r.mu.Unlock()
}

// Capture counts one rendered analyzer capture of the sweep journaled
// on t, called as it completes. On an instrumented run it also adds the
// capture's simulated seconds to /progress and splits its wall time into
// render [t0, t1) and window+FFT [t1, now), which feed the run's totals
// and histograms; a traced run keeps the split for WriteChromeTrace. A
// nil run only counts, and never reads the clock.
func (r *Run) Capture(t *JournalTrack, t0, t1 time.Time, simSeconds float64) {
	r.Count(StatCaptures, 1)
	if r == nil {
		return
	}
	render, fft := t1.Sub(t0), time.Since(t1)
	r.progress.simDone.Add(simSeconds)
	r.observe(histRender, render.Seconds())
	r.observe(histFFT, fft.Seconds())
	if r.Trace && t != nil {
		r.mu.Lock()
		r.captures = append(r.captures, captureTiming{track: t.id, start: t0.Sub(t.j.epoch), render: render, fft: fft})
		r.mu.Unlock()
	}
}

func (r *Run) observe(h int, v float64) {
	histTwins[h].Observe(v)
	r.hists[h].Observe(v)
}

// AddComponentRender attributes one live component render to the run: the
// wall time feeds both the fase_render_component_seconds histogram and the
// manifest's per-component table. Callers gate on a non-nil run before
// timing, so uninstrumented rendering pays only the nil check.
func (r *Run) AddComponentRender(name string, seconds float64) {
	if r == nil {
		return
	}
	r.observe(histComponent, seconds)
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

// Finish assembles the run's manifest: resolved config (any
// JSON-marshalable value), the simulated spectrum-analyzer observation
// time, and the detection provenance records. The first call wins;
// subsequent calls return the existing manifest unchanged.
func (r *Run) Finish(config any, simulatedSeconds float64, detections []DetectionRecord) *Manifest {
	if r == nil {
		return nil
	}
	wall, cpu := time.Since(r.start).Seconds(), processCPUSeconds()-r.startCPU
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.manifest != nil {
		return r.manifest
	}
	// Segments are recorded in first-render order, which parallel
	// captures make nondeterministic; sorting keeps the block a function
	// of the run's configuration.
	segs := append([]SegmentPlan(nil), r.segments...)
	slices.SortFunc(segs, func(a, b SegmentPlan) int {
		return cmp.Or(cmp.Compare(a.CenterHz, b.CenterHz),
			cmp.Compare(a.SampleRate, b.SampleRate), cmp.Compare(a.Samples, b.Samples))
	})
	p := PlannerStats{
		PlansBuilt:             int64(len(segs)),
		CacheHits:              r.Stat(StatPlanHits),
		CacheMisses:            r.Stat(StatPlanMisses),
		RenderSkips:            r.Stat(StatRenderSkips),
		StaticCacheHits:        r.Stat(StatStaticHits),
		StaticCacheMisses:      r.Stat(StatStaticMisses),
		StaticComponentsCached: r.Stat(StatStaticComponents),
		Segments:               segs,
	}
	for _, s := range segs {
		p.ComponentsActive += int64(s.Active)
		p.ComponentsSkipped += int64(s.Skipped)
	}
	m := &Manifest{
		Schema:                   ManifestSchema,
		CreatedUnix:              time.Now().Unix(),
		Config:                   config,
		Stages:                   append([]StageTiming(nil), r.stages...),
		TotalWallSeconds:         wall,
		TotalCPUSeconds:          cpu,
		SimulatedAnalyzerSeconds: simulatedSeconds,
		Captures:                 r.Stat(StatCaptures),
		RenderSeconds:            r.hists[histRender].sum.Value(),
		FFTSeconds:               r.hists[histFFT].sum.Value(),
		Caches: map[string]CacheStats{
			"specan_plan":   cacheStats(p.CacheHits, p.CacheMisses),
			"render_static": cacheStats(p.StaticCacheHits, p.StaticCacheMisses),
		},
		Detections: sanitizeDetections(detections),
		Build:      CurrentBuildInfo(),
	}
	if r.Journal != nil {
		emitted, dropped := r.Journal.Stats()
		m.Events = &EventStats{Emitted: emitted, Dropped: dropped}
	}
	for i, h := range r.hists {
		if s := h.snapshot(); s.Count > 0 {
			if m.Histograms == nil {
				m.Histograms = make(map[string]HistogramSnapshot)
			}
			m.Histograms[histNames[i]] = s
		}
	}
	if len(r.components) > 0 {
		comps := make([]ComponentRenderStats, 0, len(r.components))
		for name, cs := range r.components {
			p.StaticReplays += cs.replays
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
	m.Planner = p
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

func cacheStats(hits, misses int64) CacheStats {
	s := CacheStats{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		s.HitRate = float64(hits) / float64(total)
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

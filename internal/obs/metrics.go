// Package obs is the zero-dependency observability layer of the FASE
// pipeline: a process-wide metrics registry (counters, gauges,
// fixed-bucket histograms — all atomic), per-run records (Run) that are
// the only source of each run's manifest — where a campaign's time went,
// what its planner and caches did, and why each detection fired — and a
// debug HTTP server exposing net/http/pprof, the registry's snapshot,
// and the run's live progress and event stream. One call instruments a
// pipeline stage: Run.Begin times it, journals it and reports it at
// /progress. The run's Chrome trace_event JSON is laid out from its
// journal (Run.WriteChromeTrace), so there is one recorder.
//
// Everything is stdlib-only and safe under the rendering worker pools.
// Every hook is nil-safe: a nil *Run or zero Span records nothing and
// allocates nothing (a nil run's counts still move their
// process-wide twins), so the instrumented hot path stays
// allocation-free and bit-identical when observability is off (enforced
// by the planner equivalence tests, which run with it on).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names instrumented across the pipeline. The packages
// that own each site register these against Default at init; the ones a
// run also counts for itself (see Stat) are registered here. See
// DESIGN.md "Observability" for the full catalogue.
const (
	MetricFFTPlanHits          = "fase_fft_plan_cache_hits_total"
	MetricFFTPlanMisses        = "fase_fft_plan_cache_misses_total"
	MetricRFFTPlanHits         = "fase_rfft_plan_cache_hits_total"
	MetricRFFTPlanMisses       = "fase_rfft_plan_cache_misses_total"
	MetricWindowHits           = "fase_window_cache_hits_total"
	MetricWindowMisses         = "fase_window_cache_misses_total"
	MetricBufpoolComplexHits   = "fase_bufpool_complex_hits_total"
	MetricBufpoolComplexMisses = "fase_bufpool_complex_misses_total"
	MetricBufpoolFloatHits     = "fase_bufpool_float_hits_total"
	MetricBufpoolFloatMisses   = "fase_bufpool_float_misses_total"
	MetricPlansBuilt           = "fase_emsim_plans_built_total"
	MetricPlanComponentsActive = "fase_emsim_plan_components_active_total"
	MetricPlanComponentsSkip   = "fase_emsim_plan_components_skipped_total"
	MetricRenderCaptures       = "fase_emsim_captures_rendered_total"
	MetricRenderComponentSkips = "fase_emsim_render_component_skips_total"
	MetricFaultedCaptures      = "fase_emsim_faulted_captures_total"
	MetricSweeps               = "fase_specan_sweeps_total"
	MetricSpecanCaptures       = "fase_specan_captures_total"
	MetricSpecanPlanHits       = "fase_specan_plan_cache_hits_total"
	MetricSpecanPlanMisses     = "fase_specan_plan_cache_misses_total"
	MetricStaticCacheHits      = "fase_render_static_cache_hits_total"
	MetricStaticCacheMisses    = "fase_render_static_cache_misses_total"
	MetricStaticComponents     = "fase_render_static_components_cached_total"
	MetricStaticReplays        = "fase_render_static_component_replays_total"
	MetricCampaigns            = "fase_core_campaigns_total"
	MetricDetections           = "fase_core_detections_total"
	// Adaptive-planner counters: campaigns run in adaptive mode, and the
	// fate of each refinement window the planner scheduled (fully
	// refined, abandoned after its probe, or skipped for lack of budget).
	MetricAdaptiveCampaigns        = "fase_core_adaptive_campaigns_total"
	MetricAdaptiveWindowsRefined   = "fase_core_adaptive_windows_refined_total"
	MetricAdaptiveWindowsAbandoned = "fase_core_adaptive_windows_abandoned_total"
	MetricAdaptiveWindowsSkipped   = "fase_core_adaptive_windows_skipped_total"
	MetricRenderSeconds            = "fase_specan_render_seconds"
	MetricFFTSeconds               = "fase_specan_fft_seconds"
	// MetricRenderComponentSeconds is the histogram of single-component
	// live-render wall times, observed by instrumented captures (see
	// Run.AddComponentRender) — the distribution behind the manifest's
	// per-component table.
	MetricRenderComponentSeconds = "fase_render_component_seconds"
	// Event-journal counters: events emitted across all journals, and SSE
	// deliveries the slow-subscriber drop policy discarded.
	MetricEventsEmitted = "fase_obs_events_emitted_total"
	MetricEventsDropped = "fase_obs_events_dropped_total"
	// MetricBuildInfo is the build-identity info gauge (value 1, build
	// metadata as labels — see RegisterBuildInfo).
	MetricBuildInfo = "fase_build_info"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. The zero value is ready to
// use; all methods are nil-safe no-ops.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// FloatAdder accumulates float64 values atomically (CAS loop), for
// summing durations from concurrent workers without a lock.
type FloatAdder struct{ bits atomic.Uint64 }

// Add accumulates v.
func (f *FloatAdder) Add(v float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the accumulated sum.
func (f *FloatAdder) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// values v <= Bounds[i]; one overflow bucket catches the rest. Observe is
// atomic and allocation-free, so histograms are safe in the render hot
// path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    FloatAdder
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram. P50/P90/P99
// are derived latency-quantile estimates (see Quantile) so /metrics and
// manifest tables show quantiles without re-deriving them from buckets.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket holding the target rank, the standard fixed-bucket
// estimator: the first bucket interpolates from 0, and ranks landing in
// the overflow bucket clamp to the last bound (the histogram records no
// upper edge there). Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// computeQuantiles fills the derived quantile fields from the buckets.
func (s *HistogramSnapshot) computeQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts)), Sum: h.sum.Value()}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.computeQuantiles()
	return s
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor — the shape duration histograms use.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid bucket spec start=%g factor=%g n=%d", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. Lookups take a mutex (they
// happen at package init or setup time); the returned metrics are then
// lock-free. The zero registry is not usable — use NewRegistry or the
// process-wide Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry every instrumented package
// registers against.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls keep the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, the
// expvar-style view served at /metrics and written by -metrics-out.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values. A nil registry yields a
// zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the registry's snapshot as indented JSON (keys
// sorted, so output is stable).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promSplitLabels splits a registry name that encodes labels — the
// info-metric convention used by RegisterBuildInfo — into its base name
// and the full series name. Plain names return themselves twice.
func promSplitLabels(name string) (base, series string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name
	}
	return name, name
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes the registry's snapshot in the Prometheus text
// exposition format (version 0.0.4): one sorted series per counter and
// gauge, and histograms expanded into cumulative _bucket{le="..."}
// series plus _sum and _count. Served at /metrics?format=prom.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	var b []byte

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, series := promSplitLabels(name)
		b = append(b, "# TYPE "...)
		b = append(b, base...)
		b = append(b, " counter\n"...)
		b = append(b, series...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, s.Counters[name], 10)
		b = append(b, '\n')
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, series := promSplitLabels(name)
		b = append(b, "# TYPE "...)
		b = append(b, base...)
		b = append(b, " gauge\n"...)
		b = append(b, series...)
		b = append(b, ' ')
		b = append(b, promFloat(s.Gauges[name])...)
		b = append(b, '\n')
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		b = append(b, "# TYPE "...)
		b = append(b, name...)
		b = append(b, " histogram\n"...)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			b = append(b, name...)
			b = append(b, `_bucket{le="`...)
			b = append(b, promFloat(bound)...)
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		b = append(b, name...)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendInt(b, h.Count, 10)
		b = append(b, '\n')
		b = append(b, name...)
		b = append(b, "_sum "...)
		b = append(b, promFloat(h.Sum)...)
		b = append(b, '\n')
		b = append(b, name...)
		b = append(b, "_count "...)
		b = strconv.AppendInt(b, h.Count, 10)
		b = append(b, '\n')
	}

	_, err := w.Write(b)
	return err
}

package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// ManifestSchema identifies the manifest layout; bump it when the JSON
// shape changes incompatibly.
const ManifestSchema = "fase-run-manifest/1"

// Manifest is the per-run record a campaign writes: what was asked for
// (resolved config), where the time went (stages, render vs FFT), what
// the planner and caches did, and the full provenance behind every
// detection. See DESIGN.md "Observability" for the schema description.
type Manifest struct {
	Schema      string `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	// Config is the fully resolved campaign configuration (defaults
	// applied), as the instrumented package recorded it.
	Config any           `json:"config"`
	Stages []StageTiming `json:"stages"`
	// TotalWallSeconds spans Run creation to Finish; the stage walls are
	// sequential sub-intervals, so they sum to ≈ this.
	TotalWallSeconds float64 `json:"total_wall_seconds"`
	// TotalCPUSeconds, like each stage's CPUSeconds, is a process-CPU
	// delta: it includes any other work the process did meanwhile (e.g. a
	// concurrent service job), so it is the one figure not scoped to
	// the run.
	TotalCPUSeconds float64 `json:"total_cpu_seconds"`
	// SimulatedAnalyzerSeconds is the observation time the modeled
	// spectrum analyzer would have spent (Analyzer.TotalDuration summed
	// over the campaign's sweeps) — the paper's "scan time".
	SimulatedAnalyzerSeconds float64 `json:"simulated_analyzer_seconds"`
	// Captures, RenderSeconds, FFTSeconds break down the measurement
	// work: capture count and the render vs window+FFT+calibrate split.
	Captures      int64        `json:"captures"`
	RenderSeconds float64      `json:"render_seconds"`
	FFTSeconds    float64      `json:"fft_seconds"`
	Planner       PlannerStats `json:"planner"`
	// Caches holds the run's own cache statistics: the analyzer's plan
	// cache ("specan_plan") and static-layer cache ("render_static").
	// Process-wide caches, shared by every run in the process, are on
	// /metrics only.
	Caches map[string]CacheStats `json:"caches"`
	// RenderComponents attributes live render wall time (and static-cache
	// replays) to individual scene components, sorted by wall time
	// descending. Present only on runs whose captures were instrumented
	// (see Run.AddComponentRender); older manifests omit it.
	RenderComponents []ComponentRenderStats `json:"render_components,omitempty"`
	Detections       []DetectionRecord      `json:"detections"`
	// Accuracy is present only on accuracy-harness runs (internal/verify):
	// the corpus-wide ground-truth scoring, so a manifest archive carries
	// detection quality alongside cost.
	Accuracy *AccuracyStats `json:"accuracy,omitempty"`
	// Adaptive is present only on adaptive-planner campaigns: the
	// measurement budget, how it was spent across recon and refinement,
	// and the planner's per-window decisions — the provenance behind
	// "why was this band (not) re-swept".
	Adaptive *AdaptiveStats `json:"adaptive,omitempty"`
	// Build identifies the binary that produced the run (module version
	// or VCS revision, Go toolchain, target platform). Older manifests
	// omit it.
	Build BuildInfo `json:"build,omitempty"`
	// Events is present on runs that carried an event journal: how many
	// events the run emitted and how many live-subscriber deliveries the
	// drop policy discarded (the journal itself is lossless).
	Events *EventStats `json:"events,omitempty"`
	// Histograms are the run's own capture-timing distributions (render,
	// FFT, component render) that saw at least one observation, with
	// derived p50/p90/p99.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// EventStats summarizes a run's event journal in the manifest.
type EventStats struct {
	Emitted int64 `json:"emitted"`
	// Dropped counts live-stream deliveries discarded by the
	// slow-subscriber policy; the archived journal is unaffected.
	Dropped int64 `json:"dropped"`
}

// Adaptive-window outcomes as recorded in AdaptiveWindow.Outcome.
const (
	// WindowRefined: the window passed its probe and was fully re-swept.
	WindowRefined = "refined"
	// WindowAbandoned: the probe score collapsed below the abandonment
	// threshold; the window cost only its probe captures.
	WindowAbandoned = "abandoned"
	// WindowPartial: the probe passed but the remaining measurements no
	// longer fit the budget; probe spectra exist but support no gated
	// detection.
	WindowPartial = "partial"
	// WindowSkipped: not even the probe fit the remaining budget.
	WindowSkipped = "skipped"
)

// AdaptiveStats is the adaptive campaign planner's decision record.
type AdaptiveStats struct {
	// Budget is the campaign's hard capture budget; CapturesUsed is what
	// the planner actually spent (recon + refinement), never above it.
	Budget       int64 `json:"budget"`
	CapturesUsed int64 `json:"captures_used"`
	// ExhaustiveCaptures prices the equivalent exhaustive campaign on the
	// same analyzer geometry, for the savings ratio.
	ExhaustiveCaptures int64 `json:"exhaustive_captures"`
	ReconCaptures      int64 `json:"recon_captures"`
	RefineCaptures     int64 `json:"refine_captures"`
	// ReconFresHz is the reconnaissance resolution bandwidth; Candidates
	// counts the recon peaks that seeded refinement windows.
	ReconFresHz float64 `json:"recon_fres_hz"`
	Candidates  int     `json:"candidates"`
	// Windows are the planner's per-window decisions in processing order
	// (priority-descending).
	Windows []AdaptiveWindow `json:"windows"`
}

// AdaptiveWindow is one refinement window's fate.
type AdaptiveWindow struct {
	F1Hz     float64 `json:"f1_hz"`
	F2Hz     float64 `json:"f2_hz"`
	Priority float64 `json:"priority"`
	Outcome  string  `json:"outcome"`
	// Captures is what the window actually cost (probe + completion).
	Captures int64 `json:"captures"`
	// ProbeScore is the two-measurement probe's peak score (0 when the
	// window was skipped before probing).
	ProbeScore float64 `json:"probe_score"`
	// Detections counts gated detections credited to this window.
	Detections int `json:"detections"`
}

// AccuracyStats is the accuracy harness's aggregate scoring as recorded
// in the run manifest.
type AccuracyStats struct {
	Scenarios int             `json:"scenarios"`
	NoFault   AccuracyCorpus  `json:"no_fault"`
	Faulted   *AccuracyCorpus `json:"faulted,omitempty"`
}

// AccuracyCorpus is one corpus pass's confusion counts and rates.
type AccuracyCorpus struct {
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	FalseNegatives int     `json:"false_negatives"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	F1             float64 `json:"f1"`
	// MeanAbsFreqErrHz is the mean |f_detected − f_truth| over matches.
	MeanAbsFreqErrHz float64 `json:"mean_abs_freq_err_hz"`
}

// StageTiming is one sequential pipeline stage's cost.
type StageTiming struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
}

// SegmentPlan records one segment's render-plan decision.
type SegmentPlan struct {
	CenterHz   float64 `json:"center_hz"`
	SampleRate float64 `json:"sample_rate"`
	Samples    int     `json:"samples"`
	Active     int     `json:"active"`
	Skipped    int     `json:"skipped"`
}

// PlannerStats aggregates the render planner's work during the run.
type PlannerStats struct {
	PlansBuilt int64 `json:"plans_built"`
	// CacheHits/CacheMisses are the analyzer's plan-cache behaviour.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// ComponentsActive/Skipped count component decisions at plan time.
	ComponentsActive  int64 `json:"components_active"`
	ComponentsSkipped int64 `json:"components_skipped"`
	// RenderSkips counts components not rendered across all captures —
	// the planner's actual savings.
	RenderSkips int64 `json:"render_component_skips"`
	// StaticCacheHits/Misses are the analyzer's static-layer cache
	// behaviour (captures whose activity-independent layer was replayed
	// from cache vs built); StaticComponentsCached and StaticReplays count
	// the layer's contents and the component renders it saved.
	StaticCacheHits        int64         `json:"static_cache_hits"`
	StaticCacheMisses      int64         `json:"static_cache_misses"`
	StaticComponentsCached int64         `json:"static_components_cached"`
	StaticReplays          int64         `json:"static_component_replays"`
	Segments               []SegmentPlan `json:"segments"`
}

// ComponentRenderStats is one scene component's render attribution: how
// many times it was rendered live (and the wall time those renders cost)
// vs replayed from the static cache.
type ComponentRenderStats struct {
	Name        string  `json:"name"`
	Renders     int64   `json:"renders"`
	Replays     int64   `json:"replays"`
	WallSeconds float64 `json:"wall_seconds"`
}

// CacheStats is one cache's hit/miss record during the run.
type CacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// DetectionRecord is the provenance of one reported carrier: the
// detection itself plus every harmonic's sub-score and elevated count at
// the detection bin, so "why did this fire" needs no re-run.
type DetectionRecord struct {
	FreqHz       float64         `json:"freq_hz"`
	Score        float64         `json:"score"`
	BestHarmonic int             `json:"best_harmonic"`
	Harmonics    []int           `json:"harmonics"`
	MagnitudeDBm float64         `json:"magnitude_dbm"`
	DepthDB      float64         `json:"depth_db"`
	SubScores    []HarmonicScore `json:"sub_scores"`
}

// HarmonicScore is one harmonic's evidence at a detection.
type HarmonicScore struct {
	Harmonic int     `json:"harmonic"`
	Score    float64 `json:"score"`
	Elevated int     `json:"elevated"`
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest parses a manifest from JSON without validating it; use
// ValidateManifest for schema checks.
func ReadManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest: %w", err)
	}
	return &m, nil
}

// ValidateManifest checks a serialized manifest against the schema:
// required fields present and well-typed, timings non-negative, stage
// walls summing to within 10% of the total wall time (they are
// sequential sub-intervals of it), and every detection carrying
// sub-score provenance. It returns the first violation found.
func ValidateManifest(data []byte) error {
	m, err := ReadManifest(data)
	if err != nil {
		return err
	}
	if m.Schema != ManifestSchema {
		return fmt.Errorf("obs: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.CreatedUnix <= 0 {
		return fmt.Errorf("obs: manifest missing created_unix")
	}
	if m.Config == nil {
		return fmt.Errorf("obs: manifest missing config")
	}
	if len(m.Stages) == 0 {
		return fmt.Errorf("obs: manifest has no stages")
	}
	var stageSum float64
	for _, st := range m.Stages {
		if st.Name == "" {
			return fmt.Errorf("obs: manifest stage with empty name")
		}
		if st.WallSeconds < 0 || st.CPUSeconds < 0 {
			return fmt.Errorf("obs: stage %q has negative timing", st.Name)
		}
		stageSum += st.WallSeconds
	}
	if m.TotalWallSeconds <= 0 {
		return fmt.Errorf("obs: total_wall_seconds %g must be positive", m.TotalWallSeconds)
	}
	if math.Abs(stageSum-m.TotalWallSeconds) > 0.1*m.TotalWallSeconds {
		return fmt.Errorf("obs: stage walls sum to %.4fs, more than 10%% off total %.4fs",
			stageSum, m.TotalWallSeconds)
	}
	if m.Captures <= 0 {
		return fmt.Errorf("obs: manifest records no captures")
	}
	if m.RenderSeconds < 0 || m.FFTSeconds < 0 {
		return fmt.Errorf("obs: negative render/fft seconds")
	}
	p := m.Planner
	for name, v := range map[string]int64{
		"plans_built": p.PlansBuilt, "cache_hits": p.CacheHits, "cache_misses": p.CacheMisses,
		"components_active": p.ComponentsActive, "components_skipped": p.ComponentsSkipped,
		"render_component_skips": p.RenderSkips,
	} {
		if v < 0 {
			return fmt.Errorf("obs: planner.%s is negative", name)
		}
	}
	for _, seg := range p.Segments {
		if seg.Samples <= 0 || seg.SampleRate <= 0 || seg.Active < 0 || seg.Skipped < 0 {
			return fmt.Errorf("obs: malformed planner segment %+v", seg)
		}
	}
	if m.Caches == nil {
		return fmt.Errorf("obs: manifest missing caches")
	}
	// Only the run-scoped caches are required: manifests from older builds
	// also carry the process-wide dsp caches, and still validate.
	for _, name := range []string{"specan_plan", "render_static"} {
		c, ok := m.Caches[name]
		if !ok {
			return fmt.Errorf("obs: manifest missing cache %q", name)
		}
		if c.Hits < 0 || c.Misses < 0 || c.HitRate < 0 || c.HitRate > 1 {
			return fmt.Errorf("obs: cache %q has malformed stats %+v", name, c)
		}
	}
	for _, c := range m.RenderComponents {
		if c.Name == "" {
			return fmt.Errorf("obs: render component with empty name")
		}
		if c.Renders < 0 || c.Replays < 0 || c.WallSeconds < 0 {
			return fmt.Errorf("obs: render component %q has negative stats %+v", c.Name, c)
		}
	}
	if a := m.Accuracy; a != nil {
		if a.Scenarios <= 0 {
			return fmt.Errorf("obs: accuracy stats with %d scenarios", a.Scenarios)
		}
		if err := validateAccuracyCorpus("no_fault", a.NoFault); err != nil {
			return err
		}
		if a.Faulted != nil {
			if err := validateAccuracyCorpus("faulted", *a.Faulted); err != nil {
				return err
			}
		}
	}
	if a := m.Adaptive; a != nil {
		if a.Budget <= 0 {
			return fmt.Errorf("obs: adaptive stats with budget %d", a.Budget)
		}
		if a.CapturesUsed < 0 || a.CapturesUsed > a.Budget {
			return fmt.Errorf("obs: adaptive captures_used %d outside budget %d", a.CapturesUsed, a.Budget)
		}
		if a.ReconCaptures < 0 || a.RefineCaptures < 0 ||
			a.ReconCaptures+a.RefineCaptures != a.CapturesUsed {
			return fmt.Errorf("obs: adaptive recon %d + refine %d captures do not sum to used %d",
				a.ReconCaptures, a.RefineCaptures, a.CapturesUsed)
		}
		if a.ExhaustiveCaptures <= 0 {
			return fmt.Errorf("obs: adaptive exhaustive_captures %d must be positive", a.ExhaustiveCaptures)
		}
		if a.ReconFresHz <= 0 || math.IsNaN(a.ReconFresHz) || math.IsInf(a.ReconFresHz, 0) {
			return fmt.Errorf("obs: adaptive recon_fres_hz %g is malformed", a.ReconFresHz)
		}
		if a.Candidates < 0 {
			return fmt.Errorf("obs: adaptive candidates %d is negative", a.Candidates)
		}
		for i, w := range a.Windows {
			if w.F2Hz <= w.F1Hz {
				return fmt.Errorf("obs: adaptive window %d has empty range [%g, %g]", i, w.F1Hz, w.F2Hz)
			}
			switch w.Outcome {
			case WindowRefined, WindowAbandoned, WindowPartial, WindowSkipped:
			default:
				return fmt.Errorf("obs: adaptive window %d has unknown outcome %q", i, w.Outcome)
			}
			if w.Captures < 0 || w.Detections < 0 {
				return fmt.Errorf("obs: adaptive window %d has negative stats %+v", i, w)
			}
			if w.Outcome == WindowSkipped && w.Captures != 0 {
				return fmt.Errorf("obs: adaptive window %d skipped but charged %d captures", i, w.Captures)
			}
		}
	}
	for _, field := range [][2]string{
		{"version", m.Build.Version}, {"go_version", m.Build.GoVersion},
		{"os", m.Build.OS}, {"arch", m.Build.Arch},
	} {
		if field[1] == "" {
			return fmt.Errorf("obs: manifest build.%s is empty", field[0])
		}
	}
	if e := m.Events; e != nil {
		if e.Emitted <= 0 {
			return fmt.Errorf("obs: events block present but emitted is %d", e.Emitted)
		}
		if e.Dropped < 0 {
			return fmt.Errorf("obs: events.dropped %d is negative", e.Dropped)
		}
	}
	for name, h := range m.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("obs: histogram %q has %d counts for %d bounds",
				name, len(h.Counts), len(h.Bounds))
		}
		var sum int64
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("obs: histogram %q has a negative bucket count", name)
			}
			sum += c
		}
		if sum != h.Count || h.Count <= 0 {
			return fmt.Errorf("obs: histogram %q count %d does not match buckets (sum %d, must be positive)",
				name, h.Count, sum)
		}
		if math.IsNaN(h.Sum) || math.IsInf(h.Sum, 0) {
			return fmt.Errorf("obs: histogram %q has non-finite sum", name)
		}
		if h.P50 < 0 || h.P90 < h.P50 || h.P99 < h.P90 {
			return fmt.Errorf("obs: histogram %q quantiles not monotone (p50=%g p90=%g p99=%g)",
				name, h.P50, h.P90, h.P99)
		}
	}
	for i, d := range m.Detections {
		if d.FreqHz < 0 {
			return fmt.Errorf("obs: detection %d has negative frequency", i)
		}
		if d.BestHarmonic == 0 {
			return fmt.Errorf("obs: detection %d missing best_harmonic", i)
		}
		if len(d.SubScores) == 0 {
			return fmt.Errorf("obs: detection %d has no sub-score provenance", i)
		}
		for _, s := range d.SubScores {
			if s.Harmonic == 0 || s.Elevated < 0 {
				return fmt.Errorf("obs: detection %d has malformed sub-score %+v", i, s)
			}
		}
	}
	return nil
}

func validateAccuracyCorpus(name string, c AccuracyCorpus) error {
	if c.TruePositives < 0 || c.FalsePositives < 0 || c.FalseNegatives < 0 {
		return fmt.Errorf("obs: accuracy.%s has negative confusion counts %+v", name, c)
	}
	for field, v := range map[string]float64{
		"precision": c.Precision, "recall": c.Recall, "f1": c.F1,
	} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("obs: accuracy.%s.%s %g outside [0, 1]", name, field, v)
		}
	}
	if math.IsNaN(c.MeanAbsFreqErrHz) || math.IsInf(c.MeanAbsFreqErrHz, 0) || c.MeanAbsFreqErrHz < 0 {
		return fmt.Errorf("obs: accuracy.%s.mean_abs_freq_err_hz %g is malformed", name, c.MeanAbsFreqErrHz)
	}
	return nil
}

// ValidateManifestFile reads and validates a manifest file.
func ValidateManifestFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return ValidateManifest(data)
}

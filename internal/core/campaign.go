package core

import (
	"fmt"
	"math"
	"sort"

	"fase/internal/activity"
	"fase/internal/dsp/peaks"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/obs"
	"fase/internal/par"
	"fase/internal/specan"
)

// Process-wide campaign counters; per-run detail goes through Runner.Obs.
var (
	campaignsTotal  = obs.Default.Counter(obs.MetricCampaigns)
	detectionsTotal = obs.Default.Counter(obs.MetricDetections)
)

// Campaign describes one FASE measurement campaign: a frequency range, a
// resolution bandwidth, and a ladder of alternation frequencies
// f_alt1, f_alt1+f_Δ, …, as in Figure 10.
type Campaign struct {
	// F1, F2 bound the scanned frequency range, Hz.
	F1, F2 float64
	// Fres is the spectrum resolution (Figure 10's f_res).
	Fres float64
	// FAlt1 is the first alternation frequency; FDelta the step between
	// successive measurements.
	FAlt1, FDelta float64
	// NumAlts is the number of alternation frequencies (the paper uses
	// 5). Zero means 5.
	NumAlts int
	// Harmonics to score; nil means DefaultHarmonics (±1..±5).
	Harmonics []int
	// Averages per spectrum; zero means 4 (§3).
	Averages int
	// MinScore is the detection threshold on the heuristic output; zero
	// means 30. A literal zero threshold (accept every candidate peak)
	// must be requested with the MinScoreZero sentinel — the same
	// zero-value pattern window.Default uses to keep Rectangular
	// selectable.
	MinScore float64
	// SmoothBins is the moving-average width (bins) applied to spectra
	// before scoring, matched to the side-band linewidth. Zero means 9.
	// At most the band's bin count.
	SmoothBins int
	// MergeBins is the radius (bins) within which detections from
	// different harmonics merge into one carrier. Zero means 24. At most
	// the band's bin count.
	MergeBins int
	// MinElevated is the number of sub-scores that must individually
	// exceed 2× at a detection (see ScoreDetail). Zero means a majority
	// (NumAlts/2 + 1); negative disables the gate. At most NumAlts.
	MinElevated int
	// X, Y is the activity pair of the alternation micro-benchmark.
	X, Y activity.Kind
	// Seed drives all randomness in the campaign.
	Seed int64
	// Parallelism bounds how many captures render concurrently across the
	// campaign's NumAlts simultaneous sweeps (they share one analyzer).
	// Zero means runtime.GOMAXPROCS(0). Results are bit-identical for any
	// setting — see specan.Config.Parallelism.
	Parallelism int
	// Faults, when non-nil, deterministically degrades the measurement
	// chain (see emsim.FaultPlan): per-capture faults are applied by the
	// campaign's analyzer, and FAltDriftPPM perturbs each sweep's
	// *generated* alternation frequency while scoring still assumes the
	// nominal ladder. Nil — the default — changes nothing; the algorithm
	// under test is never altered, only its input data.
	Faults *emsim.FaultPlan
	// MaxFFT caps the analyzer's per-segment transform size (power of
	// two ≥ 64; see specan.Config.MaxFFT). Zero keeps the analyzer
	// default (1<<17). Smaller caps split a band into more, shorter
	// captures — the knob that makes capture counts a meaningful budget
	// currency for adaptive planning, and it changes segment geometry,
	// so results are NOT bit-identical across MaxFFT values.
	MaxFFT int
	// Budget is the hard measurement budget for adaptive campaigns,
	// in captures. It must be positive when Adaptive is set and zero
	// otherwise; the planner never renders beyond it (specan.Meter).
	Budget int
	// Adaptive, when non-nil, replaces the exhaustive NumAlts-sweep
	// raster with the budgeted coarse-to-fine planner (see AdaptivePlan):
	// a coarse reconnaissance pass, a priority queue of candidate
	// windows, and score-gated refinement under Budget. Adaptive results
	// are judged by the verify corpus' recall-vs-budget gates, not by
	// bit-equality; the nil default leaves the exhaustive path — and its
	// bit-identity contract — untouched.
	Adaptive *AdaptivePlan
}

// MinScoreZero is the sentinel for Campaign.MinScore that requests a
// literal 0 detection threshold. The zero value of MinScore means "use
// the default" (30), so — as with window.Default — an explicit sentinel
// is needed to make the boundary value selectable. Any other negative
// MinScore is rejected by Validate.
const MinScoreZero = -1

// Validate reports the first configuration error in the campaign:
// inverted or empty frequency ranges, non-positive resolution, a
// malformed alternation ladder, a negative threshold that is not the
// MinScoreZero sentinel, a smoothing or merge width outside the band, or
// an elevation gate no candidate can pass. Runner.RunE calls it before
// doing any work, so misconfiguration surfaces as a returned error
// instead of a panic deep in the sweep or a silently empty result.
func (c Campaign) Validate() error {
	// Non-finite inputs pass every ordered comparison below (NaN compares
	// false against everything), so reject them explicitly before the
	// range checks — a NaN Fres would otherwise surface as an integer
	// conversion panic deep in the sweep planner. The fields are checked
	// in declaration order, so the first non-finite one is the one named.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"F1", c.F1}, {"F2", c.F2}, {"Fres", c.Fres},
		{"FAlt1", c.FAlt1}, {"FDelta", c.FDelta}, {"MinScore", c.MinScore},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: campaign %s %g is not finite", f.name, f.v)
		}
	}
	if c.Fres <= 0 {
		return fmt.Errorf("core: campaign resolution Fres must be positive, got %g Hz", c.Fres)
	}
	if c.F2 <= c.F1 {
		return fmt.Errorf("core: campaign range [%g, %g] Hz is empty or inverted", c.F1, c.F2)
	}
	if c.F1 < 0 {
		return fmt.Errorf("core: campaign start frequency %g Hz is negative", c.F1)
	}
	if c.FAlt1 <= 0 || c.FDelta <= 0 {
		return fmt.Errorf("core: campaign needs positive FAlt1/FDelta, got %g/%g", c.FAlt1, c.FDelta)
	}
	if c.NumAlts != 0 && c.NumAlts < 2 {
		return fmt.Errorf("core: campaign needs at least 2 alternation frequencies, got %d", c.NumAlts)
	}
	// Individually finite FAlt1/FDelta can still overflow the ladder top
	// (e.g. both near MaxFloat64), which would feed Inf alternation
	// frequencies into the sweeps.
	n := c.NumAlts
	if n == 0 {
		n = 5
	}
	if top := c.FAlt1 + float64(n-1)*c.FDelta; math.IsInf(top, 0) {
		return fmt.Errorf("core: alternation ladder overflows (FAlt1 %g + %d×FDelta %g)", c.FAlt1, n-1, c.FDelta)
	}
	if c.MinScore < 0 && c.MinScore != MinScoreZero {
		return fmt.Errorf("core: campaign MinScore %g is negative (use MinScoreZero for a zero threshold)", c.MinScore)
	}
	// No width past the band's bin count means anything, and detection
	// scans 2·MergeBins+1 bins of every measurement per candidate, so an
	// unbounded width can hold a worker for hours.
	bins := math.Round((c.F2 - c.F1) / c.Fres)
	for _, w := range []struct {
		name string
		v    int
	}{{"SmoothBins", c.SmoothBins}, {"MergeBins", c.MergeBins}} {
		if w.v < 0 || float64(w.v) > bins {
			return fmt.Errorf("core: campaign %s %d is outside [0, %g], the band's bin count", w.name, w.v, bins)
		}
	}
	if c.MinElevated > n {
		return fmt.Errorf("core: campaign MinElevated %d exceeds its %d measurements, so no candidate can pass", c.MinElevated, n)
	}
	if c.Averages < 0 {
		return fmt.Errorf("core: campaign Averages must be non-negative, got %d", c.Averages)
	}
	if c.MaxFFT != 0 && (c.MaxFFT < 64 || c.MaxFFT&(c.MaxFFT-1) != 0) {
		return fmt.Errorf("core: campaign MaxFFT must be a power of two >= 64, got %d", c.MaxFFT)
	}
	if c.Budget < 0 {
		return fmt.Errorf("core: campaign Budget must be positive, got %d captures", c.Budget)
	}
	if c.Adaptive != nil && c.Budget == 0 {
		return fmt.Errorf("core: adaptive campaign needs a positive capture Budget")
	}
	if c.Adaptive == nil && c.Budget > 0 {
		return fmt.Errorf("core: campaign Budget %d is only meaningful with an AdaptivePlan", c.Budget)
	}
	if c.Adaptive != nil {
		if err := c.Adaptive.validate(c); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

func (c Campaign) withDefaults() Campaign {
	if c.NumAlts == 0 {
		c.NumAlts = 5
	}
	if c.Harmonics == nil {
		c.Harmonics = DefaultHarmonics()
	}
	if c.Averages == 0 {
		c.Averages = 4
	}
	if c.MinScore == MinScoreZero {
		c.MinScore = 0
	} else if c.MinScore == 0 {
		c.MinScore = 30
	}
	if c.SmoothBins == 0 {
		c.SmoothBins = matchedSmoothBins(c.FDelta, c.Fres)
	}
	if c.MergeBins == 0 {
		c.MergeBins = 24
	}
	if c.MinElevated == 0 {
		c.MinElevated = c.NumAlts/2 + 1
	}
	if c.Adaptive != nil {
		// Resolve into a copy so the caller's plan is never mutated.
		ap := c.Adaptive.withDefaults(c)
		c.Adaptive = &ap
	}
	return c
}

// matchedSmoothBins is the default smoothing width on a grid of fres
// bins: matched smoothing must stay below the f_Δ spacing in bins, or one
// measurement's side-band bleeds into the others' bins at the same
// frequency and suppresses the score. At a coarse grid it degenerates to
// 1 (no smoothing).
func matchedSmoothBins(fdelta, fres float64) int {
	w := int(0.9 * fdelta / fres)
	if w > 15 {
		w = 15
	}
	if w%2 == 0 {
		w--
	}
	if w < 1 {
		w = 1
	}
	return w
}

// FAlts returns the campaign's alternation-frequency ladder.
func (c Campaign) FAlts() []float64 {
	n := c.NumAlts
	if n == 0 {
		n = 5
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.FAlt1 + float64(i)*c.FDelta
	}
	return out
}

// PaperCampaigns returns the three measurement campaigns of Figure 10
// with the given activity pair. The 0–4 MHz campaign starts at 100 kHz
// here: the paper's antenna (AOR LA400) rolls off below the long-wave
// band, and bins below f_alt cannot host side-bands anyway.
func PaperCampaigns(x, y activity.Kind) []Campaign {
	return []Campaign{
		{F1: 0.1e6, F2: 4e6, Fres: 50, FAlt1: 43.3e3, FDelta: 0.5e3, X: x, Y: y},
		{F1: 4e6, F2: 120e6, Fres: 500, FAlt1: 43.3e3, FDelta: 5e3, X: x, Y: y},
		{F1: 120e6, F2: 1200e6, Fres: 500, FAlt1: 1.8e6, FDelta: 100e3, X: x, Y: y},
	}
}

// Measurement is one recorded spectrum of a campaign.
type Measurement struct {
	FAlt     float64
	Spectrum *spectral.Spectrum
}

// Detection is one carrier FASE identified.
type Detection struct {
	// Freq is the computed carrier frequency.
	Freq float64
	// Bin is Freq's index on the campaign's score grid (Result.Grid),
	// letting provenance consumers read the per-harmonic traces behind
	// this detection without re-deriving the bin.
	Bin int
	// Score is the strongest heuristic value across harmonics.
	Score float64
	// BestHarmonic is the harmonic achieving Score.
	BestHarmonic int
	// Harmonics lists every harmonic whose score exceeded the threshold
	// at this carrier (redundant confirmations, §2.3).
	Harmonics []int
	// MagnitudeDBm is the carrier's spectral magnitude (max across the
	// campaign's measurements at Freq).
	MagnitudeDBm float64
	// DepthDB quantifies modulation strength: first-harmonic side-band
	// power relative to the carrier, in dB (more negative = shallower).
	DepthDB float64
}

// Result is a completed campaign.
type Result struct {
	Campaign     Campaign
	Measurements []Measurement
	// Scores maps harmonic → heuristic trace over the spectrum grid.
	Scores map[int][]float64
	// Elevated maps harmonic → per-bin count of sub-scores above 2×
	// (ScoreDetail), the ghost-rejection gate.
	Elevated map[int][]int
	// Detections, sorted by frequency.
	Detections []Detection
	// SimulatedSeconds is the observation time the modeled spectrum
	// analyzer spent across all sweeps (NumAlts × Analyzer.TotalDuration)
	// — the paper's scan time, as opposed to the simulation's wall time.
	SimulatedSeconds float64
	// Captures is the number of analyzer captures the campaign rendered —
	// the measurement cost the adaptive planner budgets. The exhaustive
	// raster spends NumAlts × segments × Averages.
	Captures int64
	// Adaptive carries the planner's decision record on adaptive
	// campaigns (budget spend, per-window outcomes); nil on the
	// exhaustive path.
	Adaptive *obs.AdaptiveStats
}

// Grid returns the frequency of score bin k.
func (r *Result) Grid(k int) float64 {
	return r.Measurements[0].Spectrum.Freq(k)
}

// Runner executes campaigns against a scene.
type Runner struct {
	Scene *emsim.Scene
	// Obs, when non-nil, instruments the campaign: stage wall/CPU
	// timings, per-capture render/FFT time, planner and cache
	// statistics, and detection provenance, all folded into a run
	// manifest by RunE (via obs.Run.Finish). Give it a journal and set
	// Trace to lay out campaign → stage → sweep → capture spans with
	// obs.Run.WriteChromeTrace. Instrumentation never changes results
	// (enforced by the equivalence tests).
	Obs *obs.Run
}

// Run executes the campaign: one sweep per alternation frequency with the
// micro-benchmark generating that alternation, heuristic scoring for
// every harmonic, and peak detection to produce carrier detections. It
// panics on a misconfigured campaign; RunE is the error-returning form.
func (r *Runner) Run(c Campaign) *Result {
	res, err := r.RunE(c)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE is Run with configuration errors returned instead of panicking:
// the campaign is checked with Validate (and the Runner for a Scene)
// before any work starts. When Runner.Obs is set, the four pipeline
// stages — sweeps, smooth, score, detect — are timed and journaled, and the
// run's manifest is finalized with the resolved configuration and per-
// detection provenance before returning.
func (r *Runner) RunE(c Campaign) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if r.Scene == nil {
		return nil, fmt.Errorf("core: Runner needs a Scene")
	}
	c = c.withDefaults()
	if c.Adaptive != nil {
		return r.runAdaptive(c)
	}
	// The exhaustive path runs through the shard API (shard.go): the
	// ladder decomposes into per-sweep shards that render concurrently on
	// one shared analyzer here, and on a distributed worker fleet in
	// internal/service — the two paths execute the same code, so they are
	// bit-identical by construction.
	p := &ShardPlan{Campaign: c, FAlts: c.FAlts()}
	run := r.Obs
	an := specan.New(p.AnalyzerConfig(run))
	p.Begin(an, run)
	// The per-f_alt measurements are independent observations of the same
	// noise realization: every sweep uses the campaign seed, so they share
	// measurement noise and differ only in their activity trace. Shared
	// noise cancels in the cross-measurement scoring (common-mode), and it
	// is what lets the static render cache serve all NumAlts sweeps from
	// one build. The sweeps run concurrently; results are written by
	// index, keeping the output identical to a sequential run.
	ms := make([]Measurement, len(p.FAlts))
	sweeps := run.Begin("sweeps")
	par.Do(len(p.FAlts), func(i int) {
		ms[i] = r.RenderShard(nil, an, p, i, run, obs.Span{})
	})
	sweeps.End()
	return r.ReduceShards(p, ms, run, obs.Span{})
}

// emitDetections journals the campaign's merged detections on the
// coordinator track: one detection event per carrier followed by its
// per-harmonic evidence — the journal-stream analogue of the manifest's
// provenance records. Detections are frequency-sorted, so the emission
// order is deterministic.
func emitDetections(run *obs.Run, res *Result, c Campaign) {
	ct := run.Track(0)
	if ct == nil {
		return
	}
	for _, d := range res.Detections {
		ct.Emit(obs.Event{Kind: obs.EventDetection,
			FreqHz: d.Freq, Score: d.Score, Harmonic: d.BestHarmonic})
		for _, h := range c.Harmonics {
			ct.Emit(obs.Event{Kind: obs.EventDetectionHarmonic,
				FreqHz: d.Freq, Harmonic: h,
				Score: res.Scores[h][d.Bin], Elevated: res.Elevated[h][d.Bin]})
		}
	}
}

// campaignConfig is the resolved campaign configuration as recorded in
// the run manifest: every defaulted field filled in, activity kinds as
// their names so the JSON is self-describing.
type campaignConfig struct {
	F1          float64 `json:"f1_hz"`
	F2          float64 `json:"f2_hz"`
	Fres        float64 `json:"fres_hz"`
	FAlt1       float64 `json:"falt1_hz"`
	FDelta      float64 `json:"fdelta_hz"`
	NumAlts     int     `json:"num_alts"`
	Harmonics   []int   `json:"harmonics"`
	Averages    int     `json:"averages"`
	MinScore    float64 `json:"min_score"`
	SmoothBins  int     `json:"smooth_bins"`
	MergeBins   int     `json:"merge_bins"`
	MinElevated int     `json:"min_elevated"`
	X           string  `json:"x"`
	Y           string  `json:"y"`
	Seed        int64   `json:"seed"`
	Parallelism int     `json:"parallelism"`
	// FaultsInjected flags runs whose measurement chain was degraded by a
	// fault plan; their timings and detections are not comparable to
	// clean runs.
	FaultsInjected bool `json:"faults_injected"`
	// MaxFFT is the analyzer's per-segment transform cap (0 = default).
	MaxFFT int `json:"max_fft,omitempty"`
	// Adaptive/Budget/ReconFres echo the adaptive planner's resolved
	// configuration; all zero on exhaustive campaigns.
	Adaptive    bool    `json:"adaptive,omitempty"`
	Budget      int     `json:"budget,omitempty"`
	ReconFresHz float64 `json:"recon_fres_hz,omitempty"`
}

// manifestConfig converts a defaults-resolved campaign into its manifest
// record.
func manifestConfig(c Campaign) campaignConfig {
	cc := campaignConfig{
		F1: c.F1, F2: c.F2, Fres: c.Fres,
		FAlt1: c.FAlt1, FDelta: c.FDelta, NumAlts: c.NumAlts,
		Harmonics: c.Harmonics, Averages: c.Averages,
		MinScore: c.MinScore, SmoothBins: c.SmoothBins,
		MergeBins: c.MergeBins, MinElevated: c.MinElevated,
		X: c.X.String(), Y: c.Y.String(),
		Seed: c.Seed, Parallelism: c.Parallelism,
		FaultsInjected: c.Faults != nil,
		MaxFFT:         c.MaxFFT,
		Adaptive:       c.Adaptive != nil,
		Budget:         c.Budget,
	}
	if c.Adaptive != nil {
		cc.ReconFresHz = c.Adaptive.ReconFres
	}
	return cc
}

// provenance builds the manifest's detection records: for each detection,
// every harmonic's heuristic score and elevated count at the detection
// bin — the full evidence behind "why did this fire".
func provenance(res *Result, c Campaign) []obs.DetectionRecord {
	recs := make([]obs.DetectionRecord, 0, len(res.Detections))
	for _, d := range res.Detections {
		subs := make([]obs.HarmonicScore, 0, len(c.Harmonics))
		for _, h := range c.Harmonics {
			subs = append(subs, obs.HarmonicScore{
				Harmonic: h,
				Score:    res.Scores[h][d.Bin],
				Elevated: res.Elevated[h][d.Bin],
			})
		}
		recs = append(recs, obs.DetectionRecord{
			FreqHz: d.Freq, Score: d.Score,
			BestHarmonic: d.BestHarmonic, Harmonics: d.Harmonics,
			MagnitudeDBm: d.MagnitudeDBm, DepthDB: d.DepthDB,
			SubScores: subs,
		})
	}
	return recs
}

// staticStrongBins marks bins occupied by a strong line in *every*
// measurement. Genuine side-bands move with f_alt, so their
// min-across-measurements stays at the noise floor; a static carrier or
// interferer keeps all measurements high. Probes that land on such bins
// produce sub-score fluctuations from the line's realization-to-
// realization shape variance — the flank-ghost mechanism — rather than
// evidence of modulation.
func staticStrongBins(smoothed []*spectral.Spectrum, marginDB float64) []bool {
	bins := smoothed[0].Bins()
	out := make([]bool, bins)
	floor := smoothed[0].MedianPower()
	thresh := floor * math.Pow(10, marginDB/10)
	for k := 0; k < bins; k++ {
		minv := smoothed[0].PmW[k]
		for _, s := range smoothed[1:] {
			if s.PmW[k] < minv {
				minv = s.PmW[k]
			}
		}
		out[k] = minv > thresh
	}
	return out
}

// detect converts heuristic traces into merged carrier detections.
func detect(res *Result, spectra, smoothed []*spectral.Spectrum, falts []float64) []Detection {
	c := res.Campaign
	static := staticStrongBins(smoothed, 12)
	bins := len(static)
	type cand struct {
		bin      int
		score    float64
		harmonic int
	}
	var cands []cand
	for _, h := range c.Harmonics {
		trace := res.Scores[h]
		elev := res.Elevated[h]
		shifts := make([]int, len(falts))
		for i, fa := range falts {
			shifts[i] = int(math.Round(float64(h) * fa / c.Fres))
		}
		for _, p := range peaks.Find(trace, peaks.Options{
			MinValue:    c.MinScore,
			MinDistance: c.MergeBins,
		}) {
			if c.MinElevated > 0 && maxIntAround(elev, p.Index, 2) < c.MinElevated {
				continue // ghost: only a minority of sub-scores elevated
			}
			// Flank-ghost gate: if a majority of this candidate's probe
			// positions sit on static strong lines, the score came from
			// line-shape variance, not from moving side-bands.
			onStatic := 0
			for _, sh := range shifts {
				m := p.Index + sh
				hit := false
				for k := m - 2; k <= m+2; k++ {
					if k >= 0 && k < bins && static[k] {
						hit = true
						break
					}
				}
				if hit {
					onStatic++
				}
			}
			if c.MinElevated > 0 && onStatic >= c.MinElevated {
				continue
			}
			cands = append(cands, cand{bin: p.Index, score: p.Value, harmonic: h})
		}
	}
	// Merge candidates within c.MergeBins of each other; the
	// highest score wins, other harmonics become confirmations.
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	var merged []Detection
	taken := make([]int, 0, len(cands))
	for _, cd := range cands {
		idx := -1
		for mi, tb := range taken {
			if abs(cd.bin-tb) <= c.MergeBins {
				idx = mi
				break
			}
		}
		if idx >= 0 {
			if !containsInt(merged[idx].Harmonics, cd.harmonic) {
				merged[idx].Harmonics = append(merged[idx].Harmonics, cd.harmonic)
			}
			continue
		}
		d := Detection{
			Freq:         res.Grid(cd.bin),
			Bin:          cd.bin,
			Score:        cd.score,
			BestHarmonic: cd.harmonic,
			Harmonics:    []int{cd.harmonic},
		}
		d.MagnitudeDBm, d.DepthDB = measureCarrier(spectra, falts, cd.bin, c.MergeBins)
		merged = append(merged, d)
		taken = append(taken, cd.bin)
	}
	merged = filterArtifacts(merged, c, falts)
	sort.Slice(merged, func(a, b int) bool { return merged[a].Freq < merged[b].Freq })
	return merged
}

// maxDepthDB rejects detections whose "side-bands" dwarf their carrier.
// Amplitude modulation cannot put more power in a side-band than in the
// carrier (full-depth AM puts half); a large positive depth means the
// heuristic latched onto the flank of a *different* strong line at an
// falt offset. +6 dB leaves room for nearly-full-depth modulation of weak
// lines (memory refresh) measured against noisy carrier bins.
const maxDepthDB = 6

// filterArtifacts drops two classes of automation artifacts the paper's
// visual inspection would discard:
//
//  1. Detections seen only by a single higher harmonic (|h| >= 2) at
//     modest score. For |h| >= 2 the probe positions h·falt_i disperse by
//     h·f_Δ, so a static narrow line whose shape varies slightly between
//     measurements can light up one sub-score; genuine carriers are
//     corroborated by a second harmonic or by an overwhelming score.
//  2. Ghosts at m·falt offsets from a much stronger detection: around a
//     strong carrier, the shifted probes sample the carrier's own flanks,
//     whose realization-to-realization variation can score above
//     threshold. A detection ≥20× weaker than a neighbour at an m·falt
//     spacing is attributed to that neighbour.
//
// merged must be sorted by descending score (detect emits it that way).
func filterArtifacts(merged []Detection, c Campaign, falts []float64) []Detection {
	const corroboration = 10 // score multiple excusing a lone high harmonic
	const ghostRatio = 20    // score multiple for ghost attribution
	maxH := 1
	for _, h := range c.Harmonics {
		if abs(h) > maxH {
			maxH = abs(h)
		}
	}
	faltMin, faltMax := falts[0], falts[0]
	for _, f := range falts {
		faltMin = math.Min(faltMin, f)
		faltMax = math.Max(faltMax, f)
	}
	slack := float64(c.MergeBins) * c.Fres
	var out []Detection
	for _, d := range merged {
		if d.DepthDB > maxDepthDB {
			continue
		}
		if abs(d.BestHarmonic) >= 2 && d.Score < corroboration*c.MinScore {
			// Probes of higher harmonics disperse, so a lone |h| >= 2 hit
			// needs a first-harmonic confirmation unless overwhelming.
			hasFirst := false
			for _, h := range d.Harmonics {
				if h == 1 || h == -1 {
					hasFirst = true
					break
				}
			}
			if !hasFirst {
				continue
			}
		}
		ghost := false
		for _, strong := range out {
			if strong.Score < ghostRatio*d.Score {
				continue
			}
			// A weak detection harmonically related to the strong one is
			// a genuine comb member (e.g. the 132 kHz refresh fundamental
			// below its 264 kHz harmonic), even if their spacing happens
			// to coincide with a multiple of f_alt.
			if harmonicallyRelated(d.Freq, strong.Freq, 0.004) {
				continue
			}
			df := math.Abs(d.Freq - strong.Freq)
			for m := 1; m <= maxH; m++ {
				if df >= float64(m)*faltMin-slack && df <= float64(m)*faltMax+slack {
					ghost = true
					break
				}
			}
			if ghost {
				break
			}
		}
		if !ghost {
			out = append(out, d)
		}
	}
	return out
}

// measureCarrier reads the carrier magnitude and the first-harmonic
// side-band depth at the detected bin.
func measureCarrier(spectra []*spectral.Spectrum, falts []float64, bin, mergeBins int) (magDBm, depthDB float64) {
	base := spectra[0]
	// Carrier magnitude: the strongest bin within the merge radius across
	// all measurements (the carrier is present in every measurement).
	var carrier float64
	for _, s := range spectra {
		for k := bin - mergeBins; k <= bin+mergeBins; k++ {
			if k >= 0 && k < s.Bins() && s.PmW[k] > carrier {
				carrier = s.PmW[k]
			}
		}
	}
	// Side-band power: each measurement's bins at ±falt_i, averaged.
	var side float64
	var count int
	// Side-band search window: ±8 bins tolerates the jitter-spread of the
	// side-band line around its nominal ±falt offset.
	const sideWin = 8
	for i, s := range spectra {
		shift := int(math.Round(falts[i] / base.Fres))
		for _, k := range []int{bin + shift, bin - shift} {
			if k >= 0 && k < s.Bins() {
				if j := s.MaxIn(s.Freq(k)-sideWin*base.Fres, s.Freq(k)+sideWin*base.Fres); j >= 0 {
					side += s.PmW[j]
					count++
				}
			}
		}
	}
	if count > 0 {
		side /= float64(count)
	}
	magDBm = spectral.DBmFromMw(carrier)
	if carrier > 0 && side > 0 {
		depthDB = 10 * math.Log10(side/carrier)
	} else {
		depthDB = math.Inf(-1)
	}
	return magDBm, depthDB
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// harmonicallyRelated reports whether one frequency is an integer
// multiple of the other within a relative tolerance.
func harmonicallyRelated(a, b float64, tol float64) bool {
	if a > b {
		a, b = b, a
	}
	if a <= 0 {
		return false
	}
	ord := math.Round(b / a)
	return ord >= 1 && math.Abs(b-ord*a) <= tol*b
}

// maxIntAround returns the maximum of s within radius r of index i.
func maxIntAround(s []int, i, r int) int {
	best := 0
	for k := i - r; k <= i+r; k++ {
		if k >= 0 && k < len(s) && s[k] > best {
			best = s[k]
		}
	}
	return best
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

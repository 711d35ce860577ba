package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fase/internal/activity"
	"fase/internal/dsp/peaks"
	"fase/internal/dsp/spectral"
	"fase/internal/obs"
	"fase/internal/par"
	"fase/internal/specan"
)

// Adaptive-planner process counters; per-run detail goes into the
// manifest's AdaptiveStats.
var (
	adaptiveCampaignsTotal = obs.Default.Counter(obs.MetricAdaptiveCampaigns)
	adaptiveRefinedTotal   = obs.Default.Counter(obs.MetricAdaptiveWindowsRefined)
	adaptiveAbandonedTotal = obs.Default.Counter(obs.MetricAdaptiveWindowsAbandoned)
	adaptiveSkippedTotal   = obs.Default.Counter(obs.MetricAdaptiveWindowsSkipped)
)

// AdaptivePlan configures the budgeted coarse-to-fine campaign planner.
//
// The exhaustive campaign sweeps the full band NumAlts times at Fres —
// most of that budget is spent proving the absence of carriers in empty
// spectrum. The planner instead spends a small reconnaissance pass at a
// coarse resolution over the whole band, scores it with the same
// ghost-pair heuristic the exhaustive path uses (side-bands that move
// with f_alt), and then re-sweeps only the highest-priority candidate
// windows at full resolution, under a hard capture budget
// (Campaign.Budget, enforced by specan.Meter):
//
//  1. Recon: reconAlts sweeps of [F1, F2] at ReconFres with
//     reconAverages. Peaks of the recon heuristic above half the
//     on-track score (see onTrackScore) seed candidate windows,
//     prioritized by score.
//  2. Probe: each window is first re-swept at full Fres for only the
//     recon ladder entries. If the probe score falls below
//     abandonRatio × the on-track score, the window is abandoned
//     having cost only its probe.
//  3. Refine: surviving windows get the remaining NumAlts − reconAlts
//     sweeps; all NumAlts full-resolution measurements then run the
//     unmodified scoring and detection gates.
//
// Every sweep is priced (specan.Analyzer.SweepCaptures) and reserved on
// the budget before it starts, all-or-nothing, so the planner degrades
// by skipping whole windows — never by producing half-measured spectra.
// Recon and probe reuse the ladder's extreme entries (indices 0 and
// NumAlts−1), whose f_alt spacing stays resolvable at the coarse recon
// bin width. The recon and probe parameters are constants; only the
// recon resolution is configurable.
//
// Adaptive results are judged by the verify corpus' recall-vs-budget
// gates; they are NOT bit-identical to the exhaustive path (different
// segment geometry and measurement set by design).
type AdaptivePlan struct {
	// ReconFres is the reconnaissance resolution bandwidth, Hz. It must
	// be at least the campaign Fres; zero means 8×Fres — coarse enough
	// that the recon sweep costs a few percent of the exhaustive
	// campaign, fine enough that side-bands at the ladder's extreme
	// f_alt spacing still land in distinct bins.
	ReconFres float64
}

// The planner's fixed recon and probe parameters.
const (
	// reconAlts is how many ladder entries recon (and each window's
	// probe) measures, spread across the ladder: the heuristic needs a
	// pair to difference, and Validate guarantees NumAlts ≥ 2.
	reconAlts = 2
	// reconAverages is the recon sweeps' traces-per-segment average,
	// half the exhaustive default: recon only ranks.
	reconAverages = 2
	// refineAverages is the refinement sweeps' average count — cheaper
	// per window than the exhaustive campaign's 4, and enough because
	// refinement only scores candidate windows the recon pass already
	// ranked: the NumAlts-measurement score product and its elevation
	// gates supply the corroboration that trace averaging supplies in a
	// cold full-band sweep.
	refineAverages = 1
	// abandonRatio scales the probe abandonment threshold: a window
	// probing below half the on-track score is abandoned.
	abandonRatio = 0.5
)

// validate reports the first configuration error in the plan. It runs
// before defaults resolve, so a zero ReconFres is legal.
func (p *AdaptivePlan) validate(c Campaign) error {
	if math.IsNaN(p.ReconFres) || math.IsInf(p.ReconFres, 0) {
		return fmt.Errorf("core: adaptive ReconFres %g is not finite", p.ReconFres)
	}
	if p.ReconFres != 0 && p.ReconFres < c.Fres {
		return fmt.Errorf("core: adaptive ReconFres %g Hz is finer than the campaign resolution %g Hz", p.ReconFres, c.Fres)
	}
	return nil
}

// withDefaults resolves the plan against a defaults-resolved campaign.
func (p AdaptivePlan) withDefaults(c Campaign) AdaptivePlan {
	if p.ReconFres == 0 {
		p.ReconFres = 8 * c.Fres
	}
	return p
}

// onTrackScore is the score a carrier on track for MinScore over the
// full ladder shows after its reconAlts recon or probe measurements
// (the product scales per measurement): MinScore^(reconAlts/NumAlts).
// Half of it is the recon-peak threshold that seeds a candidate window;
// abandonRatio times it, allowing for probe noise, is the probe score
// below which a window is abandoned.
func onTrackScore(c Campaign) float64 {
	return math.Pow(c.MinScore, reconAlts/float64(c.NumAlts))
}

// spreadIndices returns k ladder indices spread across [0, n), always
// including both extremes. Recon measures the ladder's extreme entries
// because their f_alt spacing is the widest — the pair most likely to
// stay resolvable at the coarse recon bin width.
func spreadIndices(k, n int) []int {
	idx := make([]int, k)
	if k == 1 {
		return idx
	}
	for j := range idx {
		idx[j] = int(math.Round(float64(j) * float64(n-1) / float64(k-1)))
	}
	return idx
}

// complementIndices returns [0, n) minus idx, ascending.
func complementIndices(idx []int, n int) []int {
	in := make([]bool, n)
	for _, i := range idx {
		in[i] = true
	}
	out := make([]int, 0, n-len(idx))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// refineWindow is one candidate band segment queued for refinement.
type refineWindow struct {
	idx      int // identity for callback state, assigned at build time
	f1, f2   float64
	priority float64 // recon heuristic peak score (queue order)
	// probeCost / fullCost price the window's probe sweeps and its
	// remaining completion sweeps, in captures.
	probeCost, fullCost int64
}

// windowOutcome records what the scheduler decided for one window.
type windowOutcome struct {
	window     refineWindow
	outcome    string // obs.WindowRefined / Abandoned / Partial / Skipped
	captures   int64
	probeScore float64
	detections int
}

// scheduleRefinement walks windows in priority order under the budget
// meter. Each window reserves its probe cost before probing
// (all-or-nothing; failure → skipped at zero cost), abandons if the
// probe score falls below threshold, reserves its completion cost
// before refining (failure → partial, costing only the probe), and
// otherwise refines. The probe and refine callbacks do the sweeping and
// scoring; the scheduler itself is pure admission control, which is
// what the planner fuzz harness exercises with fake callbacks. A nil
// meter is an unlimited budget. Outcomes are returned in processing
// (priority-descending) order.
func scheduleRefinement(windows []refineWindow, meter *specan.Meter, threshold float64,
	probe func(refineWindow) float64, refine func(refineWindow, float64) int) []windowOutcome {
	ws := append([]refineWindow(nil), windows...)
	sort.SliceStable(ws, func(a, b int) bool {
		if ws[a].priority != ws[b].priority {
			return ws[a].priority > ws[b].priority
		}
		return ws[a].f1 < ws[b].f1
	})
	out := make([]windowOutcome, 0, len(ws))
	for _, w := range ws {
		o := windowOutcome{window: w}
		if !meter.Reserve(w.probeCost) {
			o.outcome = obs.WindowSkipped
			out = append(out, o)
			continue
		}
		o.captures = w.probeCost
		o.probeScore = probe(w)
		switch {
		case o.probeScore < threshold:
			o.outcome = obs.WindowAbandoned
		case !meter.Reserve(w.fullCost):
			o.outcome = obs.WindowPartial
		default:
			o.captures += w.fullCost
			o.detections = refine(w, o.probeScore)
			o.outcome = obs.WindowRefined
		}
		out = append(out, o)
	}
	return out
}

// sweepBand runs one sweep per ladder index in idx over [f1, f2] on an,
// returning spectra ordered like idx. Each sweep uses its global ladder
// index and that index's trace from traces (see sweepLadder), so a
// refinement sweep at falts[i] sees the same alternation realization the
// exhaustive campaign's sweep i would. The planner processes windows
// sequentially, so each journal track sees its sweeps in a deterministic
// order even though the sweeps of one band run concurrently.
func (r *Runner) sweepBand(an *specan.Analyzer, c Campaign, f1, f2 float64, falts []float64, idx []int, traces *ladderTraces) []*spectral.Spectrum {
	out := make([]*spectral.Spectrum, len(idx))
	par.Do(len(idx), func(j int) {
		i := idx[j]
		tr := traces.get(i, traceSeconds(an, f1, f2))
		out[j] = r.sweepLadder(nil, an, c, f1, f2, falts[i], i, tr, r.Obs)
	})
	return out
}

// ladderTraces holds an adaptive campaign's alternation trace per ladder
// index, so that an index's recon, probe and refine sweeps share one
// generation instead of one per window. A trace lasts at least first
// seconds: the recon sweep's length (or a one-segment window's) during
// recon, raised to the widest window's once the windows are built, so a
// recon index regenerates at most once and a complement index never. A
// sweep that outlasts its trace regenerates it at the sweep's own
// length. Every trace is exact, since any trace of index i that outlasts
// a sweep renders it the same (ladderTrace). Each index has its own
// lock: a band's sweeps, one per index, run concurrently; first changes
// only between passes.
type ladderTraces struct {
	c     Campaign
	falts []float64
	first float64
	slots []traceSlot
}

// traceSlot is one index's trace and the seconds it lasts.
type traceSlot struct {
	mu      sync.Mutex
	tr      *activity.Trace
	seconds float64
}

// get returns ladder index i's trace, lasting at least seconds.
func (lt *ladderTraces) get(i int, seconds float64) *activity.Trace {
	sl := &lt.slots[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.tr == nil || sl.seconds < seconds {
		sl.seconds = max(seconds, lt.first)
		sl.tr = ladderTrace(lt.c, lt.falts[i], i, sl.seconds)
	}
	return sl.tr
}

// priorityHarmonics is the low-order subset (|h| ≤ 2) used to rank
// recon peaks: low harmonics carry most side-band power and their probe
// shifts disperse least, so they dominate genuine recon evidence.
func priorityHarmonics(hs []int) []int {
	var lo []int
	for _, h := range hs {
		if abs(h) <= 2 {
			lo = append(lo, h)
		}
	}
	if len(lo) > 0 {
		return lo
	}
	return hs
}

// probeHarmonics is the first-harmonic subset a window probe scores —
// ±1 carries the dominant side-band pair.
func probeHarmonics(hs []int) []int {
	var first []int
	for _, h := range hs {
		if h == 1 || h == -1 {
			first = append(first, h)
		}
	}
	if len(first) > 0 {
		return first
	}
	return hs
}

// windowPad is the half-width a refinement window extends around its
// candidate carrier: the ladder's largest f_alt (so every first-
// harmonic side-band probe stays in span — out-of-span probes are
// neutral and would starve the MinElevated gate) plus the merge radius
// and the side-band search window in Hz.
func windowPad(c Campaign, falts []float64) float64 {
	faltMax := falts[0]
	for _, f := range falts {
		faltMax = math.Max(faltMax, f)
	}
	return faltMax + float64(c.MergeBins+8)*c.Fres
}

// buildWindows converts recon candidate peaks into a disjoint,
// pad-extended set of refinement windows: one interval per candidate,
// clamped to the campaign band, overlaps merged (priority = max).
func buildWindows(cands []reconCandidate, c Campaign, falts []float64) []refineWindow {
	if len(cands) == 0 {
		return nil
	}
	pad := windowPad(c, falts)
	type iv struct {
		f1, f2, pri float64
	}
	ivs := make([]iv, len(cands))
	for i, cd := range cands {
		ivs[i] = iv{f1: math.Max(c.F1, cd.freq-pad), f2: math.Min(c.F2, cd.freq+pad), pri: cd.score}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].f1 < ivs[b].f1 })
	merged := []iv{ivs[0]}
	for _, v := range ivs[1:] {
		last := &merged[len(merged)-1]
		if v.f1 <= last.f2 {
			last.f2 = math.Max(last.f2, v.f2)
			last.pri = math.Max(last.pri, v.pri)
			continue
		}
		merged = append(merged, v)
	}
	out := make([]refineWindow, len(merged))
	for i, v := range merged {
		out[i] = refineWindow{idx: i, f1: v.f1, f2: v.f2, priority: v.pri}
	}
	return out
}

// reconCandidate is one recon heuristic peak.
type reconCandidate struct {
	freq  float64
	score float64
}

// reconCandidates extracts candidate carriers from the recon score
// traces: per-bin max over the low-order harmonics, peak-found with the
// merge radius rescaled to recon bins. A bin only counts for a harmonic
// when every recon sub-score is elevated — with only reconAlts
// measurements, a product can be carried by a single chi-square tail
// event, and requiring full agreement is what makes a recon peak
// ghost-pair evidence rather than noise.
func reconCandidates(scores map[int][]float64, elevated map[int][]int, hs []int, recon *spectral.Spectrum, c Campaign, ap AdaptivePlan) []reconCandidate {
	bins := recon.Bins()
	best := make([]float64, bins)
	for _, h := range priorityHarmonics(hs) {
		elev := elevated[h]
		for k, v := range scores[h] {
			if elev[k] >= reconAlts && v > best[k] {
				best[k] = v
			}
		}
	}
	mergeRecon := int(float64(c.MergeBins) * c.Fres / ap.ReconFres)
	if mergeRecon < 1 {
		mergeRecon = 1
	}
	var out []reconCandidate
	for _, p := range peaks.Find(best, peaks.Options{
		MinValue:    0.5 * onTrackScore(c),
		MinDistance: mergeRecon,
	}) {
		out = append(out, reconCandidate{freq: recon.Freq(p.Index), score: p.Value})
	}
	return out
}

// runAdaptive executes a defaults-resolved adaptive campaign: recon →
// prioritized, budget-gated refinement → global detection merge. See
// AdaptivePlan for the algorithm. The Result mirrors the exhaustive
// shape with the recon pass as its Measurements/Scores (full-band
// context at coarse resolution); detections come from the refined
// full-resolution windows, with bins mapped onto the recon grid.
func (r *Runner) runAdaptive(c Campaign) (*Result, error) {
	ap := *c.Adaptive
	campaignsTotal.Inc()
	adaptiveCampaignsTotal.Inc()
	run := r.Obs
	meter := specan.NewMeter(int64(c.Budget))
	falts := c.FAlts()
	run.SetTotals(int64(c.Budget), 0, 0)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignStart, Name: "adaptive",
		F1Hz: c.F1, F2Hz: c.F2, Total: int64(c.Budget)})
	if run != nil {
		// Reservations happen sequentially on the planner goroutine, so
		// this hook emits a deterministic budget-event sequence on the
		// coordinator track.
		meter.OnReserve = func(n int64, granted bool) {
			outcome := obs.ReserveGranted
			if !granted {
				outcome = obs.ReserveDenied
			}
			run.Emit(run.Track(0), obs.Event{Kind: obs.EventBudgetReserve,
				Captures: n, Outcome: outcome,
				Reserved: meter.Reserved(), Cap: meter.Cap()})
		}
	}
	// Recon: coarse full-band pass, scored like the exhaustive campaign
	// but over the recon ladder subset. The stage also builds the
	// analyzers.
	recon := run.Begin("recon")

	// The recon and refine analyzers share one render cache: each
	// geometry's plan is built once, one set of buffers serves both
	// passes, and since every sweep shares the campaign seed, a pass's
	// captures replay each other's static layers.
	cache := specan.NewStaticCache()
	anCfg := func(fres float64, avg int, m *specan.Meter) specan.Config {
		return specan.Config{Fres: fres, Averages: avg, Parallelism: c.Parallelism,
			MaxFFT: c.MaxFFT, Faults: c.Faults, Meter: m,
			Statics: cache, Obs: run}
	}
	// Price the equivalent exhaustive campaign (same geometry, no meter)
	// for the manifest's savings ratio.
	exhaustive := int64(len(falts)) * specan.New(anCfg(c.Fres, c.Averages, nil)).SweepCaptures(c.F1, c.F2)
	reconAn := specan.New(anCfg(ap.ReconFres, reconAverages, meter))
	refineAn := specan.New(anCfg(c.Fres, refineAverages, meter))

	reconIdx := spreadIndices(reconAlts, c.NumAlts)
	reconFAlts := make([]float64, len(reconIdx))
	for j, i := range reconIdx {
		reconFAlts[j] = falts[i]
	}
	res := &Result{Campaign: c}
	reconCost := int64(len(reconIdx)) * reconAn.SweepCaptures(c.F1, c.F2)
	if !meter.Reserve(reconCost) {
		recon.End()
		return nil, fmt.Errorf("core: adaptive Budget %d cannot fund the %d-capture recon pass", c.Budget, reconCost)
	}
	// An index's first trace serves its recon sweep and any one-segment
	// window (a one-bin window is one segment).
	traces := &ladderTraces{c: c, falts: falts, slots: make([]traceSlot, len(falts)),
		first: max(traceSeconds(reconAn, c.F1, c.F2), traceSeconds(refineAn, c.F1, c.F1+c.Fres))}
	reconSpectra := r.sweepBand(reconAn, c, c.F1, c.F2, falts, reconIdx, traces)
	res.Measurements = make([]Measurement, len(reconSpectra))
	for j, sp := range reconSpectra {
		res.Measurements[j] = Measurement{FAlt: reconFAlts[j], Spectrum: sp}
	}
	reconSmoothed := smoothPooled(reconSpectra, matchedSmoothBins(c.FDelta, ap.ReconFres))
	// All campaign harmonics are scored on the recon grid — cheap at
	// coarse resolution, and it gives every final detection full
	// per-harmonic provenance on the Result's score maps.
	scoreHarmonics(res, reconSmoothed, reconFAlts)
	releaseSmoothed(reconSmoothed)
	cands := reconCandidates(res.Scores, res.Elevated, c.Harmonics, reconSpectra[0], c, ap)
	recon.End()
	reconUsed := meter.Used()

	// Refine: probe-gated full-resolution re-sweeps of the candidate
	// windows, highest recon priority first, under the budget.
	refineStage := run.Begin("refine")
	windows := buildWindows(cands, c, falts)
	compIdx := complementIndices(reconIdx, c.NumAlts)
	for i := range windows {
		perSweep := refineAn.SweepCaptures(windows[i].f1, windows[i].f2)
		windows[i].probeCost = int64(len(reconIdx)) * perSweep
		windows[i].fullCost = int64(len(compIdx)) * perSweep
		// From here on every trace lasts the widest window: a complement
		// index's first trace serves all its windows, and a recon index
		// regenerates at most once.
		traces.first = max(traces.first, traceSeconds(refineAn, windows[i].f1, windows[i].f2))
	}
	probeStash := make([][]*spectral.Spectrum, len(windows))
	windowDets := make([][]Detection, len(windows))
	// Windows read each harmonic's scores before scoring the next and
	// store none, so one pair of arrays serves every probe and refinement.
	var pair harmonicPair
	probe := func(w refineWindow) float64 {
		sp := r.sweepBand(refineAn, c, w.f1, w.f2, falts, reconIdx, traces)
		probeStash[w.idx] = sp
		sm := smoothPooled(sp, c.SmoothBins)
		t := newSubScores(sm)
		best := 0.0
		for _, h := range probeHarmonics(c.Harmonics) {
			trace, _ := pair.score(t, reconFAlts, h)
			for _, v := range trace {
				if v > best {
					best = v
				}
			}
		}
		t.release()
		releaseSmoothed(sm)
		r.Obs.Track(0).Emit(obs.Event{Kind: obs.EventWindowProbe,
			F1Hz: w.f1, F2Hz: w.f2, Priority: w.priority, Score: best})
		return best
	}
	refine := func(w refineWindow, _ float64) int {
		comp := r.sweepBand(refineAn, c, w.f1, w.f2, falts, compIdx, traces)
		spectra := make([]*spectral.Spectrum, c.NumAlts)
		for j, i := range reconIdx {
			spectra[i] = probeStash[w.idx][j]
		}
		for j, i := range compIdx {
			spectra[i] = comp[j]
		}
		probeStash[w.idx] = nil
		smoothed := smoothPooled(spectra, c.SmoothBins)
		t := newSubScores(smoothed)
		dets := detect(c, spectra, smoothed, falts, func(h int) ([]float64, []int) {
			return pair.score(t, falts, h)
		})
		t.release()
		releaseSmoothed(smoothed)
		windowDets[w.idx] = dets
		return len(dets)
	}
	outcomes := scheduleRefinement(windows, meter, abandonRatio*onTrackScore(c), probe, refine)
	refineStage.End()
	refineUsed := meter.Used() - reconUsed

	// Detect: merge the windows' detections globally — dedupe across
	// window boundaries, then one artifact-filter pass over the combined
	// set (a ghost's parent carrier may sit in a different window).
	detectStage := run.Begin("detect")
	var all []Detection
	for _, dets := range windowDets {
		all = append(all, dets...)
	}
	res.Detections = dedupeDetections(all, c, falts)
	recon0 := reconSpectra[0]
	for i := range res.Detections {
		// Bins on the adaptive Result index the recon grid (its
		// Measurements), preserving Grid/provenance round-trips.
		res.Detections[i].Bin = recon0.Index(res.Detections[i].Freq)
	}

	stats := &obs.AdaptiveStats{
		Budget:             int64(c.Budget),
		CapturesUsed:       meter.Used(),
		ExhaustiveCaptures: exhaustive,
		ReconCaptures:      reconUsed,
		RefineCaptures:     refineUsed,
		ReconFresHz:        ap.ReconFres,
		Candidates:         len(cands),
		Windows:            make([]obs.AdaptiveWindow, len(outcomes)),
	}
	for i, o := range outcomes {
		n := 0
		if o.outcome == obs.WindowRefined {
			for _, d := range res.Detections {
				if d.Freq >= o.window.f1 && d.Freq <= o.window.f2 {
					n++
				}
			}
		}
		stats.Windows[i] = obs.AdaptiveWindow{
			F1Hz: o.window.f1, F2Hz: o.window.f2, Priority: o.window.priority,
			Outcome: o.outcome, Captures: o.captures,
			ProbeScore: o.probeScore, Detections: n,
		}
		switch o.outcome {
		case obs.WindowRefined:
			adaptiveRefinedTotal.Inc()
		case obs.WindowAbandoned:
			adaptiveAbandonedTotal.Inc()
		default:
			adaptiveSkippedTotal.Inc()
		}
	}
	res.Captures = meter.Used()
	res.SimulatedSeconds = float64(reconUsed)*reconAn.CaptureDuration() +
		float64(refineUsed)*refineAn.CaptureDuration()
	res.Adaptive = stats
	detectionsTotal.Add(int64(len(res.Detections)))
	var prov []obs.DetectionRecord
	if run != nil {
		prov = provenance(res, c)
	}
	detectStage.End()

	// The window outcomes, detections and campaign_end follow detect's
	// stage_end in the journal; everything else the run records happens
	// inside a stage.
	for _, w := range stats.Windows {
		run.Track(0).Emit(obs.Event{Kind: obs.EventWindowOutcome,
			F1Hz: w.F1Hz, F2Hz: w.F2Hz, Priority: w.Priority,
			Outcome: w.Outcome, Captures: w.Captures,
			Score: w.ProbeScore, Detections: w.Detections})
	}
	emitDetections(run, res, c)
	run.Track(0).Emit(obs.Event{Kind: obs.EventCampaignEnd,
		Captures: meter.Used(), Detections: len(res.Detections)})
	if run != nil {
		if m := run.Finish(manifestConfig(c), res.SimulatedSeconds, prov); m != nil {
			m.Adaptive = stats
		}
	}
	return res, nil
}

// dedupeDetections merges detections gathered from separate refinement
// windows: highest score wins within the merge radius (in Hz — bins are
// window-local here), then the combined set takes one global artifact-
// filter pass and sorts by frequency, exactly like the exhaustive
// detect.
func dedupeDetections(all []Detection, c Campaign, falts []float64) []Detection {
	sort.Slice(all, func(a, b int) bool { return all[a].Score > all[b].Score })
	tol := float64(c.MergeBins) * c.Fres
	var merged []Detection
	for _, d := range all {
		dup := -1
		for mi := range merged {
			if math.Abs(d.Freq-merged[mi].Freq) <= tol {
				dup = mi
				break
			}
		}
		if dup >= 0 {
			for _, h := range d.Harmonics {
				if !containsInt(merged[dup].Harmonics, h) {
					merged[dup].Harmonics = append(merged[dup].Harmonics, h)
				}
			}
			continue
		}
		merged = append(merged, d)
	}
	merged = filterArtifacts(merged, c, falts)
	sort.Slice(merged, func(a, b int) bool { return merged[a].Freq < merged[b].Freq })
	return merged
}

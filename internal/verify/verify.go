// Package verify is the ground-truth accuracy harness: it generates a
// seeded-random corpus of machine models with known planted carriers and
// decoys (machine.RandomSystem), runs the *unchanged* core.Campaign over
// each one — optionally through a deterministically degraded measurement
// chain (emsim.FaultPlan) — and scores the detections against the scene's
// ground truth: precision/recall/F1, carrier-frequency error
// distributions, and an ROC sweep over the MinScore threshold.
//
// The committed VERIFY_baseline.json plus the Makefile `accuracy` target
// turn detection accuracy into a regression-tested quantity: a change that
// silently stops finding planted carriers (or starts reporting decoys)
// fails CI even though every equivalence test still passes.
package verify

import (
	"fmt"
	"math/rand"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
)

// Config tunes the accuracy harness. The zero value of every field
// selects the default noted on it, so verify.Evaluate(verify.Config{})
// runs the standard 60-scenario corpus.
type Config struct {
	// Scenarios is the corpus size. Zero means 60.
	Scenarios int
	// Seed drives corpus generation and every campaign. Zero means 1.
	Seed int64
	// F1, F2, Fres, FAlt1, FDelta parameterize the per-scenario campaign.
	// Zero means the regulator-band corpus campaign: 200–900 kHz at
	// 100 Hz RBW, f_alt 43.3 kHz, f_Δ 1 kHz.
	F1, F2, Fres  float64
	FAlt1, FDelta float64
	// X, Y is the alternation pair. Both zero means LDM/LDL1 — a
	// memory-only pair, so core-rail emitters are ground-truth decoys.
	X, Y activity.Kind
	// MinScore is the gated detection threshold (the campaign default 30
	// when zero; core.MinScoreZero for a literal zero).
	MinScore float64
	// MatchToleranceHz is the radius within which a detection matches a
	// ground-truth carrier. Zero means the campaign's merge radius
	// (24 bins · Fres).
	MatchToleranceHz float64
	// MinDelta is the domain-load change below which a carrier does not
	// count as modulated ground truth (see Scene.GroundTruth). Zero
	// means 0.25.
	MinDelta float64
	// Faults is the measurement-chain degradation for the fault pass;
	// nil skips that pass. Use DefaultFaultPlan for the standard suite.
	Faults *emsim.FaultPlan
	// Budget, when true, adds the recall-vs-budget pass: the corpus
	// re-run with the adaptive planner at the standard budget fractions
	// against an exhaustive reference at the pinned budgetMaxFFT (see
	// budget.go), producing Report.Budget and its gates.
	Budget bool
	// Spec bounds the randomized systems; its F1/F2 are filled from the
	// campaign band.
	Spec machine.RandomSpec
	// Parallelism is forwarded to each campaign. Zero means GOMAXPROCS.
	Parallelism int
	// ROCPoints caps the ROC sweep's resolution. Zero means 48.
	ROCPoints int
	// Obs, when non-nil, attaches run-level observability: the harness
	// stages (generate / clean corpus / fault corpus) are timed, capture
	// counts attributed, and the aggregate accuracy statistics folded
	// into the finished run manifest (Manifest.Accuracy).
	Obs *obs.Run
}

func (c Config) withDefaults() (Config, error) {
	if c.Scenarios == 0 {
		c.Scenarios = 60
	}
	if c.Scenarios < 1 {
		return c, fmt.Errorf("verify: need at least one scenario, got %d", c.Scenarios)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.F1 == 0 && c.F2 == 0 {
		c.F1, c.F2 = 200e3, 900e3
	}
	if c.Fres == 0 {
		c.Fres = 100
	}
	if c.FAlt1 == 0 {
		c.FAlt1 = 43.3e3
	}
	if c.FDelta == 0 {
		c.FDelta = 1e3
	}
	if c.X == activity.Idle && c.Y == activity.Idle {
		c.X, c.Y = activity.LDM, activity.LDL1
	}
	if c.MatchToleranceHz == 0 {
		c.MatchToleranceHz = 24 * c.Fres
	}
	if c.MinDelta == 0 {
		c.MinDelta = 0.25
	}
	if c.ROCPoints == 0 {
		c.ROCPoints = 48
	}
	c.Spec.F1, c.Spec.F2 = c.F1, c.F2
	if c.Spec.AvoidSpacings == nil {
		// Keep every pair of generated lines out of the detector's m·f_alt
		// ghost windows (see filterArtifacts): a weak carrier at such a
		// spacing from a much stronger one is correctly attributed to the
		// strong carrier's flanks and would be an unfindable truth. The
		// ladder is the campaign default (5 alternation frequencies); the
		// slack doubles the detector's merge radius for margin.
		const numAlts, maxHarmonic = 5, 5
		faltMin, faltMax := c.FAlt1, c.FAlt1+(numAlts-1)*c.FDelta
		slack := 2 * 24 * c.Fres
		for m := 1; m <= maxHarmonic; m++ {
			c.Spec.AvoidSpacings = append(c.Spec.AvoidSpacings,
				[2]float64{float64(m)*faltMin - slack, float64(m)*faltMax + slack})
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return c, err
	}
	// Validate the rest by building the campaign once up front.
	if err := c.campaign(0, nil, false).Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// resolvedMinScore is the gate threshold after sentinel resolution.
func (c Config) resolvedMinScore() float64 {
	switch c.MinScore {
	case 0:
		return 30
	case core.MinScoreZero:
		return 0
	default:
		return c.MinScore
	}
}

// DefaultFaultPlan is the standard degradation suite the `make accuracy`
// fault corpus runs: a few percent of captures dropped or cut short, a
// mild ADC clip, a hotter noise floor, occasional burst interferers, and
// a 0.2% micro-benchmark clock drift.
func DefaultFaultPlan() *emsim.FaultPlan {
	return &emsim.FaultPlan{
		Seed:               0xFA5E,
		DropProb:           0.04,
		TruncProb:          0.05,
		TruncKeep:          0.4,
		ClipDBm:            -92,
		ExtraNoiseDBmPerHz: -165,
		BurstProb:          0.05,
		BurstDBm:           -95,
		FAltDriftPPM:       2000,
	}
}

// scenario is one corpus entry: a generated scene plus its ground truth.
type scenario struct {
	index   int
	seed    int64
	scene   *emsim.Scene
	truth   []emsim.GroundTruthCarrier
	planted int // modulated ground-truth carriers in band
	decoys  int // unmodulated ground-truth carriers in band
}

// scenarioSeed spreads scenario indices across seed space (6700417 is
// prime, in the same spirit as the campaign's per-sweep seed strides).
func (c Config) scenarioSeed(i int) int64 { return c.Seed + int64(i)*6700417 }

// newScenario generates corpus entry i. Generation retries with a
// perturbed seed until the scene holds at least one planted carrier —
// RandomSystem guarantees one planted *emitter*, and the band margin
// guarantees its fundamental is in band, so in practice the first attempt
// wins; the loop is a safety net against future spec changes.
func newScenario(cfg Config, i int) *scenario {
	seed := cfg.scenarioSeed(i)
	for attempt := 0; ; attempt++ {
		r := rand.New(rand.NewSource(seed + int64(attempt)*104729))
		sys := machine.RandomSystem(r, cfg.Spec)
		scene := sys.Scene(seed, false)
		truth := scene.GroundTruth(cfg.F1, cfg.F2, cfg.X, cfg.Y, cfg.MinDelta)
		sc := &scenario{index: i, seed: seed, scene: scene, truth: truth}
		for _, t := range truth {
			if t.Modulated {
				sc.planted++
			} else {
				sc.decoys++
			}
		}
		if sc.planted > 0 || attempt >= 20 {
			return sc
		}
	}
}

// campaign builds the per-scenario campaign. A nil scenario (cfg
// validation) gets seed 0.
func (c Config) campaign(seed int64, faults *emsim.FaultPlan, rocPass bool) core.Campaign {
	camp := core.Campaign{
		F1: c.F1, F2: c.F2, Fres: c.Fres,
		FAlt1: c.FAlt1, FDelta: c.FDelta,
		X: c.X, Y: c.Y,
		MinScore:    c.MinScore,
		Seed:        seed,
		Parallelism: c.Parallelism,
		Faults:      faults,
	}
	if rocPass {
		camp.MinScore = core.MinScoreZero
	}
	return camp
}

// Evaluate runs the corpus and scores it. See Report for what comes back.
func Evaluate(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	run := cfg.Obs

	gen := run.Begin("generate")
	scens := make([]*scenario, cfg.Scenarios)
	for i := range scens {
		scens[i] = newScenario(cfg, i)
	}
	gen.End()

	rep := &Report{
		Schema:    ReportSchema,
		Scenarios: cfg.Scenarios,
		Seed:      cfg.Seed,
		Config:    reportConfig(cfg),
	}
	for _, sc := range scens {
		rep.CarriersTotal += sc.planted
		rep.DecoysTotal += sc.decoys
	}

	// Clean corpus: the gated pass at the default threshold plus — per
	// scenario, reusing the same seeds so the sweeps are identical — an
	// unthresholded pass whose scored candidates feed the ROC sweep.
	var spent cost
	clean := run.Begin("clean_corpus")
	var roc rocAccum
	rep.NoFault, err = runCorpus(cfg, scens, nil, &roc, &spent)
	clean.End()
	if err != nil {
		return nil, err
	}
	rep.ROC = roc.points(cfg)

	if cfg.Faults != nil {
		fault := run.Begin("fault_corpus")
		rep.Faulted, err = runCorpus(cfg, scens, cfg.Faults, nil, &spent)
		fault.End()
		if err != nil {
			return nil, err
		}
	}

	if cfg.Budget {
		budget := run.Begin("budget_corpus")
		rep.Budget, err = runBudget(cfg, scens, &spent)
		budget.End()
		if err != nil {
			return nil, err
		}
	}

	rep.SimulatedSeconds = spent.seconds
	// The corpus campaigns run uninstrumented, so the manifest's capture
	// count is what their results report.
	if m := run.Finish(rep.Config, rep.SimulatedSeconds, nil); m != nil {
		m.Captures = spent.captures
		m.Accuracy = rep.accuracyStats()
	}
	return rep, nil
}

// cost is the measurement work the harness spent, summed over its
// campaigns' results.
type cost struct {
	seconds  float64 // simulated analyzer seconds
	captures int64
}

func (c *cost) add(res *core.Result) {
	c.seconds += res.SimulatedSeconds
	c.captures += res.Captures
}

// runCorpus executes one pass over every scenario: the gated campaign
// always; when roc is non-nil, additionally the unthresholded ROC
// campaign. The FASE pipeline itself is untouched — only Campaign.Faults
// and MinScore differ between passes.
func runCorpus(cfg Config, scens []*scenario, faults *emsim.FaultPlan, roc *rocAccum, spent *cost) (*Corpus, error) {
	corpus := &Corpus{}
	for _, sc := range scens {
		runner := &core.Runner{Scene: sc.scene}
		campSeed := sc.seed ^ 0x5CA1AB1E
		res, err := runner.RunE(cfg.campaign(campSeed, faults, false))
		if err != nil {
			return nil, fmt.Errorf("verify: scenario %d: %w", sc.index, err)
		}
		m := matchDetections(sc.truth, res.Detections, cfg.MatchToleranceHz)
		corpus.add(sc, m)
		spent.add(res)
		if roc != nil {
			resROC, err := runner.RunE(cfg.campaign(campSeed, faults, true))
			if err != nil {
				return nil, fmt.Errorf("verify: scenario %d (roc): %w", sc.index, err)
			}
			roc.add(sc, matchDetections(sc.truth, resROC.Detections, cfg.MatchToleranceHz))
			spent.add(resROC)
		}
	}
	corpus.finalize()
	return corpus, nil
}

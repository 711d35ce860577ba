package verify

import (
	"fmt"

	"fase/internal/core"
	"fase/internal/obs"
)

// The recall-vs-budget pass pins the analyzer's transform cap so capture
// counts are a meaningful budget currency: at the default MaxFFT the
// whole corpus band fits one FFT segment and an exhaustive campaign
// costs only NumAlts × Averages captures, leaving an adaptive planner
// nothing to save. At 2048 the band splits into segments a window-sized
// re-sweep genuinely avoids.
const budgetMaxFFT = 2048

// budgetFracs are the evaluated budget points, as fractions of the
// exhaustive campaign's capture cost at budgetMaxFFT.
var budgetFracs = []float64{0.15, 0.20, 0.25, 0.30}

// Budget gates: some evaluated point at ≤ MaxBudgetCaptureFrac of the
// exhaustive captures must reach ≥ MinBudgetRecallRatio of the
// exhaustive recall — the adaptive planner's reason to exist, enforced
// by `make accuracy` like the accuracy floors.
const (
	MinBudgetRecallRatio = 0.95
	MaxBudgetCaptureFrac = 0.30
)

// BudgetPoint is one operating point of the recall-vs-budget curve: the
// whole corpus re-run adaptively at one capture budget.
type BudgetPoint struct {
	// Budget is the per-scenario capture cap handed to the planner.
	Budget int `json:"budget"`
	// BudgetFrac is Budget over the exhaustive per-scenario cost.
	BudgetFrac float64 `json:"budget_frac"`
	// CapturesUsed is what the planner actually spent, summed over the
	// corpus; CaptureFrac normalizes by the exhaustive corpus total.
	CapturesUsed  int64   `json:"captures_used"`
	CaptureFrac   float64 `json:"capture_frac"`
	CarriersFound int     `json:"carriers_found"`
	FP            int     `json:"fp"`
	Recall        float64 `json:"recall"`
	// RecallRatio is Recall over the exhaustive reference recall at the
	// same transform cap.
	RecallRatio float64 `json:"recall_ratio"`
	// Refined/Abandoned/Skipped total the planner's window outcomes
	// (partial counts as skipped) across the corpus.
	Refined   int `json:"refined"`
	Abandoned int `json:"abandoned"`
	Skipped   int `json:"skipped"`
}

// BudgetReport is the recall-vs-budget sweep: an exhaustive reference
// pass at the pinned transform cap, then the corpus re-run with the
// adaptive planner at each budget fraction.
type BudgetReport struct {
	MaxFFT int `json:"max_fft"`
	// ExhaustiveCaptures / ExhaustiveRecall are the reference pass's
	// corpus-total capture cost and recall.
	ExhaustiveCaptures int64         `json:"exhaustive_captures"`
	ExhaustiveFound    int           `json:"exhaustive_found"`
	CarriersTotal      int           `json:"carriers_total"`
	ExhaustiveRecall   float64       `json:"exhaustive_recall"`
	Points             []BudgetPoint `json:"points"`
}

// budgetCampaign is the per-scenario campaign of the budget pass.
func (c Config) budgetCampaign(seed int64, budget int) core.Campaign {
	camp := c.campaign(seed, nil, false)
	camp.MaxFFT = budgetMaxFFT
	if budget > 0 {
		camp.Budget = budget
		camp.Adaptive = &core.AdaptivePlan{}
	}
	return camp
}

// runBudget executes the recall-vs-budget sweep over the corpus.
func runBudget(cfg Config, scens []*scenario, spent *cost) (*BudgetReport, error) {
	rep := &BudgetReport{MaxFFT: budgetMaxFFT}

	// Exhaustive reference at the pinned transform cap. Its per-scenario
	// cost is identical across scenarios (same band geometry), so the
	// budgets derive from the first scenario's price.
	var perScenario int64
	for _, sc := range scens {
		runner := &core.Runner{Scene: sc.scene}
		res, err := runner.RunE(cfg.budgetCampaign(sc.seed^0x5CA1AB1E, 0))
		if err != nil {
			return nil, fmt.Errorf("verify: budget reference scenario %d: %w", sc.index, err)
		}
		m := matchDetections(sc.truth, res.Detections, cfg.MatchToleranceHz)
		rep.ExhaustiveFound += len(m.found)
		rep.CarriersTotal += sc.planted
		rep.ExhaustiveCaptures += res.Captures
		perScenario = res.Captures
		spent.add(res)
	}
	rep.ExhaustiveRecall = recall(rep.ExhaustiveFound, rep.CarriersTotal)

	for _, frac := range budgetFracs {
		p := BudgetPoint{
			Budget:     int(frac * float64(perScenario)),
			BudgetFrac: frac,
		}
		for _, sc := range scens {
			runner := &core.Runner{Scene: sc.scene}
			res, err := runner.RunE(cfg.budgetCampaign(sc.seed^0x5CA1AB1E, p.Budget))
			if err != nil {
				return nil, fmt.Errorf("verify: budget %d scenario %d: %w", p.Budget, sc.index, err)
			}
			m := matchDetections(sc.truth, res.Detections, cfg.MatchToleranceHz)
			p.CarriersFound += len(m.found)
			p.FP += m.fp
			p.CapturesUsed += res.Captures
			for _, w := range res.Adaptive.Windows {
				switch w.Outcome {
				case obs.WindowRefined:
					p.Refined++
				case obs.WindowAbandoned:
					p.Abandoned++
				default:
					p.Skipped++
				}
			}
			spent.add(res)
		}
		p.CaptureFrac = float64(p.CapturesUsed) / float64(rep.ExhaustiveCaptures)
		p.Recall = recall(p.CarriersFound, rep.CarriersTotal)
		if rep.ExhaustiveRecall > 0 {
			p.RecallRatio = p.Recall / rep.ExhaustiveRecall
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// budgetGate returns the best point satisfying the budget gates, or an
// error when none does.
func budgetGate(b *BudgetReport) (BudgetPoint, error) {
	best := BudgetPoint{RecallRatio: -1}
	for _, p := range b.Points {
		if p.CaptureFrac <= MaxBudgetCaptureFrac && p.RecallRatio > best.RecallRatio {
			best = p
		}
	}
	if best.RecallRatio < MinBudgetRecallRatio {
		return best, fmt.Errorf("verify: no budget point reaches %.0f%% of exhaustive recall within %.0f%% of captures (best: ratio %.4f at %.1f%% captures)",
			100*MinBudgetRecallRatio, 100*MaxBudgetCaptureFrac, best.RecallRatio, 100*best.CaptureFrac)
	}
	return best, nil
}

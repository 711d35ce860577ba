package verify

import (
	"encoding/json"
	"fmt"
	"os"
)

// BaselineSchema identifies the committed accuracy-baseline layout.
const BaselineSchema = "fase-verify-baseline/1"

// Accuracy floors. The clean corpus must essentially always work; the
// fault corpus is allowed to miss carriers (degraded SNR costs recall by
// design) but must not start *inventing* them — precision is the fault
// gate, per the paper's premise that a reported carrier sends a human to
// a profiling bench.
const (
	MinNoFaultF1        = 0.95
	MinFaultedPrecision = 0.9
)

// Baseline is the committed accuracy reference (VERIFY_baseline.json).
// `make accuracy` fails when a fresh run scores below it or below the
// absolute floors.
type Baseline struct {
	Schema    string `json:"schema"`
	Scenarios int    `json:"scenarios"`
	Seed      int64  `json:"seed"`

	NoFaultPrecision float64 `json:"no_fault_precision"`
	NoFaultRecall    float64 `json:"no_fault_recall"`
	NoFaultF1        float64 `json:"no_fault_f1"`

	// Faulted* are zero when the baseline was recorded without a fault
	// pass; Check then skips the fault comparison.
	FaultedPrecision float64 `json:"faulted_precision,omitempty"`
	FaultedRecall    float64 `json:"faulted_recall,omitempty"`

	// Budget* pin the adaptive planner's best gated operating point
	// (recall ratio vs exhaustive, and the capture fraction it spent).
	// Zero when the baseline was recorded without a budget pass; Check
	// then skips the budget comparison.
	BudgetRecallRatio float64 `json:"budget_recall_ratio,omitempty"`
	BudgetCaptureFrac float64 `json:"budget_capture_frac,omitempty"`
}

// BaselineOf extracts the gated metrics a report would be pinned at.
func BaselineOf(r *Report) Baseline {
	b := Baseline{
		Schema:           BaselineSchema,
		Scenarios:        r.Scenarios,
		Seed:             r.Seed,
		NoFaultPrecision: r.NoFault.Precision,
		NoFaultRecall:    r.NoFault.Recall,
		NoFaultF1:        r.NoFault.F1,
	}
	if r.Faulted != nil {
		b.FaultedPrecision = r.Faulted.Precision
		b.FaultedRecall = r.Faulted.Recall
	}
	if r.Budget != nil {
		if best, err := budgetGate(r.Budget); err == nil {
			b.BudgetRecallRatio = best.RecallRatio
			b.BudgetCaptureFrac = best.CaptureFrac
		}
	}
	return b
}

// WriteFile writes the baseline as indented JSON.
func (b Baseline) WriteFile(path string) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("verify: marshal baseline: %w", err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ReadBaseline loads a committed baseline.
func ReadBaseline(path string) (Baseline, error) {
	var b Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("verify: parse baseline %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return b, fmt.Errorf("verify: baseline %s has schema %q, want %q", path, b.Schema, BaselineSchema)
	}
	return b, nil
}

// regressTol absorbs floating-point noise in the comparison; corpus
// metrics are ratios of integer counts, so any real regression moves
// them by far more than this.
const regressTol = 1e-9

// Check gates a fresh report against the committed baseline: the corpus
// identity must match (different scenarios/seed means the numbers are
// incomparable), the absolute floors must hold, and no gated metric may
// regress below the committed value.
func Check(r *Report, b Baseline) error {
	if r.Scenarios != b.Scenarios || r.Seed != b.Seed {
		return fmt.Errorf("verify: corpus mismatch: run is %d scenarios seed %d, baseline %d scenarios seed %d (regenerate the baseline)",
			r.Scenarios, r.Seed, b.Scenarios, b.Seed)
	}
	if r.NoFault.F1 < MinNoFaultF1 {
		return fmt.Errorf("verify: clean-corpus F1 %.4f below floor %.2f (precision %.4f, recall %.4f)",
			r.NoFault.F1, MinNoFaultF1, r.NoFault.Precision, r.NoFault.Recall)
	}
	if r.NoFault.F1+regressTol < b.NoFaultF1 {
		return fmt.Errorf("verify: clean-corpus F1 regressed: %.4f < baseline %.4f", r.NoFault.F1, b.NoFaultF1)
	}
	if r.Faulted != nil {
		if r.Faulted.Precision < MinFaultedPrecision {
			return fmt.Errorf("verify: fault-corpus precision %.4f below floor %.2f (%d FP of %d detections)",
				r.Faulted.Precision, MinFaultedPrecision, r.Faulted.FP, r.Faulted.Detections)
		}
		if b.FaultedPrecision > 0 && r.Faulted.Precision+regressTol < b.FaultedPrecision {
			return fmt.Errorf("verify: fault-corpus precision regressed: %.4f < baseline %.4f",
				r.Faulted.Precision, b.FaultedPrecision)
		}
	}
	if r.Budget != nil {
		best, err := budgetGate(r.Budget)
		if err != nil {
			return err
		}
		if b.BudgetRecallRatio > 0 && best.RecallRatio+regressTol < b.BudgetRecallRatio {
			return fmt.Errorf("verify: budget recall ratio regressed: %.4f < baseline %.4f (at %.1f%% captures)",
				best.RecallRatio, b.BudgetRecallRatio, 100*best.CaptureFrac)
		}
	}
	return nil
}

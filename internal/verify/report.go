package verify

import (
	"encoding/json"
	"fmt"
	"os"

	"fase/internal/emsim"
	"fase/internal/obs"
)

// ReportSchema identifies the accuracy-report JSON layout.
const ReportSchema = "fase-verify-report/1"

// ReportConfig is the resolved harness configuration as recorded in the
// report (and, via obs, in the run manifest): every defaulted field
// filled in, so a report is reproducible from its own header.
type ReportConfig struct {
	F1               float64          `json:"f1_hz"`
	F2               float64          `json:"f2_hz"`
	Fres             float64          `json:"fres_hz"`
	FAlt1            float64          `json:"falt1_hz"`
	FDelta           float64          `json:"fdelta_hz"`
	X                string           `json:"x"`
	Y                string           `json:"y"`
	MinScore         float64          `json:"min_score"`
	MatchToleranceHz float64          `json:"match_tolerance_hz"`
	MinDelta         float64          `json:"min_delta"`
	FaultPlan        *emsim.FaultPlan `json:"fault_plan,omitempty"`
}

func reportConfig(cfg Config) ReportConfig {
	return ReportConfig{
		F1: corpusF1, F2: corpusF2, Fres: corpusFres,
		FAlt1: corpusFAlt1, FDelta: corpusFDelta,
		X: corpusX.String(), Y: corpusY.String(),
		MinScore:         gateMinScore,
		MatchToleranceHz: matchToleranceHz,
		MinDelta:         minDelta,
		FaultPlan:        cfg.Faults,
	}
}

// Report is the accuracy harness's full output: corpus-wide ground-truth
// totals, the gated clean-corpus metrics, the ROC sweep, and (when a
// FaultPlan was supplied) the gated fault-corpus metrics.
type Report struct {
	Schema    string       `json:"schema"`
	Scenarios int          `json:"scenarios"`
	Seed      int64        `json:"seed"`
	Config    ReportConfig `json:"config"`

	// CarriersTotal / DecoysTotal count modulated and unmodulated
	// ground-truth carriers across the whole corpus.
	CarriersTotal int `json:"carriers_total"`
	DecoysTotal   int `json:"decoys_total"`

	NoFault *Corpus    `json:"no_fault"`
	Faulted *Corpus    `json:"faulted,omitempty"`
	ROC     []ROCPoint `json:"roc"`
	// Budget is the recall-vs-budget sweep of the adaptive planner; nil
	// unless Config.Budget requested the pass.
	Budget *BudgetReport `json:"budget,omitempty"`

	// SimulatedSeconds is the modeled analyzer observation time summed
	// over every campaign the harness ran (both passes).
	SimulatedSeconds float64 `json:"simulated_analyzer_seconds"`
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("verify: marshal report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("verify: parse report %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("verify: report %s has schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// accuracyStats folds the corpus metrics into the run-manifest shape.
func (r *Report) accuracyStats() *obs.AccuracyStats {
	s := &obs.AccuracyStats{
		Scenarios: r.Scenarios,
		NoFault:   accuracyCorpus(r.NoFault),
	}
	if r.Faulted != nil {
		c := accuracyCorpus(r.Faulted)
		s.Faulted = &c
	}
	return s
}

func accuracyCorpus(c *Corpus) obs.AccuracyCorpus {
	return obs.AccuracyCorpus{
		TruePositives:    c.TP,
		FalsePositives:   c.FP,
		FalseNegatives:   c.CarriersTotal - c.CarriersFound,
		Precision:        c.Precision,
		Recall:           c.Recall,
		F1:               c.F1,
		MeanAbsFreqErrHz: c.FreqErr.MeanAbsHz,
	}
}

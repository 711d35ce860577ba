package obs

import (
	"sync/atomic"
	"time"
)

// progress is the Run's live position, written with atomics from the
// campaign coordinator and the analyzer's capture workers and read by
// the debug server's /progress endpoint. All fields are best-effort
// telemetry: they never feed results and cost one atomic op per update.
type progress struct {
	stage          atomic.Value // string: current stage name
	capturesTotal  atomic.Int64 // planned captures (exhaustive) or budget cap (adaptive)
	sweepsTotal    atomic.Int64
	sweepsDone     atomic.Int64
	simTotal       Gauge      // planned simulated seconds
	simDone        FloatAdder // simulated seconds rendered so far
	budgetReserved atomic.Int64
	budgetCap      atomic.Int64
	done           atomic.Bool
}

// ProgressInfo is the JSON snapshot served at /progress: where the scan
// is (stage, sweeps), what it has spent (captures used vs. reserved vs.
// the budget cap), how far along it is, and how fast simulated analyzer
// time is being produced per wall second — the rate that yields the ETA.
type ProgressInfo struct {
	Stage            string  `json:"stage"`
	Done             bool    `json:"done"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	CapturesUsed     int64   `json:"captures_used"`
	CapturesReserved int64   `json:"captures_reserved,omitempty"`
	CapturesTotal    int64   `json:"captures_total,omitempty"`
	BudgetCap        int64   `json:"budget_cap,omitempty"`
	SweepsDone       int64   `json:"sweeps_done"`
	SweepsTotal      int64   `json:"sweeps_total,omitempty"`
	SimulatedSeconds float64 `json:"simulated_seconds"`
	SimulatedTotal   float64 `json:"simulated_total,omitempty"`
	PercentComplete  float64 `json:"percent_complete"`
	SimRatePerSecond float64 `json:"sim_rate_per_second"`
	ETASeconds       float64 `json:"eta_seconds,omitempty"`
	EventsEmitted    int64   `json:"events_emitted,omitempty"`
	EventsDropped    int64   `json:"events_dropped,omitempty"`
}

// SetTotals declares the run's planned scope: total captures (the budget
// cap in adaptive mode), number of sweeps, and total simulated analyzer
// seconds the plan would produce. Zero values mean "unknown".
func (r *Run) SetTotals(captures, sweeps int64, simSeconds float64) {
	if r == nil {
		return
	}
	r.progress.capturesTotal.Store(captures)
	r.progress.sweepsTotal.Store(sweeps)
	r.progress.simTotal.Set(simSeconds)
}

// Progress snapshots the run's live position. Percent complete prefers
// capture counts (exact units of work) and falls back to simulated time;
// the ETA extrapolates the remaining simulated seconds at the observed
// simulated-seconds-per-wall-second rate.
func (r *Run) Progress() ProgressInfo {
	if r == nil {
		return ProgressInfo{}
	}
	p := &r.progress
	info := ProgressInfo{
		Done:             p.done.Load(),
		ElapsedSeconds:   time.Since(r.start).Seconds(),
		CapturesUsed:     r.Stat(StatCaptures),
		CapturesReserved: p.budgetReserved.Load(),
		CapturesTotal:    p.capturesTotal.Load(),
		BudgetCap:        p.budgetCap.Load(),
		SweepsDone:       p.sweepsDone.Load(),
		SweepsTotal:      p.sweepsTotal.Load(),
		SimulatedSeconds: p.simDone.Value(),
		SimulatedTotal:   p.simTotal.Value(),
	}
	if s, ok := p.stage.Load().(string); ok {
		info.Stage = s
	}
	switch {
	case info.Done:
		info.PercentComplete = 100
	case info.CapturesTotal > 0:
		info.PercentComplete = 100 * float64(info.CapturesUsed) / float64(info.CapturesTotal)
	case info.SimulatedTotal > 0:
		info.PercentComplete = 100 * info.SimulatedSeconds / info.SimulatedTotal
	}
	if info.PercentComplete > 100 {
		info.PercentComplete = 100
	}
	if info.ElapsedSeconds > 0 {
		info.SimRatePerSecond = info.SimulatedSeconds / info.ElapsedSeconds
	}
	if !info.Done && info.SimRatePerSecond > 0 && info.SimulatedTotal > info.SimulatedSeconds {
		info.ETASeconds = (info.SimulatedTotal - info.SimulatedSeconds) / info.SimRatePerSecond
	}
	if j := r.Journal; j != nil {
		info.EventsEmitted, info.EventsDropped = j.Stats()
	}
	return info
}

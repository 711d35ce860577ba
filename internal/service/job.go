package service

import (
	"context"
	"sync"
	"time"

	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/obs"
)

// Job states, in lifecycle order. queued → running → one of the three
// terminal states; cancel-while-queued goes straight to cancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Job is one submitted scan. Identity is two-level: ID names this
// submission (unique per submit), ResultID is the content address of its
// result — the runstore hash of (system, environment, resolved campaign
// config) — shared by every submission of the same work.
type Job struct {
	ID       string
	ResultID string
	Tenant   string
	Priority int

	seq       int64 // admission order, the FIFO key within a priority
	heapIndex int   // slot in the queue heap; -1 once popped/removed

	campaign core.Campaign
	scene    *emsim.Scene
	system   string
	envOn    bool

	// ctx cancels the job; shards and the coordinator observe it.
	ctx    context.Context
	cancel context.CancelFunc

	submitted time.Time

	mu         sync.Mutex
	state      string
	errMsg     string
	cached     bool
	run        *obs.Run
	manifest   *obs.Manifest
	detections int
	captures   int64
	started    time.Time
	finished   time.Time
}

// setRunning transitions queued → running and installs the job's
// observability run. Returns false if the job was already cancelled.
func (j *Job) setRunning(run *obs.Run) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.run = run
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state (first transition wins) and
// returns whether this call performed it.
func (j *Job) finish(state, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	if j.run != nil {
		j.captures = j.run.Stat(obs.StatCaptures)
	}
	return true
}

// setResult records a completed job's archived manifest.
func (j *Job) setResult(m *obs.Manifest) {
	j.mu.Lock()
	j.manifest = m
	j.detections = len(m.Detections)
	j.mu.Unlock()
}

// journal returns the job's live journal, or nil before it starts.
func (j *Job) journal() *obs.Journal {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.run == nil {
		return nil
	}
	return j.run.Journal
}

// ScanStatus is the status JSON for one job.
type ScanStatus struct {
	ID       string `json:"id"`
	ResultID string `json:"result_id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	System   string `json:"system"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	// Cached marks jobs served from the run store without rendering: an
	// identical (config, seed) had already completed.
	Cached        bool  `json:"cached,omitempty"`
	Detections    int   `json:"detections,omitempty"`
	Captures      int64 `json:"captures,omitempty"`
	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
	// Progress is the live run position while the job executes.
	Progress *obs.ProgressInfo `json:"progress,omitempty"`
}

// status snapshots the job.
func (j *Job) status() ScanStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := ScanStatus{
		ID: j.ID, ResultID: j.ResultID, Tenant: j.Tenant,
		Priority: j.Priority, System: j.system,
		State: j.state, Error: j.errMsg, Cached: j.cached,
		Detections:    j.detections,
		Captures:      j.captures,
		SubmittedUnix: j.submitted.Unix(),
	}
	if !j.started.IsZero() {
		st.StartedUnix = j.started.Unix()
	}
	if !j.finished.IsZero() {
		st.FinishedUnix = j.finished.Unix()
	}
	if j.state == StateRunning && j.run != nil {
		p := j.run.Progress()
		st.Progress = &p
		st.Captures = p.CapturesUsed
	}
	return st
}

// result returns the archived manifest, nil until the job is done.
func (j *Job) result() *obs.Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.manifest
}

// runNow returns the job's observability run, nil before it starts.
func (j *Job) runNow() *obs.Run {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// stateNow returns the job's current state.
func (j *Job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

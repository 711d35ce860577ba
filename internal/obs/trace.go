package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans — named, timed intervals with explicit
// parent/child links — and writes them as Chrome trace_event JSON
// (chrome://tracing, Perfetto, or speedscope all load it).
//
// Spans live on lanes (rendered as Chrome "threads"): sequential child
// stages share their parent's lane, while concurrent work forks onto its
// own lane so overlapping spans never collide visually. Lanes are pooled
// and reused, so a campaign's trace has roughly Parallelism lanes, not
// one per capture.
//
// A nil *Tracer is a valid no-op: Begin returns the zero Span, whose
// methods all do nothing, so call sites need no guards.
type Tracer struct {
	start  time.Time
	nextID atomic.Int64

	mu        sync.Mutex
	events    []SpanEvent
	freeLanes []int64
	nextLane  int64
}

// SpanEvent is one completed span.
type SpanEvent struct {
	Name   string
	ID     int64
	Parent int64 // 0 = root
	Lane   int64
	Start  time.Duration // offset from the tracer's epoch
	Dur    time.Duration
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Span is one in-flight interval. The zero Span is a no-op; spans are
// values, so disabled tracing allocates nothing. A span opened by
// Run.Begin is also a pipeline stage: its End records the stage on the
// run, traced or not.
type Span struct {
	tr     *Tracer
	run    *Run // stage spans only
	name   string
	start  time.Duration // offset from the tracer's epoch, or the run's for an untraced stage
	cpu    float64       // stage spans: process CPU seconds at Begin
	lane   int64
	id     int64
	parent int64
	owns   bool // this span acquired its lane and releases it on End
}

// Active reports whether the span records anything.
func (s Span) Active() bool { return s.tr != nil }

// Begin opens a root span on its own lane.
func (t *Tracer) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, start: time.Since(t.start), lane: t.acquireLane(),
		id: t.nextID.Add(1), owns: true}
}

// Child opens a sub-span on the same lane — for stages that run
// sequentially within the parent.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{tr: s.tr, name: name, start: time.Since(s.tr.start), lane: s.lane,
		id: s.tr.nextID.Add(1), parent: s.id}
}

// Fork opens a sub-span on a fresh lane — for work that runs
// concurrently with its siblings (sweeps, captures).
func (s Span) Fork(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{tr: s.tr, name: name, start: time.Since(s.tr.start), lane: s.tr.acquireLane(),
		id: s.tr.nextID.Add(1), parent: s.id, owns: true}
}

// Mark records an already-measured child interval on the span's lane,
// for call sites that timed a region themselves.
func (s Span) Mark(name string, start time.Time, d time.Duration) {
	if s.tr == nil {
		return
	}
	s.tr.record(SpanEvent{Name: name, ID: s.tr.nextID.Add(1), Parent: s.id,
		Lane: s.lane, Start: start.Sub(s.tr.start), Dur: d})
}

// End records the span and releases its lane if it owned one; ending a
// stage span also records the stage on its run (see Run.Begin). Ending
// the zero Span does nothing.
func (s Span) End() {
	if s.run != nil {
		s.run.endStage(s)
	}
	if s.tr == nil {
		return
	}
	s.tr.record(SpanEvent{Name: s.name, ID: s.id, Parent: s.parent, Lane: s.lane,
		Start: s.start, Dur: time.Since(s.tr.start) - s.start})
	if s.owns {
		s.tr.releaseLane(s.lane)
	}
}

func (t *Tracer) acquireLane() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.freeLanes); n > 0 {
		l := t.freeLanes[n-1]
		t.freeLanes = t.freeLanes[:n-1]
		return l
	}
	t.nextLane++
	return t.nextLane - 1
}

func (t *Tracer) releaseLane(l int64) {
	t.mu.Lock()
	t.freeLanes = append(t.freeLanes, l)
	t.mu.Unlock()
}

func (t *Tracer) record(e SpanEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	return out
}

// chromeEvent is one trace_event entry ("X" = complete event; ts and dur
// are microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace_event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans in Chrome's trace_event
// JSON format. Span identity and parentage ride in args ("id",
// "parent"), which trace viewers ignore but tests assert on.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, e := range t.Events() {
		ce := chromeEvent{
			Name: e.Name, Cat: "fase", Ph: "X",
			Ts:  float64(e.Start.Nanoseconds()) / 1e3,
			Dur: float64(e.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: e.Lane,
			Args: map[string]any{"id": e.ID, "parent": e.Parent},
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

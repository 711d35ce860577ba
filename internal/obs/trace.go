package obs

import (
	"cmp"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"time"
)

// captureTiming is one capture of a traced run: its journal track, its
// start since the journal's epoch, and its render and window+FFT times.
type captureTiming struct {
	track              int64
	start, render, fft time.Duration
}

// traceSpan is one span of a laid-out trace. Times are seconds since the
// journal's epoch; split ends a capture's render; parent indexes the
// span list (-1 for the root).
type traceSpan struct {
	name              string
	track             int64
	start, split, end float64
	parent            int
	lane              int64
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

// WriteChromeTrace writes the run as Chrome trace_event JSON
// (chrome://tracing, Perfetto and speedscope load it), laid out from what
// the run recorded: a root "campaign" span over the journal's first to
// last event, a span per stage_start/stage_end pair on track 0, a "sweep"
// span per sweep_start/sweep_end pair on each sweep track, and, when the
// run traces, a "capture" span per capture with its "render" and "fft"
// children. A span's parent is the span that contains its start: a
// capture's is the sweep on its own track, a sweep's the stage, a stage's
// the root. The root and the stages share lane (Chrome "thread") 0;
// sweeps and captures are packed, by start time, onto the lowest free
// lane from 1 up, and render and fft sit on their capture's lane. Span
// identity and parentage ride in args ("id", "parent"). It fails when the
// run has no journal.
func (r *Run) WriteChromeTrace(w io.Writer) error {
	if r == nil || r.Journal == nil {
		return errors.New("obs: a trace is laid out from the run's journal, and the run has none")
	}
	events := r.Journal.CanonicalEvents()
	if len(events) == 0 {
		return errors.New("obs: the run's journal is empty")
	}
	all := []traceSpan{{name: "campaign", start: math.Inf(1), end: math.Inf(-1), parent: -1}}
	var packed []traceSpan      // sweeps and captures
	open := map[int64]float64{} // track → start of its open stage or sweep
	for _, e := range events {
		all[0].start, all[0].end = min(all[0].start, e.T), max(all[0].end, e.T)
		switch e.Kind {
		case EventStageStart, EventSweepStart:
			open[e.Track] = e.T
		case EventStageEnd:
			all = append(all, traceSpan{name: e.Name, start: open[e.Track], end: e.T})
		case EventSweepEnd:
			packed = append(packed, traceSpan{name: "sweep", track: e.Track, start: open[e.Track], end: e.T})
		}
	}
	stages := all[1:]
	r.mu.Lock()
	for _, c := range r.captures {
		start := c.start.Seconds()
		packed = append(packed, traceSpan{name: "capture", track: c.track, start: start,
			split: start + c.render.Seconds(), end: start + (c.render + c.fft).Seconds()})
	}
	r.mu.Unlock()
	// A stable sort keeps each sweep ahead of any capture starting with it.
	slices.SortStableFunc(packed, func(a, b traceSpan) int { return cmp.Compare(a.start, b.start) })

	within := func(s traceSpan, t float64) bool { return s.start <= t && t <= s.end }
	sweepOf := map[int64]int{} // track → index in all of its latest sweep
	var laneEnd []float64      // laneEnd[k] is when lane k+1 frees
	for _, s := range packed {
		if s.name == "sweep" {
			s.parent = 1 + slices.IndexFunc(stages, func(st traceSpan) bool { return within(st, s.start) })
			sweepOf[s.track] = len(all)
		} else if i, ok := sweepOf[s.track]; ok && within(all[i], s.start) {
			s.parent = i
		}
		k := slices.IndexFunc(laneEnd, func(end float64) bool { return end <= s.start })
		if k < 0 {
			k, laneEnd = len(laneEnd), append(laneEnd, 0)
		}
		laneEnd[k], s.lane = s.end, int64(k+1)
		all = append(all, s)
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	emit := func(name string, start, end float64, lane int64, parent int) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: "fase", Ph: "X", Ts: start * 1e6, Dur: (end - start) * 1e6, Pid: 1, Tid: lane,
			Args: map[string]any{"id": len(out.TraceEvents) + 1, "parent": parent}})
	}
	for _, s := range all { // a span's id is 1 + its index in all
		emit(s.name, s.start, s.end, s.lane, s.parent+1)
	}
	for i, s := range all {
		if s.name == "capture" {
			emit("render", s.start, s.split, s.lane, i+1)
			emit("fft", s.split, s.end, s.lane, i+1)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

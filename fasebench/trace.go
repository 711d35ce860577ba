package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one op share Op; Parent is the
// index of the span that caused this one, -1 for an op's root.
type span struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run is over,
// so recording costs one locked append per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// add records a span measured by the caller and returns its index.
func (t *tracer) add(name, label string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Label: label, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans) - 1
}

// begin opens a span that end closes.
func (t *tracer) begin(name, label string, op, parent int) int {
	now := time.Now()
	return t.add(name, label, op, parent, now, now)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now.Sub(t.t0).Seconds()
	t.mu.Unlock()
}

// total sums the durations of spans named name (and labelled label, when
// label is not empty) and counts them.
func (t *tracer) total(name, label string) (seconds float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) {
			seconds += s.dur()
			n++
		}
	}
	return seconds, n
}

// selfFrac is the share of root spans named root that none of their
// direct children cover: the part of an op no layer span accounts for.
func (t *tracer) selfFrac(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	var whole, self float64
	for i, s := range t.spans {
		if s.Name != root || s.Parent >= 0 {
			continue
		}
		whole += s.dur()
		self += s.dur() - covered(kids[i])
	}
	if whole == 0 {
		return 0
	}
	return self / whole
}

// covered is the length of the union of intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, lo, hi float64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			sum += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return sum + hi - lo
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

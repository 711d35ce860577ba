package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var f *FloatAdder
	f.Add(1.5)
	if f.Value() != 0 {
		t.Error("nil adder has a value")
	}
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry returned non-nil metrics")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

// TestNilRunAndTracerAreNoOps checks a nil run records nothing and has
// no trace, and that only a traced run keeps capture timings: an untraced
// run, or a capture with no journal track, keeps none.
func TestNilRunAndTracerAreNoOps(t *testing.T) {
	var run *Run
	if sp := run.Begin("x"); sp != (Span{}) {
		t.Error("nil run opened a stage")
	}
	run.Begin("x").End()
	Span{}.End()
	run.RecordPlan(1, 2, 3, 4, 5)
	run.Count(StatCaptures, 1)
	run.Capture(nil, time.Time{}, time.Time{}, 1)
	run.Emit(nil, Event{Kind: EventSweepEnd})
	if run.Stat(StatCaptures) != 0 || run.Manifest() != nil || run.Finish(nil, 0, nil) != nil {
		t.Error("nil run returned data")
	}
	if err := run.WriteChromeTrace(io.Discard); err == nil {
		t.Error("nil run wrote a trace")
	}
	if err := NewRun().WriteChromeTrace(io.Discard); err == nil {
		t.Error("a run without a journal wrote a trace")
	}
	untraced := &Run{Journal: NewJournal()}
	untraced.Capture(untraced.Track(1), time.Now(), time.Now(), 1)
	traced := &Run{Trace: true}
	traced.Capture(nil, time.Now(), time.Now(), 1)
	if len(untraced.captures) != 0 || len(traced.captures) != 0 {
		t.Error("a capture timing was kept without a trace or a track")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// v <= bound goes in that bucket: {0.5, 1}, {5}, {50}, overflow {500, 5000}.
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 6 {
		t.Errorf("count %d, want 6", s.Count)
	}
	if s.Sum != 0.5+1+5+50+500+5000 {
		t.Errorf("sum %g", s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-5, 4, 3)
	want := []float64{1e-5, 4e-5, 16e-5}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid bucket spec did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestRegistryWriteJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("WriteJSON output unstable")
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if s.Counters["a"] != 2 || s.Counters["z"] != 1 {
		t.Errorf("snapshot round trip: %+v", s)
	}
	// Same-name lookups return the same metric.
	if r.Counter("a") != r.Counter("a") || r.Gauge("g") != r.Gauge("g") || r.Histogram("h", nil) != r.Histogram("h", []float64{1}) {
		t.Error("registry lookup is not idempotent")
	}
}

// TestConcurrentExactTotals hammers the registry's metrics and a run's
// per-capture accumulators from Parallelism-many goroutines and asserts
// exact totals — the invariant the worker pools rely on (run under -race
// by make race).
func TestConcurrentExactTotals(t *testing.T) {
	const perG = 2000
	workers := runtime.GOMAXPROCS(0) * 2
	r := NewRegistry()
	c := r.Counter("hammer")
	g := r.Gauge("level")
	h := r.Histogram("lat", ExpBuckets(1, 2, 8))
	run := NewRun()
	run.Trace, run.Journal = true, NewJournal()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := run.Track(int64(1 + w))
			t0 := time.Now().Add(-time.Millisecond)
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i % 300))
				run.Capture(track, t0, t0.Add(time.Millisecond), 0)
			}
			run.RecordPlan(float64(w), 1e6, 1024, 3, 2)
		}(w)
	}
	wg.Wait()
	total := int64(workers * perG)
	if got := c.Value(); got != total {
		t.Errorf("counter %d, want %d", got, total)
	}
	if got := h.snapshot().Count; got != total {
		t.Errorf("histogram count %d, want %d", got, total)
	}
	if got := run.Stat(StatCaptures); got != total {
		t.Errorf("run captures %d, want %d", got, total)
	}
	if got := run.hists[histRender].snapshot().Count; got != total {
		t.Errorf("run render histogram count %d, want %d", got, total)
	}
	want := 0.001 * float64(total)
	if got := run.hists[histRender].sum.Value(); got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Errorf("render seconds %g, want %g", got, want)
	}
	if got := len(run.captures); got != int(total) {
		t.Errorf("%d capture timings kept, want %d", got, total)
	}
}

// chromeEvents lays run's trace out and parses it back.
func chromeEvents(t *testing.T, run *Run) []chromeEvent {
	t.Helper()
	var b bytes.Buffer
	if err := run.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

// TestChromeTraceStructure lays a small traced run out and checks the
// trace is structurally valid trace_event JSON — complete events with
// non-negative timings, the root and its stages on lane 0, the sweep and
// its capture on lanes from 1 up, render and fft on their capture's lane
// — and that each span's parent is the span containing it.
func TestChromeTraceStructure(t *testing.T) {
	run := NewRun()
	run.Trace, run.Journal = true, NewJournal()
	run.Track(0).Emit(Event{Kind: EventCampaignStart})
	stage := run.Begin("sweeps")
	sweep := run.Track(1)
	sweep.Emit(Event{Kind: EventSweepStart})
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	run.Capture(sweep, t0, time.Now(), 0)
	run.Emit(sweep, Event{Kind: EventSweepEnd})
	stage.End()
	run.Begin("detect").End()
	run.Track(0).Emit(Event{Kind: EventCampaignEnd})

	events := chromeEvents(t, run)
	if len(events) != 7 {
		t.Fatalf("%d events, want 7: %+v", len(events), events)
	}
	byID := map[float64]chromeEvent{}
	for _, e := range events {
		if e.Ph != "X" || e.Cat != "fase" || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("malformed event %+v", e)
		}
		byID[e.Args["id"].(float64)] = e
	}
	want := map[string]struct {
		parent string
		lane   int64
	}{
		"campaign": {"", 0}, "sweeps": {"campaign", 0}, "detect": {"campaign", 0},
		"sweep": {"sweeps", 1}, "capture": {"sweep", 2}, "render": {"capture", 2}, "fft": {"capture", 2},
	}
	const eps = 1e-3 // µs: the layout's float sums round
	for _, e := range events {
		w, ok := want[e.Name]
		p, hasParent := byID[e.Args["parent"].(float64)]
		switch {
		case !ok || e.Tid != w.lane:
			t.Errorf("%s on lane %d, want %d", e.Name, e.Tid, w.lane)
		case w.parent == "" && hasParent, w.parent != "" && p.Name != w.parent:
			t.Errorf("%s's parent is %q, want %q", e.Name, p.Name, w.parent)
		case hasParent && (e.Ts < p.Ts-eps || e.Ts+e.Dur > p.Ts+p.Dur+eps):
			t.Errorf("%s [%g, +%g] lies outside its parent %s [%g, +%g]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
	}
}

// TestTracerLanePooling checks the trace packs sweeps onto lanes by start
// time: sequential sweeps reuse lane 1, so a long campaign's trace keeps
// a bounded lane (thread) count, and overlapping ones take the lowest
// free lanes.
func TestTracerLanePooling(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	for i := int64(1); i <= 10; i++ {
		run.Track(i).Emit(Event{Kind: EventSweepStart})
		run.Track(i).Emit(Event{Kind: EventSweepEnd})
	}
	a, b := run.Track(11), run.Track(12)
	a.Emit(Event{Kind: EventSweepStart})
	b.Emit(Event{Kind: EventSweepStart})
	a.Emit(Event{Kind: EventSweepEnd})
	b.Emit(Event{Kind: EventSweepEnd})
	lanes := map[int64]int{}
	for _, e := range chromeEvents(t, run) {
		if e.Name == "sweep" {
			lanes[e.Tid]++
		}
	}
	if len(lanes) != 2 || lanes[1] != 11 || lanes[2] != 1 {
		t.Errorf("sweeps per lane %v, want 11 on lane 1 and 1 on lane 2", lanes)
	}
}

func TestRunStagesAndManifest(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	sweeps := run.Begin("sweeps")
	time.Sleep(2 * time.Millisecond)
	sweeps.End()
	run.Begin("detect").End()
	run.Count(StatCaptures, 8)
	run.RecordPlan(400e3, 409600, 2048, 9, 20)
	m := run.Finish(map[string]any{"fres_hz": 100.0}, 1.5, []DetectionRecord{{
		FreqHz: 315e3, Score: 100, BestHarmonic: 1,
		SubScores: []HarmonicScore{{Harmonic: 1, Score: 100, Elevated: 5}},
	}})
	if m == nil || run.Manifest() != m {
		t.Fatal("Finish did not produce the run's manifest")
	}
	if m2 := run.Finish(nil, 0, nil); m2 != m {
		t.Error("second Finish must return the first manifest")
	}
	if len(m.Stages) != 2 || m.Stages[0].Name != "sweeps" || m.Stages[0].WallSeconds <= 0 {
		t.Errorf("stages: %+v", m.Stages)
	}
	if m.SimulatedAnalyzerSeconds != 1.5 || m.Captures != 8 {
		t.Errorf("manifest totals: %+v", m)
	}
	if p := m.Planner; p.PlansBuilt != 1 || p.ComponentsActive != 9 || p.ComponentsSkipped != 20 {
		t.Errorf("planner block not built from the recorded plan: %+v", p)
	}
	// Each stage is a child of the trace's root span.
	spans := map[string]chromeEvent{}
	for _, e := range chromeEvents(t, run) {
		spans[e.Name] = e
	}
	root, ok := spans["campaign"]
	if len(spans) != 3 || !ok || root.Args["parent"] != 0.0 ||
		spans["sweeps"].Args["parent"] != root.Args["id"] || spans["detect"].Args["parent"] != root.Args["id"] {
		t.Errorf("stage spans: %+v", spans)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(data); err != nil {
		t.Errorf("finished manifest fails validation: %v", err)
	}
}

func TestRunComponentRenderStats(t *testing.T) {
	run := NewRun()
	sweeps := run.Begin("sweeps")
	// Let the stage dominate the run's wall time so validation's stage-sum
	// check has a meaningful denominator.
	time.Sleep(5 * time.Millisecond)
	sweeps.End()
	run.Count(StatCaptures, 1)
	run.AddComponentRender("reg A", 0.002)
	run.AddComponentRender("reg A", 0.003)
	run.AddComponentRender("crystal", 0.001)
	run.AddComponentReplay("crystal")
	run.AddComponentReplay("crystal")
	m := run.Finish("cfg", 0, nil)
	if len(m.RenderComponents) != 2 {
		t.Fatalf("render components: %+v", m.RenderComponents)
	}
	// Sorted by wall time, heaviest first.
	if m.RenderComponents[0].Name != "reg A" || m.RenderComponents[0].Renders != 2 {
		t.Errorf("heaviest component: %+v", m.RenderComponents[0])
	}
	if m.RenderComponents[0].WallSeconds < 0.005-1e-12 {
		t.Errorf("wall not accumulated: %+v", m.RenderComponents[0])
	}
	if c := m.RenderComponents[1]; c.Name != "crystal" || c.Renders != 1 || c.Replays != 2 {
		t.Errorf("replay attribution: %+v", c)
	}
	if m.Planner.StaticReplays != 2 {
		t.Errorf("planner static replays %d, want the table's 2", m.Planner.StaticReplays)
	}
	if h := m.Histograms[MetricRenderComponentSeconds]; h.Count != 3 {
		t.Errorf("component render histogram count %d, want 3", h.Count)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateManifest(data); err != nil {
		t.Errorf("manifest with component stats fails validation: %v", err)
	}
}

func TestFinishSanitizesNonFinite(t *testing.T) {
	run := NewRun()
	run.Begin("s").End()
	run.Count(StatCaptures, 1)
	inf := func() float64 { var z float64; return -1 / z }()
	m := run.Finish("cfg", 0, []DetectionRecord{{
		FreqHz: 1e3, Score: 10, BestHarmonic: -1, DepthDB: inf, MagnitudeDBm: inf,
		SubScores: []HarmonicScore{{Harmonic: -1, Score: -inf, Elevated: 1}},
	}})
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("manifest with sanitized floats still unmarshalable: %v", err)
	}
	if m.Detections[0].DepthDB != -999 || m.Detections[0].MagnitudeDBm != -999 {
		t.Errorf("-Inf not clamped: %+v", m.Detections[0])
	}
}

// validHistogramSnapshot is a consistent histogram record the validator
// must accept; the reject cases each break one invariant.
func validHistogramSnapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: 4, Sum: 5.5,
		Bounds: []float64{1, 2, 4},
		Counts: []int64{1, 2, 1, 0},
		P50:    1.5, P90: 3.2, P99: 3.92,
	}
}

// validAdaptiveStats is a consistent adaptive-planner record the
// validator must accept; the reject cases each break one invariant.
func validAdaptiveStats() *AdaptiveStats {
	return &AdaptiveStats{
		Budget: 30, CapturesUsed: 19, ExhaustiveCaptures: 100,
		ReconCaptures: 4, RefineCaptures: 15,
		ReconFresHz: 800, Candidates: 3,
		Windows: []AdaptiveWindow{
			{F1Hz: 264e3, F2Hz: 365e3, Priority: 291.1, Outcome: WindowRefined, Captures: 5, ProbeScore: 893.7, Detections: 1},
			{F1Hz: 600e3, F2Hz: 700e3, Priority: 2.0, Outcome: WindowSkipped},
		},
	}
}

func TestValidateManifestRejects(t *testing.T) {
	base := func() *Manifest {
		run := NewRun()
		sweeps := run.Begin("sweeps")
		// Let the stage dominate the run's wall time so the 10% stage-sum
		// check has a meaningful denominator.
		time.Sleep(5 * time.Millisecond)
		sweeps.End()
		run.Count(StatCaptures, 1)
		return run.Finish("cfg", 0, nil)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"wrong schema", func(m *Manifest) { m.Schema = "bogus/9" }},
		{"no created", func(m *Manifest) { m.CreatedUnix = 0 }},
		{"no config", func(m *Manifest) { m.Config = nil }},
		{"no stages", func(m *Manifest) { m.Stages = nil }},
		{"negative stage", func(m *Manifest) { m.Stages[0].WallSeconds = -1 }},
		{"stage sum off", func(m *Manifest) { m.TotalWallSeconds = m.TotalWallSeconds*10 + 1 }},
		{"no captures", func(m *Manifest) { m.Captures = 0 }},
		{"missing cache", func(m *Manifest) { delete(m.Caches, "render_static") }},
		{"bad hit rate", func(m *Manifest) { m.Caches["specan_plan"] = CacheStats{HitRate: 2} }},
		{"negative planner", func(m *Manifest) { m.Planner.PlansBuilt = -1 }},
		{"detection without provenance", func(m *Manifest) {
			m.Detections = []DetectionRecord{{FreqHz: 1, BestHarmonic: 1}}
		}},
		{"detection without harmonic", func(m *Manifest) {
			m.Detections = []DetectionRecord{{FreqHz: 1, SubScores: []HarmonicScore{{Harmonic: 1}}}}
		}},
		{"unnamed render component", func(m *Manifest) {
			m.RenderComponents = []ComponentRenderStats{{Renders: 1, WallSeconds: 0.1}}
		}},
		{"negative render component", func(m *Manifest) {
			m.RenderComponents = []ComponentRenderStats{{Name: "reg", Renders: -1}}
		}},
		{"adaptive zero budget", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.Budget = 0
		}},
		{"adaptive overspent", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.CapturesUsed = m.Adaptive.Budget + 1
		}},
		{"adaptive split mismatch", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.ReconCaptures++
		}},
		{"adaptive zero exhaustive", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.ExhaustiveCaptures = 0
		}},
		{"adaptive bad recon fres", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.ReconFresHz = 0
		}},
		{"adaptive unknown outcome", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.Windows[0].Outcome = "hesitated"
		}},
		{"adaptive empty window", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.Windows[0].F2Hz = m.Adaptive.Windows[0].F1Hz
		}},
		{"adaptive skipped but charged", func(m *Manifest) {
			m.Adaptive = validAdaptiveStats()
			m.Adaptive.Windows[1].Captures = 3
		}},
		{"empty build version", func(m *Manifest) { m.Build.Version = "" }},
		{"empty build go version", func(m *Manifest) { m.Build.GoVersion = "" }},
		{"empty build os", func(m *Manifest) { m.Build.OS = "" }},
		{"empty build arch", func(m *Manifest) { m.Build.Arch = "" }},
		{"events zero emitted", func(m *Manifest) { m.Events = &EventStats{} }},
		{"events negative dropped", func(m *Manifest) {
			m.Events = &EventStats{Emitted: 5, Dropped: -1}
		}},
		{"histogram counts/bounds mismatch", func(m *Manifest) {
			h := validHistogramSnapshot()
			h.Counts = h.Counts[:len(h.Counts)-1]
			m.Histograms = map[string]HistogramSnapshot{"h": h}
		}},
		{"histogram negative bucket", func(m *Manifest) {
			h := validHistogramSnapshot()
			h.Counts[0] = -1
			m.Histograms = map[string]HistogramSnapshot{"h": h}
		}},
		{"histogram count/bucket mismatch", func(m *Manifest) {
			h := validHistogramSnapshot()
			h.Count++
			m.Histograms = map[string]HistogramSnapshot{"h": h}
		}},
		{"histogram quantiles not monotone", func(m *Manifest) {
			h := validHistogramSnapshot()
			h.P90 = h.P50 / 2
			m.Histograms = map[string]HistogramSnapshot{"h": h}
		}},
	}
	for _, tc := range cases {
		m := base()
		tc.mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := ValidateManifest(data); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	// The unmutated base must validate.
	data, _ := json.Marshal(base())
	if err := ValidateManifest(data); err != nil {
		t.Fatalf("base manifest invalid: %v", err)
	}
	// ... as must the base carrying a well-formed adaptive block.
	withAdaptive := base()
	withAdaptive.Adaptive = validAdaptiveStats()
	data, _ = json.Marshal(withAdaptive)
	if err := ValidateManifest(data); err != nil {
		t.Fatalf("manifest with adaptive stats invalid: %v", err)
	}
	// ... and one carrying event stats and histogram quantiles.
	withObs := base()
	withObs.Events = &EventStats{Emitted: 17, Dropped: 2}
	withObs.Histograms = map[string]HistogramSnapshot{"h": validHistogramSnapshot()}
	data, _ = json.Marshal(withObs)
	if err := ValidateManifest(data); err != nil {
		t.Fatalf("manifest with events and histograms invalid: %v", err)
	}
	if err := ValidateManifest([]byte("{")); err == nil {
		t.Error("malformed JSON validated")
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fase_test_total").Add(7)
	ds, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "fase_test_total") {
		t.Errorf("/metrics missing counter: %s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %q", body)
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/goroutine not served")
	}
	if (*DebugServer)(nil).Close() != nil {
		t.Error("nil server Close must be a no-op")
	}
}

func TestProcessCPUSeconds(t *testing.T) {
	c0 := processCPUSeconds()
	if c0 < 0 {
		t.Fatalf("negative CPU time %g", c0)
	}
	// Burn a little CPU; the reading must not decrease.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	if c1 := processCPUSeconds(); c1 < c0 {
		t.Errorf("CPU time went backwards: %g -> %g", c0, c1)
	}
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDebugServerShutdownDrainsSSE is the goroutine-leak regression test
// for DebugServer.Close: with an SSE client parked on /events, Close must
// unblock the streaming handler and return promptly instead of leaking
// the handler goroutine (or hanging in Shutdown forever).
func TestDebugServerShutdownDrainsSSE(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	run.Track(0).Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
	ds, err := Serve("127.0.0.1:0", NewRegistry(), run)
	if err != nil {
		t.Fatal(err)
	}
	// Use a dedicated transport so the goroutine accounting below sees
	// only this test's client connections, not a shared keepalive pool.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	before := runtime.NumGoroutine()

	resp, err := client.Get("http://" + ds.Addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Read the backlog frame so the handler is provably inside its
	// streaming loop before we shut down.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "id: ") {
		t.Fatalf("SSE first line %q, err %v", line, err)
	}

	done := make(chan error, 1)
	go func() { done <- ds.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with an SSE client attached")
	}
	if err := ds.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	resp.Body.Close()
	tr.CloseIdleConnections()

	// The SSE handler, server accept loop, and this test's client
	// goroutines must all wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close: %d > %d\n%s",
			n, before, buf[:runtime.Stack(buf, true)])
	}
}

func TestServeSSEStreamsBacklogAndLive(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	ct := run.Track(0)
	ct.Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
	ds, err := Serve("127.0.0.1:0", NewRegistry(), run)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	readFrame := func() Event {
		t.Helper()
		var data string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("read SSE frame: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(line, "data: ")
			}
			if line == "" && data != "" {
				var e Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("frame %q: %v", data, err)
				}
				return e
			}
		}
	}
	if e := readFrame(); e.Kind != EventCampaignStart {
		t.Fatalf("backlog frame kind %q", e.Kind)
	}
	ct.Emit(Event{Kind: EventCampaignEnd, Captures: 8})
	if e := readFrame(); e.Kind != EventCampaignEnd || e.Captures != 8 {
		t.Fatalf("live frame %+v", e)
	}
}

func TestProgressEndpoint(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	run.Begin("sweeps")
	run.SetTotals(100, 4, 10)
	run.Count(StatCaptures, 25)
	run.progress.simDone.Add(2.5)
	run.Emit(nil, Event{Kind: EventSweepEnd})
	ds, err := Serve("127.0.0.1:0", NewRegistry(), run)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p ProgressInfo
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Stage != "sweeps" || p.CapturesUsed != 25 || p.CapturesTotal != 100 {
		t.Errorf("progress %+v", p)
	}
	if p.PercentComplete != 25 {
		t.Errorf("percent %.1f, want 25", p.PercentComplete)
	}
	if p.SweepsDone != 1 || p.SweepsTotal != 4 {
		t.Errorf("sweeps %d/%d", p.SweepsDone, p.SweepsTotal)
	}
}

func TestProgressAndEventsWithoutRun(t *testing.T) {
	ds, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/progress", "/events"} {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a run: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestPromExpositionGolden locks the Prometheus text rendering against
// testdata/metrics.prom.golden. Regenerate with UPDATE_GOLDEN=1.
func TestPromExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fase_core_campaigns_total").Add(2)
	reg.Counter("fase_obs_events_emitted_total").Add(57)
	reg.Gauge("fase_adaptive_budget_cap").Set(120)
	reg.Gauge(`fase_build_info{version="test",go="go1.24.0",os="linux",arch="amd64"}`).Set(1)
	h := reg.Histogram("fase_specan_render_seconds", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 0.5} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	golden := filepath.Join("testdata", "metrics.prom.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("prometheus exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestMetricsPromEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fase_test_total").Add(7)
	ds, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q", ct)
	}
	body := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), "# TYPE fase_test_total counter") ||
		!strings.Contains(body.String(), "fase_test_total 7") {
		t.Errorf("prom exposition:\n%s", body)
	}
}

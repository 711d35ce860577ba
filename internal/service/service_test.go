package service

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/obs"
	"fase/internal/runstore"
)

// tinyRequest is the shared fast campaign for service tests: a 60 kHz
// band at 500 Hz RBW — one 256-point segment, 4 averages × 5 sweeps =
// 20 captures per job, milliseconds of work.
func tinyRequest(tenant string, seed int64) *ScanRequest {
	return &ScanRequest{
		Tenant: tenant,
		System: "i7-desktop",
		Scan: ScanSpec{
			F1: 300e3, F2: 360e3, Fres: 500,
			FAlt1: 43.3e3, FDelta: 500,
			Seed: seed,
		},
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func listen(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + addr
}

// httpSubmit POSTs a submission and decodes the response.
func httpSubmit(t *testing.T, base string, req *ScanRequest) (ScanStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/scans", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ScanStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func httpStatus(t *testing.T, base, id string) ScanStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/scans/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %s: %d", id, resp.StatusCode)
	}
	var st ScanStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func httpCancel(t *testing.T, base, id string) ScanStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/scans/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: %d", id, resp.StatusCode)
	}
	var st ScanStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls a job's status until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) ScanStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := httpStatus(t, base, id)
		if terminal(st.State) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("scan %s did not reach a terminal state", id)
	return ScanStatus{}
}

// fetchSSE reads the full /events stream of a finished job (backlog
// replay then EOF, since the journal closes at the terminal transition).
func fetchSSE(t *testing.T, url string) []obs.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var out []obs.Event
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			break // EOF once the backlog drains
		}
		line = strings.TrimRight(line, "\n")
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e obs.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("SSE frame %q: %v", data, err)
			}
			out = append(out, e)
		}
	}
	return out
}

// gate is a scene component whose renders block until released — the
// deterministic way to hold a job in the running state. It contributes
// nothing to the spectrum.
type gate struct {
	ch      chan struct{}
	started chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{ch: make(chan struct{}), started: make(chan struct{})}
}

func (g *gate) Name() string { return "testgate" }

func (g *gate) Render(dst []complex128, ctx *emsim.Context) {
	g.once.Do(func() { close(g.started) })
	<-g.ch
}

func (g *gate) release() { close(g.ch) }

// gatedSceneFor wraps the default scene resolver, adding the gate to
// every scene it returns.
func gatedSceneFor(g *gate) func(string, int64, bool) (*emsim.Scene, error) {
	return func(system string, seed int64, environment bool) (*emsim.Scene, error) {
		sc, err := defaultSceneFor(system, seed, environment)
		if err != nil {
			return nil, err
		}
		sc.Add(g)
		return sc, nil
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	base := listen(t, s)
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{{{`},
		{"unknown field", `{"tenant":"a","system":"i7-desktop","scan":{"f1_hz":1,"bogus":2}}`},
		{"no tenant", `{"system":"i7-desktop","scan":{"f1_hz":300e3,"f2_hz":360e3,"fres_hz":500,"falt1_hz":43300,"fdelta_hz":500}}`},
		{"bad system", `{"tenant":"a","system":"nope","scan":{"f1_hz":300e3,"f2_hz":360e3,"fres_hz":500,"falt1_hz":43300,"fdelta_hz":500}}`},
		{"bad priority", `{"tenant":"a","priority":11,"system":"i7-desktop","scan":{"f1_hz":300e3,"f2_hz":360e3,"fres_hz":500,"falt1_hz":43300,"fdelta_hz":500}}`},
		{"inverted band", `{"tenant":"a","system":"i7-desktop","scan":{"f1_hz":2,"f2_hz":1,"fres_hz":500,"falt1_hz":43300,"fdelta_hz":500}}`},
		{"nan fres", `{"tenant":"a","system":"i7-desktop","scan":{"f1_hz":1,"f2_hz":2,"fres_hz":null,"falt1_hz":43300,"fdelta_hz":500}}`},
		{"over capture budget", `{"tenant":"a","system":"i7-desktop","scan":{"f1_hz":0,"f2_hz":4.0e9,"fres_hz":1,"falt1_hz":43300,"fdelta_hz":500,"max_fft":64}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+"/v1/scans", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("error body missing: %v %v", e, err)
			}
		})
	}
}

// TestParseRejectsScoringWidths: a submission's scoring widths are
// bounded — smoothing and merge widths by the band's bin count (120 on
// the tiny request's band), the elevation gate by its measurements —
// while the widest legal values, and a disabled gate, still parse.
func TestParseRejectsScoringWidths(t *testing.T) {
	body := func(extra string) string {
		return `{"tenant":"a","system":"i7-desktop","scan":{"f1_hz":300e3,"f2_hz":360e3,` +
			`"fres_hz":500,"falt1_hz":43300,"fdelta_hz":500` + extra + `}}`
	}
	for _, tc := range []struct {
		extra string
		ok    bool
	}{
		{`,"smooth_bins":-1`, false},
		{`,"merge_bins":-1`, false},
		{`,"smooth_bins":121`, false},
		{`,"merge_bins":67108864`, false},
		{`,"min_elevated":6`, false},
		{`,"num_alts":3,"min_elevated":4`, false},
		{`,"smooth_bins":120,"merge_bins":120,"min_elevated":5`, true},
		{`,"min_elevated":-1`, true},
	} {
		_, _, err := parseScanRequest(strings.NewReader(body(tc.extra)))
		if (err == nil) != tc.ok {
			t.Errorf("%s: parse error %v, want accepted %v", tc.extra, err, tc.ok)
		}
	}
}

// TestPriceBoundsAlternationTrace: admission prices the alternation trace
// each sweep preallocates, for exhaustive and adaptive submissions alike,
// and still admits Figure 10's campaigns and the longest sweep the
// simulated-time guard lets through at the paper's ladder.
func TestPriceBoundsAlternationTrace(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	for _, adaptive := range []bool{false, true} {
		req := tinyRequest("a", 1)
		req.Scan.FAlt1 = 1e9
		if adaptive {
			req.Scan.Adaptive, req.Scan.Budget = true, 60
		}
		c, err := req.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		if herr := s.price(c); herr == nil || herr.status != http.StatusBadRequest {
			t.Errorf("adaptive %v: a 1 GHz alternation priced as %v, want a 400", adaptive, herr)
		}
	}
	admit := core.PaperCampaigns(activity.LDM, activity.LDL1)
	// 6 segments × 4 averages × 5 s captures × 5 sweeps: exactly the
	// 600 s guard, with a 47.3 kHz ladder top.
	admit = append(admit, core.Campaign{F1: 100e3, F2: 210e3, Fres: 0.2,
		FAlt1: 43.3e3, FDelta: 1e3, X: activity.LDM, Y: activity.LDL1})
	for i, c := range admit {
		if herr := s.price(c); herr != nil {
			t.Errorf("campaign %d rejected: %v", i, herr)
		}
	}
}

// TestMetricsPrometheus: the service's /metrics serves the process
// registry as Prometheus text with ?format=prom.
func TestMetricsPrometheus(t *testing.T) {
	base := listen(t, newServer(t, Config{Workers: 1}))
	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "# TYPE fase_service_submitted_total counter\n") {
		t.Errorf("Prometheus body lacks the submission counter:\n%s", body)
	}
}

func TestListFiltersByTenant(t *testing.T) {
	s := newServer(t, Config{Workers: 2, MaxActive: 2})
	base := listen(t, s)
	ids := map[string]string{}
	for i, tenant := range []string{"alpha", "beta", "alpha"} {
		st, code := httpSubmit(t, base, tinyRequest(tenant, int64(100+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids[st.ID] = tenant
	}
	resp, err := http.Get(base + "/v1/scans?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Scans []ScanStatus `json:"scans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Scans) != 2 {
		t.Fatalf("tenant filter returned %d scans, want 2", len(body.Scans))
	}
	for _, st := range body.Scans {
		if st.Tenant != "alpha" {
			t.Errorf("scan %s has tenant %q", st.ID, st.Tenant)
		}
	}
	for id := range ids {
		waitTerminal(t, base, id)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	base := listen(t, s)
	st, code := httpSubmit(t, base, tinyRequest("acme", 3))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitTerminal(t, base, st.ID)
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 1 || stats.Completed != 1 {
		t.Errorf("stats %+v, want 1 submitted and completed", stats)
	}
	if stats.Shards != int64(5) {
		t.Errorf("shards %d, want 5 (one per ladder sweep)", stats.Shards)
	}
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz %d", hr.StatusCode)
	}
}

func TestResubmitIdenticalServedFromCache(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	base := listen(t, s)
	first, code := httpSubmit(t, base, tinyRequest("acme", 9))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitTerminal(t, base, first.ID)
	if fin.State != StateDone {
		t.Fatalf("first run state %s (%s)", fin.State, fin.Error)
	}
	again, code := httpSubmit(t, base, tinyRequest("other-tenant", 9))
	if code != http.StatusOK {
		t.Fatalf("cached resubmit status %d, want 200", code)
	}
	if !again.Cached || again.State != StateDone {
		t.Fatalf("resubmit %+v, want cached done", again)
	}
	if again.ResultID != fin.ResultID {
		t.Fatalf("result ids differ: %s vs %s", again.ResultID, fin.ResultID)
	}
	if again.Detections != fin.Detections {
		t.Fatalf("cached detections %d, want %d", again.Detections, fin.Detections)
	}
	// A different seed is different work: a fresh job, not a cache hit.
	fresh, code := httpSubmit(t, base, tinyRequest("acme", 10))
	if code != http.StatusAccepted || fresh.Cached {
		t.Fatalf("different seed: status %d cached %v", code, fresh.Cached)
	}
	waitTerminal(t, base, fresh.ID)
	if fresh.ResultID == fin.ResultID {
		t.Fatal("different seeds share a result id")
	}
}

// TestStoreEntryFromOlderModelNotServed: a run archived before run ids
// carried the model version sits at its config's unversioned address,
// the SHA-256 of the canonical config JSON alone, and a run archived
// under model m at the SHA-256 of "fase-model/m\n" and that JSON: model 1
// before the polyphase impulse kernel moved every score, model 2 before
// the Horner regulator kernel did. Submitting that config must render it
// afresh instead of serving any old manifest as a cache hit.
func TestStoreEntryFromOlderModelNotServed(t *testing.T) {
	dir := t.TempDir()
	req := tinyRequest("acme", 9)
	c, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.ResolvedConfig()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resultConfig{System: req.System, Environment: req.Environment, Scan: rc})
	if err != nil {
		t.Fatal(err)
	}
	var canon any
	if err := json.Unmarshal(raw, &canon); err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	oldID := hex.EncodeToString(sum[:])[:runstore.IDLen]
	staleIDs := []string{oldID}
	for _, model := range []string{"fase-model/1\n", "fase-model/2\n"} {
		sum = sha256.Sum256(append([]byte(model), raw...))
		staleIDs = append(staleIDs, hex.EncodeToString(sum[:])[:runstore.IDLen])
	}
	stale, err := json.Marshal(&obs.Manifest{Schema: obs.ManifestSchema, Config: canon, Captures: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range staleIDs {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), stale, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := newServer(t, Config{Workers: 2, StoreDir: dir})
	base := listen(t, s)
	st, code := httpSubmit(t, base, req)
	if code != http.StatusAccepted || st.Cached {
		t.Fatalf("submit status %d cached %v, want a fresh job (202)", code, st.Cached)
	}
	for _, id := range staleIDs {
		if st.ResultID == id {
			t.Fatalf("result id %s is an older model's address", st.ResultID)
		}
	}
	fin := waitTerminal(t, base, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if fin.Captures != 20 {
		t.Fatalf("job reports %d captures, want the 20 it renders", fin.Captures)
	}
}

func TestServeShutsDownPromptlyWithSSEClient(t *testing.T) {
	g := newGate()
	s := newServer(t, Config{Workers: 2, MaxActive: 1, SceneFor: gatedSceneFor(g)})
	base := listen(t, s)
	st, code := httpSubmit(t, base, tinyRequest("acme", 21))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-g.started
	// Park an SSE client on the running job's live stream.
	resp, err := http.Get(base + "/v1/scans/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "id: ") {
		t.Fatalf("SSE first line %q, err %v", line, err)
	}
	g.release()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close did not return with an SSE client attached")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Admission after shutdown answers 503 at the API level (the
	// listener may already be closed, so a transport error is fine too).
	if _, code := trySubmit(http.DefaultClient, base, tinyRequest("late", 99)); code != 0 &&
		code != http.StatusServiceUnavailable {
		t.Errorf("post-Close submit status %d, want 503 or refused connection", code)
	}
}

// trySubmit is httpSubmit without the test fatals: returns code 0 on
// transport errors.
func trySubmit(client *http.Client, base string, req *ScanRequest) (ScanStatus, int) {
	body, err := json.Marshal(req)
	if err != nil {
		return ScanStatus{}, 0
	}
	resp, err := client.Post(base+"/v1/scans", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return ScanStatus{}, 0
	}
	defer resp.Body.Close()
	var st ScanStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		_ = json.NewDecoder(resp.Body).Decode(&st)
	}
	return st, resp.StatusCode
}

// TestServerRecoversStore checks that a starting server reclaims the
// temporary file a crash left mid-archive in its store before it accepts
// any job: a day-old <id>.json.*.tmp is gone once New returns.
func TestServerRecoversStore(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "0123456789ab.json.42.tmp")
	if err := os.WriteFile(orphan, []byte(`{"schema": "fase-ru`), 0o644); err != nil {
		t.Fatal(err)
	}
	day := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(orphan, day, day); err != nil {
		t.Fatal(err)
	}
	newServer(t, Config{StoreDir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived server start: %v", err)
	}
}

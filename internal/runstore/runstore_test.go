package runstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fase/internal/obs"
)

// storeManifest is a minimal but valid manifest for store tests; config
// and created time vary per run.
func storeManifest(created int64, config map[string]any) *obs.Manifest {
	return &obs.Manifest{
		Schema:           obs.ManifestSchema,
		CreatedUnix:      created,
		Config:           config,
		Build:            obs.BuildInfo{Version: "test", GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"},
		Stages:           []obs.StageTiming{{Name: "sweeps", WallSeconds: 0.5, CPUSeconds: 0.5}},
		TotalWallSeconds: 0.5, TotalCPUSeconds: 0.5,
		Captures: 10,
		Caches: map[string]obs.CacheStats{
			"fft_plan": {Hits: 9, Misses: 1, HitRate: 0.9},
			"window":   {}, "bufpool_complex": {}, "bufpool_float": {},
			"specan_plan": {}, "render_static": {},
		},
		Detections: []obs.DetectionRecord{{
			FreqHz: 315e3, Score: 100, BestHarmonic: 1,
			SubScores: []obs.HarmonicScore{{Harmonic: 1, Score: 100, Elevated: 5}},
		}},
	}
}

func TestConfigIDCanonicalization(t *testing.T) {
	// A struct-typed config and its file-round-tripped map form must hash
	// identically — that is what makes archive ids stable across processes.
	type cfg struct {
		F1   float64 `json:"f1_hz"`
		Seed int64   `json:"seed"`
	}
	a, err := ConfigID(cfg{F1: 250e3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigID(map[string]any{"seed": 21.0, "f1_hz": 250000.0})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != IDLen {
		t.Fatalf("ids differ: %q vs %q", a, b)
	}
	c, err := ConfigID(cfg{F1: 250e3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seeds must produce different ids")
	}
}

func TestStoreAddListResolve(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := storeManifest(100, map[string]any{"seed": 1.0})
	m2 := storeManifest(200, map[string]any{"seed": 2.0})
	e1, err := s.Add(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Add(m2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.ID == e2.ID {
		t.Fatal("distinct configs collided")
	}

	entries, skipped, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("healthy store reported skipped entries %v", skipped)
	}
	if len(entries) != 2 || entries[0].ID != e2.ID || entries[1].ID != e1.ID {
		t.Fatalf("list not newest-first: %+v", entries)
	}

	// @N references.
	if _, id, err := s.Resolve("@0"); err != nil || id != e2.ID {
		t.Errorf("@0 -> %q, %v; want %q", id, err, e2.ID)
	}
	if _, id, err := s.Resolve("@1"); err != nil || id != e1.ID {
		t.Errorf("@1 -> %q, %v; want %q", id, err, e1.ID)
	}
	if _, _, err := s.Resolve("@2"); err == nil {
		t.Error("@2 must fail on a two-run store")
	}
	if _, _, err := s.Resolve("@-1"); err == nil {
		t.Error("@-1 must be rejected")
	}

	// Unique id prefix; full id; missing; ambiguous is hard to force with
	// random hashes, so cover the miss path instead.
	if _, id, err := s.Resolve(e1.ID[:6]); err != nil || id != e1.ID {
		t.Errorf("prefix -> %q, %v", id, err)
	}
	if _, id, err := s.Resolve(e2.ID); err != nil || id != e2.ID {
		t.Errorf("full id -> %q, %v", id, err)
	}
	if _, _, err := s.Resolve("zzzzzz"); err == nil {
		t.Error("unknown reference must fail")
	}

	// File-path references bypass the store.
	if _, label, err := s.Resolve(e1.Path); err != nil || label != e1.Path {
		t.Errorf("path -> %q, %v", label, err)
	}

	// Re-adding the same config overwrites in place.
	again, err := s.Add(storeManifest(300, map[string]any{"seed": 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != e1.ID {
		t.Fatalf("re-add changed id: %q vs %q", again.ID, e1.ID)
	}
	entries, _, _ = s.List()
	if len(entries) != 2 {
		t.Fatalf("overwrite grew the store to %d entries", len(entries))
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must be rejected")
	}
}

func TestCompareAndWriteText(t *testing.T) {
	a := storeManifest(100, map[string]any{"fres_hz": 200.0, "merge_bins": 5.0})
	a.Stages = append(a.Stages, obs.StageTiming{Name: "detect", WallSeconds: 0.1, CPUSeconds: 0.1})
	a.Caches = map[string]obs.CacheStats{"fft_plan": {Hits: 9, Misses: 1, HitRate: 0.9}}
	a.Planner.StaticReplays = 40
	a.Adaptive = &obs.AdaptiveStats{
		Budget: 30, CapturesUsed: 20, ExhaustiveCaptures: 100,
		ReconCaptures: 5, RefineCaptures: 15, ReconFresHz: 1600, Candidates: 2,
	}

	b := storeManifest(200, map[string]any{"fres_hz": 200.0, "merge_bins": 5.0})
	b.Stages = []obs.StageTiming{
		{Name: "sweeps", WallSeconds: 0.4, CPUSeconds: 0.4},
		{Name: "score", WallSeconds: 0.05, CPUSeconds: 0.05},
	}
	b.Caches = map[string]obs.CacheStats{"window": {Hits: 5, Misses: 5, HitRate: 0.5}}
	// One detection within tolerance of A's (matched), one far away
	// (only-B); A keeps none unmatched.
	b.Detections = []obs.DetectionRecord{
		{FreqHz: 315.4e3, Score: 120, BestHarmonic: 1,
			SubScores: []obs.HarmonicScore{{Harmonic: 1, Score: 120, Elevated: 5}}},
		{FreqHz: 900e3, Score: 50, BestHarmonic: -1,
			SubScores: []obs.HarmonicScore{{Harmonic: -1, Score: 50, Elevated: 4}}},
	}

	d := Compare(a, b, "runA", "runB")
	if d.Detections.ToleranceHz != 1000 {
		t.Errorf("tolerance %.0f, want 1000 (200 Hz × 5 bins)", d.Detections.ToleranceHz)
	}
	if len(d.Detections.Matched) != 1 || len(d.Detections.OnlyA) != 0 || len(d.Detections.OnlyB) != 1 {
		t.Fatalf("detection diff: %+v", d.Detections)
	}
	if d.Detections.Matched[0].ScoreB != 120 {
		t.Errorf("matched pair: %+v", d.Detections.Matched[0])
	}
	// Stage union: A's order first (sweeps, detect), then B-only (score).
	names := make([]string, len(d.Stages))
	for i, st := range d.Stages {
		names[i] = st.Name
	}
	if strings.Join(names, ",") != "sweeps,detect,score" {
		t.Errorf("stage union order: %v", names)
	}
	if !d.Stages[0].InA || !d.Stages[0].InB || d.Stages[1].InB || d.Stages[2].InA {
		t.Errorf("stage membership flags: %+v", d.Stages)
	}
	if len(d.Caches) != 2 {
		t.Errorf("cache union: %+v", d.Caches)
	}
	if d.Adaptive == nil || d.Adaptive.BudgetA != 30 || d.Adaptive.BudgetB != 0 {
		t.Errorf("adaptive delta: %+v", d.Adaptive)
	}

	var sb strings.Builder
	if err := d.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"run diff: A=runA  B=runB",
		"sweeps", "detect", "score", "total",
		"static replays: A=40  B=0",
		"fft_plan", "window",
		"adaptive spend",
		"1 matched, 0 only in A, 1 only in B",
		"(only in B)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestCompareNoAdaptive(t *testing.T) {
	a := storeManifest(1, map[string]any{"x": 1.0})
	b := storeManifest(2, map[string]any{"x": 2.0})
	d := Compare(a, b, "a", "b")
	if d.Adaptive != nil {
		t.Error("no adaptive stats on either side must yield no adaptive delta")
	}
	// Default tolerance applies when the config carries no fres/merge.
	if d.Detections.ToleranceHz != 1e3 {
		t.Errorf("fallback tolerance %.0f", d.Detections.ToleranceHz)
	}
	if len(d.Detections.Matched) != 1 {
		t.Errorf("identical detections must match: %+v", d.Detections)
	}
}

func TestArchivedManifestsValidate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Add(storeManifest(10, map[string]any{"seed": 7.0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestFile(e.Path); err != nil {
		t.Fatalf("archived manifest fails validation: %v", err)
	}
	// A corrupt file in the store is reported by List, never silently
	// dropped, and never hides the valid entry beside it.
	bad := filepath.Join(dir, "deadbeef0000.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != e.ID {
		t.Errorf("List beside a corrupt file = %+v, want only %s", entries, e.ID)
	}
	if len(skipped) != 1 || skipped[0] != bad {
		t.Errorf("List skipped %v, want [%s]", skipped, bad)
	}
}

// TestStoreTornManifest plants a truncated manifest — what an in-place
// write interrupted by a crash leaves behind — beside two good ones: the
// store must still list and resolve the good runs, by @N and by id, and
// name the bad file.
func TestStoreTornManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Add(storeManifest(100, map[string]any{"seed": 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Add(storeManifest(200, map[string]any{"seed": 2.0}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(e1.Path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(s.Dir, "0123456789ab.json")
	if err := os.WriteFile(torn, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	entries, skipped, err := s.List()
	if err != nil {
		t.Fatalf("List failed on a store with one torn entry: %v", err)
	}
	if len(entries) != 2 || entries[0].ID != e2.ID || entries[1].ID != e1.ID {
		t.Errorf("List = %+v, want [%s %s]", entries, e2.ID, e1.ID)
	}
	if len(skipped) != 1 || skipped[0] != torn {
		t.Errorf("List skipped %v, want [%s]", skipped, torn)
	}
	for ref, want := range map[string]string{"@0": e2.ID, "@1": e1.ID, e1.ID[:6]: e1.ID} {
		if _, id, err := s.Resolve(ref); err != nil || id != want {
			t.Errorf("Resolve(%s) = %q, %v; want %q", ref, id, err, want)
		}
	}
}

// TestStoreMissBesideCorruptEntry pins the cost and the answer of a
// lookup miss in a store holding an unparsable manifest: a missing id or
// a missing path must come back as not-found (the campaign service treats
// it as a cache miss and renders), not as the unrelated entry's parse
// error, which is what a lookup that lists the whole store reports.
func TestStoreMissBesideCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(storeManifest(100, map[string]any{"seed": 1.0})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir, "deadbeef0000.json"), []byte(`{"schema":`), 0o644); err != nil {
		t.Fatal(err)
	}
	const missing = "0123456789ab"
	for _, ref := range []string{missing, filepath.Join(s.Dir, missing+".json")} {
		if _, _, err := s.Resolve(ref); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Resolve(%s) error %v, want one wrapping fs.ErrNotExist", ref, err)
		}
	}
}

// TestStoreLookup covers the service's single-open lookup: a hit returns
// the archived manifest, a miss wraps fs.ErrNotExist, and a corrupt entry
// returns its parse error (a cache miss to the caller, never a crash).
func TestStoreLookup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Add(storeManifest(100, map[string]any{"seed": 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := s.Lookup(e.ID); err != nil || m.CreatedUnix != 100 {
		t.Errorf("Lookup(%s) = %+v, %v", e.ID, m, err)
	}
	if _, err := s.Lookup("0123456789ab"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Lookup of a missing id: %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir, "deadbeef0000.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup("deadbeef0000"); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Lookup of a corrupt entry: %v, want a parse error", err)
	}
}

// TestStoreAddAtomic races completions of one id against readers: every
// read must see a complete manifest (an in-place write exposes truncated
// files between its truncate and its last write), and no temporary file
// may outlive the writes.
func TestStoreAddAtomic(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := map[string]any{"seed": 1.0}
	e, err := s.Add(storeManifest(1, cfg))
	if err != nil {
		t.Fatal(err)
	}
	const writers, adds = 4, 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if _, err := s.Add(storeManifest(int64(w*adds+i), cfg)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	reads, torn := 0, 0
	var readErr error
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		reads++
		if _, err := s.Lookup(e.ID); err != nil {
			torn++
			readErr = err
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d concurrent reads saw an incomplete manifest (last: %v)", torn, reads, readErr)
	}
	left, err := filepath.Glob(filepath.Join(s.Dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("store holds %v after the writes, want only %s", left, e.Path)
	}
}

// TestStoreRecover plants the temporary files of two interrupted Adds
// beside two archived runs and a torn entry: one older than orphanAge (a
// crashed writer's) and one fresh (a concurrent writer's, mid-write).
// Recover must remove only the old one, and List — entries and skipped
// set — must read the same before and after.
func TestStoreRecover(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.Add(storeManifest(100, map[string]any{"seed": 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(storeManifest(200, map[string]any{"seed": 2.0})); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(s.Dir, "0123456789ab.json")
	if err := os.WriteFile(torn, []byte(`{"schema": "fase-run`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(s.Dir, e1.ID+".json.1111.tmp")
	fresh := filepath.Join(s.Dir, e1.ID+".json.2222.tmp")
	for _, path := range []string{old, fresh} {
		if err := os.WriteFile(path, []byte(`{"schema": "fase-ru`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * orphanAge)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := s.List()
	if err != nil {
		t.Fatal(err)
	}

	removed, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(removed) != 1 || removed[0] != old {
		t.Errorf("Recover removed %v, want [%s]", removed, old)
	}
	if _, err := os.Stat(old); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("orphaned temp file survived recovery: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("in-flight temp file did not survive recovery: %v", err)
	}
	after, skippedAfter, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, entries) || !slices.Equal(skippedAfter, skipped) {
		t.Errorf("List changed across recovery: %v %v, then %v %v", entries, skipped, after, skippedAfter)
	}
	if len(after) != 2 || len(skippedAfter) != 1 || skippedAfter[0] != torn {
		t.Errorf("List = %v, skipped %v; want 2 runs and the torn entry", after, skippedAfter)
	}
}

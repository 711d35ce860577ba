package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/obs"
)

// deterministicManifest strips from m what legitimately differs between
// identical runs — timings and build identity — keeping histogram counts
// and the component table's counts (sorted by name).
func deterministicManifest(m *obs.Manifest) obs.Manifest {
	d := *m
	d.CreatedUnix, d.Build = 0, obs.BuildInfo{}
	d.TotalWallSeconds, d.TotalCPUSeconds = 0, 0
	d.RenderSeconds, d.FFTSeconds = 0, 0
	d.Stages = append([]obs.StageTiming(nil), m.Stages...)
	for i := range d.Stages {
		d.Stages[i].WallSeconds, d.Stages[i].CPUSeconds = 0, 0
	}
	d.RenderComponents = append([]obs.ComponentRenderStats(nil), m.RenderComponents...)
	for i := range d.RenderComponents {
		d.RenderComponents[i].WallSeconds = 0
	}
	sort.Slice(d.RenderComponents, func(i, j int) bool {
		return d.RenderComponents[i].Name < d.RenderComponents[j].Name
	})
	d.Histograms = make(map[string]obs.HistogramSnapshot, len(m.Histograms))
	for name, h := range m.Histograms {
		d.Histograms[name] = obs.HistogramSnapshot{Count: h.Count}
	}
	return d
}

// sameManifest reports whether got and want agree in everything but
// timings and build identity, logging both when they do not.
func sameManifest(t *testing.T, what string, got, want *obs.Manifest) bool {
	t.Helper()
	g, w := deterministicManifest(got), deterministicManifest(want)
	if reflect.DeepEqual(g, w) {
		return true
	}
	gj, _ := json.MarshalIndent(g, "", " ")
	wj, _ := json.MarshalIndent(w, "", " ")
	t.Errorf("%s: manifest differs:\ngot  %s\nwant %s", what, gj, wj)
	return false
}

// fetchResult fetches a finished job's archived manifest.
func fetchResult(t *testing.T, base, id string) *obs.Manifest {
	t.Helper()
	resp, err := http.Get(base + "/v1/scans/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	return decodeManifest(t, resp)
}

// TestConcurrentJobManifestsEquivalence is the attribution gate: four
// jobs on distinct (system, seed) pairs run at once on one server, and
// each archived manifest must equal the manifest of the same job run
// alone on a fresh server, in everything but timings and build identity.
// A gate holds every job's first shards until all four are running, so
// their captures genuinely interleave on the shared worker fleet. Runs
// under -race in make equivalence.
func TestConcurrentJobManifestsEquivalence(t *testing.T) {
	var reqs []*ScanRequest
	for i, system := range []string{"i7-desktop", "turion-laptop", "p3m-laptop", "fivr-desktop"} {
		req := tinyRequest("acme", int64(11+i))
		req.System = system
		reqs = append(reqs, req)
	}
	cfg := Config{Workers: 4, MaxActive: 4}

	g := newGate()
	cfg.SceneFor = gatedSceneFor(g)
	s := newServer(t, cfg)
	base := listen(t, s)
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		st, code := httpSubmit(t, base, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", req.System, code)
		}
		ids[i] = st.ID
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Running < int64(len(reqs)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs running", s.Stats().Running, len(reqs))
		}
		time.Sleep(time.Millisecond)
	}
	g.release()
	together := make([]*obs.Manifest, len(reqs))
	for i, id := range ids {
		if fin := waitTerminal(t, base, id); fin.State != StateDone {
			t.Fatalf("%s: job finished %s: %s", reqs[i].System, fin.State, fin.Error)
		}
		together[i] = fetchResult(t, base, id)
	}

	for i, req := range reqs {
		solo := newGate()
		solo.release()
		cfg.SceneFor = gatedSceneFor(solo)
		s := newServer(t, cfg)
		base := listen(t, s)
		st, code := httpSubmit(t, base, req)
		if code != http.StatusAccepted {
			t.Fatalf("solo submit %s: status %d", req.System, code)
		}
		if fin := waitTerminal(t, base, st.ID); fin.State != StateDone {
			t.Fatalf("solo %s: job finished %s: %s", req.System, fin.State, fin.Error)
		}
		sameManifest(t, req.System+" beside three other jobs vs alone", together[i], fetchResult(t, base, st.ID))
	}
}

// TestManifestStableAcrossGOMAXPROCS applies the same comparison to one
// instrumented RunE campaign run ten times at each of GOMAXPROCS 1, 2
// and 4. The planner block is the sharpest part of the check:
// concurrent first captures of a segment once each built its render
// plan, so plans_built read 1 or 2 at random.
func TestManifestStableAcrossGOMAXPROCS(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	c := core.Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *obs.Manifest
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			run := obs.NewRun()
			run.Journal = obs.NewJournal()
			if _, err := (&core.Runner{Scene: sys.Scene(21, true), Obs: run}).RunE(c); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = run.Manifest()
				if first.Planner.PlansBuilt != 1 {
					t.Errorf("plans_built %d, want 1 (one segment)", first.Planner.PlansBuilt)
				}
			} else if !sameManifest(t, fmt.Sprintf("GOMAXPROCS %d run %d vs the first run", procs, i), run.Manifest(), first) {
				return
			}
		}
	}
}

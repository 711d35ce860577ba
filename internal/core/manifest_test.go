package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
	"fase/internal/obs"
)

// canonicalJSON encodes v with every object's keys sorted, so a manifest
// and its decoded copy compare equal exactly when no field was lost or
// changed on the way through disk.
func canonicalJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// manifestRoundTrip runs a small i7 campaign under an obs.Run, writes its
// manifest to disk, validates the file, reads it back, and requires the
// decoded manifest to equal the one written.
func manifestRoundTrip(t *testing.T, c Campaign) *obs.Manifest {
	t.Helper()
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Scene: sys.Scene(21, false), Obs: obs.NewRun()}
	if _, err := runner.RunE(c); err != nil {
		t.Fatal(err)
	}
	m := runner.Obs.Manifest()
	if m == nil {
		t.Fatal("instrumented campaign produced no manifest")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestFile(path); err != nil {
		t.Fatalf("written manifest fails validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalJSON(t, back), canonicalJSON(t, m); !bytes.Equal(got, want) {
		t.Errorf("manifest differs after round trip:\ngot  %s\nwant %s", got, want)
	}
	if len(back.Histograms) == 0 || len(back.Stages) == 0 || len(back.Detections) == 0 {
		t.Errorf("round-tripped manifest lost its histograms (%d), stages (%d) or detections (%d)",
			len(back.Histograms), len(back.Stages), len(back.Detections))
	}
	return back
}

// TestManifestRoundTrip checks an exhaustive campaign's manifest
// survives WriteFile → ValidateManifestFile → ReadManifest unchanged.
func TestManifestRoundTrip(t *testing.T) {
	m := manifestRoundTrip(t, Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	})
	if m.Adaptive != nil {
		t.Error("exhaustive campaign carries adaptive stats")
	}
}

// TestManifestRoundTripAdaptive is the adaptive-campaign variant: the
// manifest gains the adaptive block and still round-trips unchanged.
func TestManifestRoundTripAdaptive(t *testing.T) {
	m := manifestRoundTrip(t, Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
		MaxFFT: 2048, Budget: 30, Adaptive: &AdaptivePlan{},
	})
	if m.Adaptive == nil || len(m.Adaptive.Windows) == 0 {
		t.Fatal("adaptive campaign's manifest lost its adaptive stats")
	}
}

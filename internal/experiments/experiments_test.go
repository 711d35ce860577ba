package experiments

import (
	"os"
	"strings"
	"testing"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/report"
)

// TestRegistryComplete checks the registry holds exactly the paper's
// figures, the §3–§4 claims, the ablations and the extensions, once each,
// in paper order.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
		"fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17",
		"refresh-inverse", "fm-rejection", "nearfield-gcd",
		"validation", "baseline-comparison",
		"pair-robustness", "carrier-tracking", "campaign2-sweep",
		"ablation-nalts", "ablation-combine", "ablation-harmonics", "ablation-fdelta", "ablation-averages",
		"attack-leakage", "mitigation-refresh", "fm-fase", "fivr-bandwidth",
	}
	ids := IDs()
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Errorf("registry order:\n have %v\n want %v", ids, want)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("experiment %q registered twice", id)
		}
		seen[id] = true
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown id should error")
	}
}

// mustRun runs one registered experiment, failing the test on an unknown id.
func mustRun(t *testing.T, id string, cfg Config) *report.Output {
	t.Helper()
	out, err := Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConceptFiguresRun(t *testing.T) {
	// The cheap experiments run end-to-end and carry the right structure.
	for _, id := range []string{"fig01", "fig02", "fig03", "fig04", "fig05",
		"fig06", "fig10", "carrier-tracking", "attack-leakage",
		"ablation-combine", "campaign2-sweep"} {
		out := mustRun(t, id, Config{Seed: 2})
		if out.ID != id {
			t.Errorf("%s: wrong ID %q", id, out.ID)
		}
		if out.Title == "" || (len(out.Series) == 0 && len(out.Tables) == 0) {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestFig01SidebandOffsets(t *testing.T) {
	out := mustRun(t, "fig01", Config{Seed: 3})
	if len(out.Notes) == 0 || !strings.Contains(out.Notes[0], "side-bands") {
		t.Fatalf("fig01 notes: %v", out.Notes)
	}
	// The spectrum series peaks at the carrier.
	x, _ := out.Series[0].Peak()
	if x != 1e6 {
		t.Errorf("fig01 peak at %g, want the 1 MHz carrier", x)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := mustRun(t, "fig01", Config{Seed: 9})
	b := mustRun(t, "fig01", Config{Seed: 9})
	if len(a.Series[0].Y) != len(b.Series[0].Y) {
		t.Fatal("series length differs")
	}
	for i := range a.Series[0].Y {
		if a.Series[0].Y[i] != b.Series[0].Y[i] {
			t.Fatal("same seed must reproduce identical spectra")
		}
	}
}

func TestExplainableLines(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, false)
	lines := explainableLines(scene, 100e3, 1e6, activity.LDM, activity.LDL1)
	has := func(f float64) bool { return matchesAny(f, lines, 1) }
	if !has(315e3) || !has(630e3) || !has(512e3) {
		t.Errorf("modulated lines missing: %v", lines)
	}
	// Refresh fine grid included.
	if !has(128e3) || !has(640e3) {
		t.Error("refresh fine grid missing")
	}
	// Core regulator is NOT modulated by LDM/LDL1.
	if has(332.5e3) {
		t.Error("core regulator should not be explainable under LDM/LDL1")
	}
	// Under LDL2/LDL1 only the core regulator remains.
	lines2 := explainableLines(scene, 100e3, 1e6, activity.LDL2, activity.LDL1)
	if !matchesAny(332.5e3, lines2, 1) || matchesAny(315e3, lines2, 1) {
		t.Errorf("LDL2/LDL1 explainable lines wrong: %v", lines2)
	}
}

func TestHeadlineCarriers(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, false)
	heads := headlineCarriers(scene, 100e3, 1e6, activity.LDM, activity.LDL1)
	if len(heads) != 3 {
		t.Errorf("headline emitters: %v", heads)
	}
	if _, ok := heads[sys.CoreRegulator.Label]; ok {
		t.Error("core regulator must not be a headline emitter for LDM/LDL1")
	}
}

// TestAttributionTieBreaksByName checks a detection equally far from two
// emitters' lines goes to the name that sorts first, on every call.
func TestAttributionTieBreaksByName(t *testing.T) {
	scene := &emsim.Scene{}
	scene.Add(&machine.UnmodulatedClock{Label: "z clock", F0: 100e3, MaxHarmonics: 1},
		&machine.UnmodulatedClock{Label: "a clock", F0: 100e3, MaxHarmonics: 1})
	r := &core.Runner{Scene: scene}
	for i := 0; i < 50; i++ {
		if got := attribution(&machine.System{}, r, core.Detection{Freq: 101e3}); got != "a clock" {
			t.Fatalf("call %d attributed the tie to %q, want \"a clock\"", i, got)
		}
	}
}

func TestGCDHelper(t *testing.T) {
	if g := gcdOf([]float64{512e3, 1024e3}); g < 511e3 || g > 513e3 {
		t.Errorf("gcd = %g", g)
	}
	if g := gcdOf([]float64{128e3, 512e3, 384e3}); g < 127e3 || g > 129e3 {
		t.Errorf("gcd = %g", g)
	}
	if gcdOf(nil) != 0 {
		t.Error("empty gcd should be 0")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	if p := percentile(x, 0.5); p != 3 {
		t.Errorf("median = %g", p)
	}
	if p := percentile(x, 1); p != 5 {
		t.Errorf("max = %g", p)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// experimentsMD is the repository's EXPERIMENTS.md, seen from this package.
const experimentsMD = "../../EXPERIMENTS.md"

// checkRegion compares the generated region name of EXPERIMENTS.md — the
// lines between the marker lines "<!-- begin name: …" and "<!-- end name -->"
// — with want, and fails naming the first line that differs. With
// UPDATE_GOLDEN set it rewrites the region to want instead.
func checkRegion(t *testing.T, name, want string) {
	t.Helper()
	doc, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(doc), "\n")
	begin, end := -1, -1
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "<!-- begin "+name+":"):
			begin = i
		case l == "<!-- end "+name+" -->\n":
			end = i
		}
	}
	if begin < 0 || end < begin {
		t.Fatalf("%s has no %q region between marker lines", experimentsMD, name)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		doc := strings.Join(lines[:begin+1], "") + want + strings.Join(lines[end:], "")
		if err := os.WriteFile(experimentsMD, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have := strings.SplitAfter(strings.Join(lines[begin+1:end], ""), "\n")
	gen := strings.SplitAfter(want, "\n")
	for i := 0; i < len(have) || i < len(gen); i++ {
		var h, g string
		if i < len(have) {
			h = have[i]
		}
		if i < len(gen) {
			g = gen[i]
		}
		if h != g {
			t.Fatalf("EXPERIMENTS.md line %d differs from the generated %s region:\n have %q\n want %q\n"+
				"review the change, then regenerate with UPDATE_GOLDEN=1", begin+2+i, name, h, g)
		}
	}
}

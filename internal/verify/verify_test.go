package verify

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/obs"
)

// tinyConfig keeps harness tests fast: three scenarios.
func tinyConfig() Config {
	return Config{Scenarios: 3}
}

// TestEvaluateDeterministic: the harness is a pure function of its config
// — same seed, same report, regardless of campaign parallelism.
func TestEvaluateDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults = DefaultFaultPlan()

	repA, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The corpus campaigns render at GOMAXPROCS parallelism; pin it to 1
	// for the second run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	repB, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism is not content: it does not appear in the report, so
	// the two marshalings must be byte-identical.
	a, _ := json.Marshal(repA)
	b, _ := json.Marshal(repB)
	if !bytes.Equal(a, b) {
		t.Errorf("report differs across parallelism:\n%s\nvs\n%s", a, b)
	}
	if repA.CarriersTotal == 0 {
		t.Error("corpus generated no planted carriers")
	}
	if repA.NoFault == nil || repA.Faulted == nil {
		t.Fatal("missing corpus pass in report")
	}
	if len(repA.ROC) == 0 {
		t.Error("no ROC points")
	}
}

// TestFaultOffBitIdentical: a zero-value fault plan draws its random slots
// but applies nothing, so campaign results must be bit-identical to a nil
// plan — the acceptance contract that fault support leaves the default
// pipeline untouched.
func TestFaultOffBitIdentical(t *testing.T) {
	cfg, err := tinyConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sc := newScenario(cfg, 0)
	campNil := campaign(sc.seed, nil, false)
	campZero := campaign(sc.seed, &emsim.FaultPlan{}, false)

	resNil, err := (&core.Runner{Scene: sc.scene}).RunE(campNil)
	if err != nil {
		t.Fatal(err)
	}
	resZero, err := (&core.Runner{Scene: sc.scene}).RunE(campZero)
	if err != nil {
		t.Fatal(err)
	}
	if len(resNil.Detections) != len(resZero.Detections) {
		t.Fatalf("zero-value fault plan changed detection count: %d vs %d",
			len(resNil.Detections), len(resZero.Detections))
	}
	for i := range resNil.Detections {
		dn, dz := resNil.Detections[i], resZero.Detections[i]
		if dn.Freq != dz.Freq || dn.Score != dz.Score {
			t.Errorf("detection %d differs under zero-value plan: %+v vs %+v", i, dn, dz)
		}
	}
	for h, trace := range resNil.Scores {
		for k, v := range trace {
			if resZero.Scores[h][k] != v {
				t.Fatalf("score trace h=%d bin %d differs under zero-value plan", h, k)
			}
		}
	}
}

// TestGroundTruthHasBothClasses: over a few scenarios the generator must
// produce both planted carriers and decoys, or the corpus measures
// nothing.
func TestGroundTruthHasBothClasses(t *testing.T) {
	cfg, err := Config{Scenarios: 8}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var planted, decoys int
	for i := 0; i < cfg.Scenarios; i++ {
		sc := newScenario(cfg, i)
		if sc.planted == 0 {
			t.Errorf("scenario %d has no planted carrier", i)
		}
		planted += sc.planted
		decoys += sc.decoys
	}
	if decoys == 0 {
		t.Error("corpus has no decoy carriers at all")
	}
	if planted < cfg.Scenarios {
		t.Errorf("only %d planted carriers over %d scenarios", planted, cfg.Scenarios)
	}
}

// TestMatchDetections covers the matching rules: modulated preference,
// decoy attribution, tolerance edges.
func TestMatchDetections(t *testing.T) {
	truth := []emsim.GroundTruthCarrier{
		{Freq: 100e3, Modulated: true},
		{Freq: 104e3, Modulated: false},
		{Freq: 500e3, Modulated: false},
		{Freq: 900e3, Modulated: true},
	}
	dets := []core.Detection{
		{Freq: 101e3, Score: 50},   // between carrier and decoy: credited to the carrier
		{Freq: 500.5e3, Score: 40}, // on the decoy only: FP, decoy hit
		{Freq: 700e3, Score: 35},   // on nothing: plain FP
		{Freq: 899e3, Score: 90},   // second modulated carrier
		{Freq: 901e3, Score: 20},   // same carrier again: still TP, not double-found
	}
	m := matchDetections(truth, dets, 2.5e3)
	if m.tp != 3 || m.fp != 2 || m.decoyHits != 1 {
		t.Errorf("tp=%d fp=%d decoyHits=%d, want 3/2/1", m.tp, m.fp, m.decoyHits)
	}
	if len(m.found) != 2 {
		t.Errorf("found %d carriers, want 2", len(m.found))
	}
	if s := m.found[3]; s != 90 {
		t.Errorf("carrier 3 best score %g, want 90 (the stronger of two matches)", s)
	}
	if e := m.freqErr[3]; e != 1e3 {
		t.Errorf("carrier 3 freq err %g, want 1000 (the closer of two matches)", e)
	}
	// Outside tolerance: nothing matches.
	if m2 := matchDetections(truth, []core.Detection{{Freq: 103e3}}, 500); m2.tp != 0 || m2.fp != 1 {
		t.Errorf("out-of-tolerance detection scored tp=%d fp=%d, want 0/1", m2.tp, m2.fp)
	}
}

// TestCorpusMetrics checks the precision/recall conventions directly.
func TestCorpusMetrics(t *testing.T) {
	if p := precision(0, 0); p != 1 {
		t.Errorf("vacuous precision %g, want 1", p)
	}
	if r := recall(0, 0); r != 1 {
		t.Errorf("vacuous recall %g, want 1", r)
	}
	if f := f1(0, 0); f != 0 {
		t.Errorf("f1(0,0) = %g, want 0", f)
	}
	if f := f1(1, 1); f != 1 {
		t.Errorf("f1(1,1) = %g, want 1", f)
	}
	st := freqErrStats([]float64{100, 200, 300, 400})
	if st.Count != 4 || st.MeanAbsHz != 250 || st.MaxAbsHz != 400 {
		t.Errorf("freq err stats %+v", st)
	}
	if st.MedianAbsHz < 100 || st.MedianAbsHz > 300 {
		t.Errorf("median %g outside sample range", st.MedianAbsHz)
	}
}

// TestROCMonotonic: lowering the threshold can only add detections.
func TestROCMonotonic(t *testing.T) {
	a := rocAccum{
		tpScores:    []float64{5, 40, 300, 2e4, 1e6},
		fpScores:    []float64{2, 35},
		carrierBest: []float64{40, 300, 2e4, 1e6},
		carriers:    5,
	}
	// Enough distinct false-positive scores that the sweep subsamples.
	for i := 0; i < 2*rocPoints; i++ {
		a.fpScores = append(a.fpScores, 1+float64(i)/8)
	}
	pts := a.points()
	if len(pts) == 0 || len(pts) > rocPoints+1 {
		t.Fatalf("%d ROC points, want 1..%d", len(pts), rocPoints+1)
	}
	gateSeen := false
	for i, p := range pts {
		if p.Threshold == gateMinScore {
			gateSeen = true
		}
		if i == 0 {
			continue
		}
		prev := pts[i-1]
		if p.Threshold > prev.Threshold {
			t.Fatalf("ROC thresholds not descending at %d", i)
		}
		if p.TP < prev.TP || p.FP < prev.FP || p.CarriersFound < prev.CarriersFound {
			t.Errorf("ROC counts shrank while threshold fell at %d: %+v -> %+v", i, prev, p)
		}
	}
	if !gateSeen {
		t.Error("gate threshold missing from ROC sweep")
	}
	last := pts[len(pts)-1]
	if last.TP != 5 || last.FP != len(a.fpScores) || last.CarriersFound != 4 {
		t.Errorf("threshold-0 point %+v, want all candidates counted", last)
	}
}

// TestBaselineCheck exercises the gate: floors, regressions, identity.
func TestBaselineCheck(t *testing.T) {
	rep := &Report{
		Schema: ReportSchema, Scenarios: 60, Seed: 1,
		NoFault: &Corpus{Precision: 0.99, Recall: 0.97, F1: 0.98},
		Faulted: &Corpus{Precision: 0.92, Recall: 0.85, F1: 0.884, Detections: 150, FP: 12},
	}
	base := BaselineOf(rep)
	if err := Check(rep, base); err != nil {
		t.Errorf("self-check failed: %v", err)
	}

	worse := *rep
	worse.NoFault = &Corpus{Precision: 0.99, Recall: 0.90, F1: 0.943}
	if err := Check(&worse, base); err == nil {
		t.Error("F1 below floor passed the gate")
	}

	slightly := *rep
	slightly.NoFault = &Corpus{Precision: 0.98, Recall: 0.955, F1: 0.967}
	if err := Check(&slightly, base); err == nil {
		t.Error("F1 regression below baseline passed the gate")
	}

	imprecise := *rep
	imprecise.Faulted = &Corpus{Precision: 0.88, Recall: 0.85, F1: 0.865}
	if err := Check(&imprecise, base); err == nil {
		t.Error("faulted precision below floor passed the gate")
	}

	mismatched := *rep
	mismatched.Seed = 2
	if err := Check(&mismatched, base); err == nil {
		t.Error("corpus identity mismatch passed the gate")
	}

	// A baseline recorded without a fault pass skips the fault regression
	// but the absolute precision floor still applies.
	noFaultBase := base
	noFaultBase.FaultedPrecision, noFaultBase.FaultedRecall = 0, 0
	if err := Check(rep, noFaultBase); err != nil {
		t.Errorf("fault-less baseline rejected a passing run: %v", err)
	}
}

// TestBaselineRoundTrip pins the JSON schema.
func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	b := Baseline{
		Schema: BaselineSchema, Scenarios: 60, Seed: 1,
		NoFaultPrecision: 0.99, NoFaultRecall: 0.97, NoFaultF1: 0.98,
		FaultedPrecision: 0.92, FaultedRecall: 0.85,
	}
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("round trip changed baseline: %+v vs %+v", got, b)
	}
	bad := b
	bad.Schema = "nope"
	path2 := filepath.Join(dir, "bad.json")
	if err := bad.WriteFile(path2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path2); err == nil {
		t.Error("wrong schema accepted")
	}
}

// TestEvaluateManifest: an obs-instrumented harness run produces a
// manifest that passes schema validation and carries accuracy stats.
func TestEvaluateManifest(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults = DefaultFaultPlan()
	cfg.Obs = obs.NewRun()
	rep, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Obs.Manifest()
	if m == nil {
		t.Fatal("no manifest from instrumented run")
	}
	if m.Accuracy == nil {
		t.Fatal("manifest missing accuracy stats")
	}
	if m.Accuracy.Faulted == nil {
		t.Error("manifest accuracy missing fault pass")
	}
	if m.Accuracy.NoFault.F1 != rep.NoFault.F1 {
		t.Errorf("manifest F1 %g != report F1 %g", m.Accuracy.NoFault.F1, rep.NoFault.F1)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifest(data); err != nil {
		t.Errorf("harness manifest fails validation: %v", err)
	}
	// Corrupt the accuracy block: validation must catch it.
	m.Accuracy.NoFault.Precision = math.NaN()
	data, _ = json.Marshal(m)
	if err := obs.ValidateManifest(data); err == nil {
		t.Error("NaN precision passed manifest validation")
	}
}

// TestEvaluateManifestCountsOwnCaptures: the harness manifest counts the
// captures of its own campaigns — Σ res.Captures — even while another
// campaign renders in the same process.
func TestEvaluateManifestCountsOwnCaptures(t *testing.T) {
	cfg := Config{Scenarios: 2}
	resolved, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Every campaign of the clean pass — a gated and an ROC campaign per
	// scenario — has the same geometry, so one run prices them all.
	one, err := (&core.Runner{Scene: newScenario(resolved, 0).scene}).RunE(campaign(1, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * int64(cfg.Scenarios) * one.Captures

	stop := make(chan struct{})
	neighbour := make(chan int)
	go func() {
		runner := &core.Runner{Scene: newScenario(resolved, 1).scene}
		n := 0
		for {
			select {
			case <-stop:
				neighbour <- n
				return
			default:
			}
			if _, err := runner.RunE(campaign(2, nil, false)); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	cfg.Obs = obs.NewRun()
	_, err = Evaluate(cfg)
	close(stop)
	if n := <-neighbour; n == 0 {
		t.Error("the neighbour campaign never ran beside the harness")
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Manifest().Captures; got != want {
		t.Errorf("manifest captures %d, want the harness's own %d", got, want)
	}
}

// TestConfigValidation: malformed harness configs are rejected up front.
func TestConfigValidation(t *testing.T) {
	if _, err := Evaluate(Config{Scenarios: -1}); err == nil {
		t.Error("negative scenario count accepted")
	}
	if _, err := Evaluate(Config{Scenarios: 1, Faults: &emsim.FaultPlan{DropProb: 1.5}}); err == nil {
		t.Error("malformed fault plan accepted")
	}
}

// TestTablesAndCSV smoke-checks the render paths.
func TestTablesAndCSV(t *testing.T) {
	rep := &Report{
		Schema: ReportSchema, Scenarios: 2, Seed: 1,
		Config:  ReportConfig{X: "LDM", Y: "LDL1", MinScore: 30, FaultPlan: DefaultFaultPlan()},
		NoFault: &Corpus{Precision: 1, Recall: 1, F1: 1},
		Faulted: &Corpus{Precision: 0.9, Recall: 0.8, F1: 0.847},
		ROC:     []ROCPoint{{Threshold: 30, TP: 5, Precision: 1, Recall: 0.9, F1: 0.947}},
	}
	tables := Tables(rep)
	if len(tables) != 4 {
		t.Errorf("got %d tables, want 4 (summary, clean, faulted, roc)", len(tables))
	}
	var buf bytes.Buffer
	if err := WriteROCCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "threshold,tp,fp,carriers_found,precision,recall,f1\n30,5,0,0,1,0.9,0.947\n"
	if buf.String() != want {
		t.Errorf("ROC CSV:\n%q\nwant\n%q", buf.String(), want)
	}
}

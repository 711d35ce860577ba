package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/verify"
)

func TestParse(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	name := func(b string) string {
		if procs == 1 {
			return b
		}
		return fmt.Sprintf("%s-%d", b, procs)
	}
	out := "goos: linux\n" +
		name("BenchmarkRenderSSC/idle") + "   \t1000\t    455337 ns/op\n" +
		name("BenchmarkServiceLoad") + " \t1\t 524098097 ns/op\t 114.9 jobs/s\t 521.7 p99-ms\n" +
		"PASS\n"
	if m := parse(out, "BenchmarkRenderSSC/idle"); len(m) != 1 || m["ns/op"] != 455337 {
		t.Errorf("kernel row parsed as %v", m)
	}
	m := parse(out, "BenchmarkServiceLoad")
	if m["ns/op"] != 524098097 || m["jobs/s"] != 114.9 || m["p99-ms"] != 521.7 {
		t.Errorf("service row parsed as %v", m)
	}
	if m := parse(out, "BenchmarkRenderSSC"); m != nil {
		t.Errorf("parent benchmark matched its sub-benchmark's line: %v", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestVerdict(t *testing.T) {
	flat := []float64{100, 100, 100, 100}
	for _, c := range []struct {
		base, change []float64
		bound        float64
		pass         bool
	}{
		{flat, []float64{114, 115, 116, 130}, 1.15, false}, // pair median 1.155
		{flat, []float64{90, 114, 115, 200}, 1.15, true},   // pair median 1.145
		{flat, []float64{30, 24, 26, 20}, 0.25, true},      // higher is better: 0.25
		{flat, []float64{20, 24, 24, 30}, 0.25, false},     // 0.24
		// The host speeds up halfway: the medians' ratio is 170/150 =
		// 1.133, but the pairs read 1.5 and 0.95, median 1.225.
		{[]float64{100, 100, 200, 200}, []float64{150, 150, 190, 190}, 1.15, false},
	} {
		sr := verdict("BenchmarkX", gate{"ns/op", c.bound}, c.base, c.change)
		s, pass := sr.line("HEAD"), sr.Verdict == verdictPass
		if pass != c.pass || strings.Contains(s, "FAIL") == pass {
			t.Errorf("verdict(%v, %v, bound %v) = %q, pass %v; want pass %v", c.base, c.change, c.bound, s, pass, c.pass)
		}
	}
}

// plantedManifest is a campaign manifest carrying two detections.
func plantedManifest() *obs.Manifest {
	return &obs.Manifest{
		Config: map[string]any{"fres_hz": 100.0, "merge_bins": 3.0},
		Detections: []obs.DetectionRecord{
			{FreqHz: 315e3, Score: 41.25, MagnitudeDBm: -97.5},
			{FreqHz: 475.1e3, Score: 12.5, MagnitudeDBm: -110.25},
		},
	}
}

func TestDetectionDrift(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(m *obs.Manifest)
		pass  bool
		score float64
		dB    float64
	}{
		{"identical", func(m *obs.Manifest) {}, true, 0, 0},
		{"score 1e-9", func(m *obs.Manifest) { m.Detections[1].Score *= 1 + 1e-9 }, true, 1e-9, 0},
		{"score 1e-5", func(m *obs.Manifest) { m.Detections[0].Score *= 1 + 1e-5 }, false, 1e-5, 0},
		{"magnitude 1e-3 dB", func(m *obs.Manifest) { m.Detections[0].MagnitudeDBm += 1e-3 }, false, 0, 1e-3},
		{"extra detection", func(m *obs.Manifest) {
			m.Detections = append(m.Detections, obs.DetectionRecord{FreqHz: 511.85e3, Score: 9})
		}, false, 0, 0},
		{"moved a bin", func(m *obs.Manifest) { m.Detections[1].FreqHz += 100 }, false, 0, 0},
	} {
		change := plantedManifest()
		c.plant(change)
		var d detectionDrift
		d.add(runstore.Compare(plantedManifest(), change, "base", "change").Detections)
		line, pass := d.verdict()
		if pass != c.pass || strings.Contains(line, "FAIL") == pass {
			t.Errorf("%s: %q, pass %v; want pass %v", c.name, line, pass, c.pass)
		}
		if math.Abs(d.score-c.score) > 1e-3*c.score || math.Abs(d.dB-c.dB) > 1e-9 {
			t.Errorf("%s: drift score %g, magnitude %g dB; want %g, %g", c.name, d.score, d.dB, c.score, c.dB)
		}
	}
}

// plantedReport is a verify report with integer and float fields at
// several depths.
func plantedReport() *verify.Report {
	return &verify.Report{
		Schema: verify.ReportSchema, Scenarios: 60,
		NoFault: &verify.Corpus{Detections: 120, TP: 100, Precision: 0.8333333333333334},
		ROC:     []verify.ROCPoint{{Threshold: 3.75, TP: 100}, {Threshold: 12.125, TP: 90}},
	}
}

func TestReportDrift(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(r *verify.Report)
		pass  bool
	}{
		{"identical", func(r *verify.Report) {}, true},
		{"threshold 1e-9", func(r *verify.Report) { r.ROC[1].Threshold *= 1 + 1e-9 }, true},
		{"threshold 1e-5", func(r *verify.Report) { r.ROC[0].Threshold *= 1 + 1e-5 }, false},
		{"one more true positive", func(r *verify.Report) { r.NoFault.TP++ }, false},
		{"one more ROC point", func(r *verify.Report) { r.ROC = append(r.ROC, verify.ROCPoint{}) }, false},
		{"faulted pass only on one side", func(r *verify.Report) { r.Faulted = &verify.Corpus{} }, false},
		{"NaN precision", func(r *verify.Report) { r.NoFault.Precision = math.NaN() }, false},
	} {
		change := plantedReport()
		c.plant(change)
		var d reportDrift
		d.walk("report", reflect.ValueOf(plantedReport()).Elem(), reflect.ValueOf(change).Elem())
		line, pass := d.verdict()
		if pass != c.pass || strings.Contains(line, "FAIL") == pass {
			t.Errorf("%s: %q, pass %v; want pass %v", c.name, line, pass, c.pass)
		}
	}
}

// TestRecordedResult parses the result line of each recorded `make ab`
// run (testdata/reduce-once.txt: the sweep reduce, sub-score table and
// planner trace changes against their parent; testdata/alloc-keep.txt:
// the trace, kept-bins and shared-cache changes against theirs) and
// checks that the data agrees with itself: every compared metric's ratios are change/base per
// pair, its quartiles and base IQR follow from them, its verdict from the
// bound, and the overall verdict from the rows.
func TestRecordedResult(t *testing.T) {
	for _, name := range []string{"reduce-once.txt", "alloc-keep.txt"} {
		t.Run(name, func(t *testing.T) { checkRecordedResult(t, "testdata/"+name) })
	}
}

// checkRecordedResult checks the recorded run in file (see
// TestRecordedResult).
func checkRecordedResult(t *testing.T, file string) {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Pairs != pairs || len(res.Speed) == 0 || len(res.Drift) != len(machine.Names())+1 {
		t.Fatalf("result has %d pairs, %d speed rows, %d drift rows", res.Pairs, len(res.Speed), len(res.Drift))
	}
	pass := true
	for _, sr := range res.Speed {
		pass = pass && sr.Verdict != verdictFail
		if sr.Verdict == verdictNotGated {
			continue
		}
		if len(sr.Base) != pairs || len(sr.Change) != pairs {
			t.Fatalf("%s %s: %d base and %d change samples", sr.Row, sr.Metric, len(sr.Base), len(sr.Change))
		}
		g := gate{sr.Metric, sr.Bound}
		if want := verdict(sr.Row, g, sr.Base, sr.Change); !reflect.DeepEqual(sr, want) {
			t.Errorf("%s %s: recorded %+v, recomputed %+v", sr.Row, sr.Metric, sr, want)
		}
	}
	for _, d := range res.Drift {
		pass = pass && d.Pass
	}
	if pass != res.Pass {
		t.Errorf("overall verdict %v, rows say %v", res.Pass, pass)
	}
}

// Command benchgate is the speed and output gate behind `make ab
// REF=<rev>`: it times the pipeline benchmarks of the working tree against
// those of a base revision on the same host, in interleaved pairs, and
// fails when a row's median per-pair ratio goes past its bound; then it
// runs both trees' fase CLI on the same configs and seeds and fails when
// their outputs drift apart.
//
// Usage, from the module root:
//
//	go run ./cmd/benchgate [REF]
//
// REF (default HEAD) is exported with `git archive | tar -x` into a
// temporary directory, so no worktree metadata is written; the change side
// is the working tree as it is on disk. Each side's test binaries are
// built with `go test -c` and run with their working directory inside
// their own tree, one process per row and side, alternating which side
// goes first. For each row benchgate prints the base and change medians,
// their ratio, the quartiles of the per-pair change/base ratios and the
// base's interquartile range. The gate is the median per-pair ratio: a
// pair runs back to back, so host drift over the run cancels within it. A
// row the base lacks is not gated (REF predates it); a row the change
// lacks fails, so a gate cannot disappear silently.
//
// The output-drift rows follow the speed rows. benchgate builds each
// tree's cmd/fase and runs, once per side, every built-in system's
// campaign at the fasebench campaign geometry for seeds 1 to driftSeeds,
// each writing its run manifest, and the accuracy corpus with the
// adaptive budget pass, writing its report. A system's row matches the
// two sides' detections with runstore.Compare; the corpus row compares
// the two reports field by field. Each row prints the largest drift it
// saw.
//
// The last line of standard output is the whole verdict as one JSON
// object (result): per gated metric its samples, per-pair ratios and
// their quartiles, the base IQR, the bound and the verdict, and per drift
// row its largest drift.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// pairs is the number of interleaved base/change runs of every row.
const pairs = 10

// A gate bounds a metric's median per-pair change/base ratio. A bound
// above 1 caps a lower-is-better metric; below 1 it floors a
// higher-is-better one.
type gate struct {
	unit  string // as go test prints it: "ns/op" or a b.ReportMetric unit
	bound float64
}

// A row is one benchmark, run for a fixed number of iterations in the
// package directory pkg, and the gates on the metrics it reports.
type row struct {
	pkg, bench, benchtime string
	gates                 []gate
}

func nsPerOp(bound float64) []gate { return []gate{{"ns/op", bound}} }

var rows = []row{
	{".", "BenchmarkWideSweep", "5x", nsPerOp(1.20)},
	// The campaigns add scoring and detection to their sweeps. Their
	// bytes allocated per op are gated too, each bound set from one A/A
	// run (both sides the same tree, 10 pairs). Narrowband: pair ratios
	// 0.82-1.33, quartiles 0.990/0.999/1.087, base IQR 9.5%. Adaptive:
	// pair ratios 0.94-1.01, quartiles 0.963/0.989/0.998, base IQR 1.8%.
	{".", "BenchmarkCampaignNarrowband", "5x", []gate{{"ns/op", 1.25}, {"B/op", 1.15}}},
	{".", "BenchmarkCampaignAdaptive", "5x", []gate{{"ns/op", 1.25}, {"B/op", 1.05}}},
	// One capture of the service's small scan, where seeding the
	// component streams is a large share of the cost; its base side
	// spreads about ±10%, so it takes the campaigns' bound.
	{".", "BenchmarkSceneRender/256", "3000x", nsPerOp(1.25)},
	// One render takes from 0.2 to 2 ms, so each kernel row runs for
	// about a second. The bound is +15% so that a 25% slowdown of one
	// kernel fails; at +35% it passed. The switching regulator is gated at
	// both the single-line shape and the campaign's four-line
	// 16384-sample shape; refresh and the constant-on-time regulator are
	// the two impulse trains; the two unmodulated clocks, a crystal and a
	// wandering oscillator, render the static layer's comb kernel at the
	// wide shape.
	{".", "BenchmarkRenderRegulator/idle", "5000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulator/loaded", "5000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulatorWide/idle", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulatorWide/loaded", "600x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRefresh/idle", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRefresh/loaded", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderCOT/idle", "2000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderCOT/loaded", "2000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderSSC/idle", "2000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderSSC/loaded", "2000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderClock/crystal", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderClock/wander", "1000x", nsPerOp(1.15)},
	// The window+FFT+power stage of one capture, at the adaptive
	// corpus's and the campaign's transform sizes, at the kernel bound.
	{".", "BenchmarkPeriodogram/2048", "40000x", nsPerOp(1.15)},
	{".", "BenchmarkPeriodogram/16384", "5000x", nsPerOp(1.15)},
	// One op is 60 concurrent jobs against a saturated server, whose
	// latency tail is the noisiest measurement here. Its bytes allocated
	// per op take the campaigns' bound, set from one A/A run (10 pairs):
	// pair ratios 0.83-1.19, quartiles 0.894/0.983/1.053, base IQR 9.6%.
	{"./internal/service/loadtest", "BenchmarkServiceLoad", "1x", []gate{{"p99-ms", 4}, {"jobs/s", 0.25}, {"B/op", 1.15}}},
}

// The output-drift bounds. A system's row fails when a detection is
// found on one side only or at another frequency, or when a matched
// detection's score moves by more than maxScoreDrift (relative) or its
// magnitude by more than maxMagnitudeDrift dB. The corpus row fails when
// an integer, string or boolean field of the verify report differs or a
// float field moves by more than maxReportDrift (relative).
const (
	driftSeeds        = 8
	maxScoreDrift     = 1e-6
	maxMagnitudeDrift = 1e-4
	maxReportDrift    = 1e-6
)

// driftCampaign is the fasebench campaign geometry: 200–900 kHz at
// 100 Hz RBW, f_Δ 1 kHz, LDM/LDL1, with the RF environment.
var driftCampaign = []string{"-f1", "200e3", "-f2", "900e3", "-fres", "100", "-fdelta", "1e3",
	"-pair", "LDM/LDL1", "-environment=true"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	ref := "HEAD"
	if len(os.Args) > 1 {
		ref = os.Args[1]
	}
	ok, err := abTest(ref)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// abTest builds and times both sides, compares their outputs and reports
// every row; it returns false when any row fails its gate.
func abTest(ref string) (bool, error) {
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	wd, err := os.Getwd()
	if err != nil {
		return false, err
	}
	trees := [2]string{filepath.Join(tmp, "base"), wd}
	if err := os.Mkdir(trees[0], 0o755); err != nil {
		return false, err
	}
	if err := export(ref, trees[0]); err != nil {
		return false, err
	}
	// bins[side][pkg] is that side's test binary of pkg.
	bins := [2]map[string]string{{}, {}}
	for side, tree := range trees {
		for _, r := range rows {
			if bins[side][r.pkg] != "" {
				continue
			}
			bin := filepath.Join(tmp, fmt.Sprintf("%d-%d.test", side, len(bins[side])))
			cmd := exec.Command("go", "test", "-c", "-o", bin, r.pkg)
			cmd.Dir, cmd.Stdout, cmd.Stderr = tree, os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("build %s in %s: %w", r.pkg, tree, err)
			}
			bins[side][r.pkg] = bin
		}
	}
	// samples[i][side][unit] holds row i's values in pair order.
	samples := make([][2]map[string][]float64, len(rows))
	for i := range samples {
		samples[i] = [2]map[string][]float64{{}, {}}
	}
	for p := 0; p < pairs; p++ {
		for i, r := range rows {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2
				m, err := runRow(bins[side][r.pkg], filepath.Join(trees[side], r.pkg), r)
				if err != nil {
					return false, err
				}
				for unit, v := range m {
					samples[i][side][unit] = append(samples[i][side][unit], v)
				}
			}
		}
		log.Printf("pair %d of %d done", p+1, pairs)
	}
	res := result{Base: ref, Pairs: pairs, Pass: true}
	fmt.Printf("base %s, change: the working tree, %d pairs\n", ref, pairs)
	fmt.Printf("%-32s %-6s %10s %10s %6s %20s %8s %6s\n",
		"row", "metric", "base", "change", "ratio", "pair ratio q1/med/q3", "base IQR", "bound")
	for i, r := range rows {
		for _, g := range r.gates {
			sr := verdict(r.bench, g, samples[i][0][g.unit], samples[i][1][g.unit])
			res.Pass = res.Pass && sr.Verdict != verdictFail
			res.Speed = append(res.Speed, sr)
			fmt.Printf("%-32s %-6s %s\n", r.bench, g.unit, sr.line(ref))
		}
	}
	drift, err := outputDrift(ref, trees, tmp)
	if err != nil {
		return false, err
	}
	for _, d := range drift {
		res.Pass = res.Pass && d.Pass
	}
	res.Drift = drift
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("result JSON: %w", err)
	}
	fmt.Printf("%s\n", line)
	return res.Pass, nil
}

// result is benchgate's verdict as data, the last line of its output.
type result struct {
	Base  string     `json:"base"` // the base revision, as given
	Pairs int        `json:"pairs"`
	Pass  bool       `json:"pass"`
	Speed []speedRow `json:"speed"`
	Drift []driftRow `json:"drift"`
}

// The verdicts of a speed row's metric.
const (
	verdictPass = "pass"
	verdictFail = "fail" // past its bound, or the change lacks the row
	// verdictNotGated marks a row the base lacks: REF predates it.
	verdictNotGated = "not gated"
)

// speedRow is one gated metric of a row: both sides' samples in pair
// order, the per-pair change/base ratios with their quartiles, the base's
// interquartile range relative to its median, the bound and the verdict.
type speedRow struct {
	Row     string    `json:"row"`
	Metric  string    `json:"metric"`
	Base    []float64 `json:"base"`
	Change  []float64 `json:"change"`
	Ratios  []float64 `json:"pair_ratios"`
	Q1      float64   `json:"ratio_q1"`
	Median  float64   `json:"ratio_median"`
	Q3      float64   `json:"ratio_q3"`
	BaseIQR float64   `json:"base_iqr"`
	Bound   float64   `json:"bound"`
	Verdict string    `json:"verdict"`
}

// verdict compares a metric's samples against its gate: the median
// per-pair ratio must stay within the bound. A bound above 1 caps a
// lower-is-better metric; below 1 it floors a higher-is-better one.
func verdict(bench string, g gate, base, change []float64) speedRow {
	sr := speedRow{Row: bench, Metric: g.unit, Base: base, Change: change, Bound: g.bound}
	switch {
	case len(change) == 0:
		sr.Verdict = verdictFail
		return sr
	case len(base) == 0:
		sr.Verdict = verdictNotGated
		return sr
	}
	sr.Ratios = make([]float64, len(change))
	for j := range sr.Ratios {
		sr.Ratios[j] = change[j] / base[j]
	}
	sr.Q1, sr.Median, sr.Q3 = quantile(sr.Ratios, 0.25), quantile(sr.Ratios, 0.5), quantile(sr.Ratios, 0.75)
	sr.BaseIQR = (quantile(base, 0.75) - quantile(base, 0.25)) / quantile(base, 0.5)
	pass := sr.Median <= g.bound
	if g.bound < 1 {
		pass = sr.Median >= g.bound
	}
	sr.Verdict = verdictFail
	if pass {
		sr.Verdict = verdictPass
	}
	return sr
}

// line formats the row's text: the medians and their ratio, the pair
// ratios' quartiles, the base IQR and the bound, flagged when it fails.
func (sr speedRow) line(ref string) string {
	switch {
	case len(sr.Change) == 0:
		return "FAIL: the change lacks this row"
	case len(sr.Base) == 0:
		return fmt.Sprintf("%10s %10.4g   not gated: %s lacks this row", "-", quantile(sr.Change, 0.5), ref)
	}
	mb, mc := quantile(sr.Base, 0.5), quantile(sr.Change, 0.5)
	cmp := "<="
	if sr.Bound < 1 {
		cmp = ">="
	}
	q := fmt.Sprintf("%.3f/%.3f/%.3f", sr.Q1, sr.Median, sr.Q3)
	s := fmt.Sprintf("%10.4g %10.4g %6.3f %20s %7.1f%% %s%.2f", mb, mc, mc/mb, q, 100*sr.BaseIQR, cmp, sr.Bound)
	if sr.Verdict == verdictFail {
		s += "  FAIL"
	}
	return s
}

// export writes the tree of ref into dir: git archive piped into tar.
func export(ref, dir string) error {
	archive := exec.Command("git", "archive", ref)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait() // tar sees end of input; git's failure is the one to report
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	return untar.Wait()
}

// runRow runs row r once with the test binary bin in dir and returns the
// metrics it printed, by unit; nil when bin has no such benchmark.
func runRow(bin, dir string, r row) (map[string]float64, error) {
	parts := strings.Split(r.bench, "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", strings.Join(parts, "/"),
		"-test.benchtime", r.benchtime, "-test.benchmem", "-test.timeout", "10m")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s in %s: %w\n%s", r.bench, dir, err, out)
	}
	return parse(string(out), r.bench), nil
}

// parse finds bench's result line in go test output, such as
//
//	BenchmarkWideSweep-2   5   301234567 ns/op   12.5 jobs/s
//
// and returns its value/unit pairs. The -N suffix is GOMAXPROCS, which
// the child inherits from this process's environment.
func parse(out, bench string) map[string]float64 {
	suffix := "-" + strconv.Itoa(runtime.GOMAXPROCS(0))
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || strings.TrimSuffix(f[0], suffix) != bench {
			continue
		}
		m := map[string]float64{}
		for j := 2; j+1 < len(f); j += 2 {
			if v, err := strconv.ParseFloat(f[j], 64); err == nil {
				m[f[j+1]] = v
			}
		}
		return m
	}
	return nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

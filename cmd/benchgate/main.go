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
package main

import (
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
	// The campaigns add scoring and detection to their sweeps.
	{".", "BenchmarkCampaignNarrowband", "5x", nsPerOp(1.25)},
	{".", "BenchmarkCampaignAdaptive", "5x", nsPerOp(1.25)},
	// One render takes from 0.2 to 2 ms, so each kernel row runs for
	// about a second. The bound is +15% so that a 25% slowdown of one
	// kernel fails; at +35% it passed. The regulator is gated at both the
	// single-line shape and the campaign's four-line 16384-sample shape.
	{".", "BenchmarkRenderRegulator/idle", "5000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulator/loaded", "5000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulatorWide/idle", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRegulatorWide/loaded", "600x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRefresh/idle", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderRefresh/loaded", "1000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderSSC/idle", "2000x", nsPerOp(1.15)},
	{".", "BenchmarkRenderSSC/loaded", "2000x", nsPerOp(1.15)},
	// One op is 60 concurrent jobs against a saturated server, whose
	// latency tail is the noisiest measurement here.
	{"./internal/service/loadtest", "BenchmarkServiceLoad", "1x", []gate{{"p99-ms", 4}, {"jobs/s", 0.25}}},
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
	fmt.Printf("base %s, change: the working tree, %d pairs\n", ref, pairs)
	fmt.Printf("%-32s %-6s %10s %10s %6s %20s %8s %6s\n",
		"row", "metric", "base", "change", "ratio", "pair ratio q1/med/q3", "base IQR", "bound")
	ok := true
	for i, r := range rows {
		for _, g := range r.gates {
			base, change := samples[i][0][g.unit], samples[i][1][g.unit]
			fmt.Printf("%-32s %-6s ", r.bench, g.unit)
			if len(change) == 0 {
				fmt.Println("FAIL: the change lacks this row")
				ok = false
				continue
			}
			if len(base) == 0 {
				fmt.Printf("%10s %10.4g   not gated: %s lacks this row\n", "-", quantile(change, 0.5), ref)
				continue
			}
			line, pass := verdict(base, change, g.bound)
			ok = ok && pass
			fmt.Println(line)
		}
	}
	driftOK, err := outputDrift(ref, trees, tmp)
	return ok && driftOK, err
}

// verdict formats one gated metric's comparison and reports whether the
// median per-pair ratio stays within bound.
func verdict(base, change []float64, bound float64) (string, bool) {
	mb, mc := quantile(base, 0.5), quantile(change, 0.5)
	pr := make([]float64, len(change))
	for j := range pr {
		pr[j] = change[j] / base[j]
	}
	med := quantile(pr, 0.5)
	iqr := (quantile(base, 0.75) - quantile(base, 0.25)) / mb
	cmp, pass := "<=", med <= bound
	if bound < 1 {
		cmp, pass = ">=", med >= bound
	}
	q := fmt.Sprintf("%.3f/%.3f/%.3f", quantile(pr, 0.25), med, quantile(pr, 0.75))
	s := fmt.Sprintf("%10.4g %10.4g %6.3f %20s %7.1f%% %s%.2f", mb, mc, mc/mb, q, 100*iqr, cmp, bound)
	if !pass {
		s += "  FAIL"
	}
	return s, pass
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
		"-test.benchtime", r.benchtime, "-test.timeout", "10m")
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

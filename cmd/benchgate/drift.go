package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/verify"
)

// outputDrift builds both trees' fase CLI, runs every drift row once per
// side and prints the largest drift each row saw; it returns false when
// any row goes past its bounds.
func outputDrift(ref string, trees [2]string, tmp string) (bool, error) {
	var bins [2]string
	for side, tree := range trees {
		bins[side] = filepath.Join(tmp, fmt.Sprintf("%d-fase", side))
		cmd := exec.Command("go", "build", "-o", bins[side], "./cmd/fase")
		cmd.Dir, cmd.Stdout, cmd.Stderr = tree, os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("build cmd/fase in %s: %w", tree, err)
		}
	}
	fmt.Printf("\noutput drift: base %s, change: the working tree, campaign seeds 1-%d\n", ref, driftSeeds)
	ok := true
	for _, sys := range machine.Names() {
		var d detectionDrift
		for seed := 1; seed <= driftSeeds; seed++ {
			var m [2]*obs.Manifest
			for side, bin := range bins {
				path := filepath.Join(tmp, fmt.Sprintf("%d-%s-%d.json", side, sys, seed))
				args := append([]string{"-system", sys, "-seed", strconv.Itoa(seed), "-manifest-out", path}, driftCampaign...)
				if err := runFase(bin, args...); err != nil {
					return false, err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return false, err
				}
				if m[side], err = obs.ReadManifest(data); err != nil {
					return false, fmt.Errorf("%s: %w", path, err)
				}
			}
			d.add(runstore.Compare(m[0], m[1], "base", "change").Detections)
		}
		line, pass := d.verdict()
		ok = ok && pass
		fmt.Printf("%-32s %s\n", "fase -system "+sys, line)
	}
	var reps [2]*verify.Report
	for side, bin := range bins {
		path := filepath.Join(tmp, fmt.Sprintf("%d-verify.json", side))
		if err := runFase(bin, "-verify", "-verify-budget", "-verify-out", path); err != nil {
			return false, err
		}
		var err error
		if reps[side], err = verify.ReadReport(path); err != nil {
			return false, err
		}
	}
	var rd reportDrift
	rd.walk("report", reflect.ValueOf(reps[0]).Elem(), reflect.ValueOf(reps[1]).Elem())
	line, pass := rd.verdict()
	fmt.Printf("%-32s %s\n", "fase -verify -verify-budget", line)
	return ok && pass, nil
}

// runFase runs one fase CLI invocation, discarding its report on
// standard output.
func runFase(bin string, args ...string) error {
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, stderr.Bytes())
	}
	return nil
}

// relDrift is the relative difference |a−b|/max(|a|,|b|): zero when a
// and b are equal, infinite when only one is NaN.
func relDrift(a, b float64) float64 {
	if a == b || math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	if d := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); !math.IsNaN(d) {
		return d
	}
	return math.Inf(1)
}

// detectionDrift accumulates the detection comparisons of one row's runs.
type detectionDrift struct {
	matched  int
	oneSided int     // detections found by one side only
	moved    int     // matched detections at another frequency
	score    float64 // largest relative score drift
	dB       float64 // largest magnitude drift, dB
}

func (d *detectionDrift) add(dd runstore.DetectionDiff) {
	d.oneSided += len(dd.OnlyA) + len(dd.OnlyB)
	for _, m := range dd.Matched {
		d.matched++
		if m.FreqA != m.FreqB {
			d.moved++
		}
		d.score = math.Max(d.score, relDrift(m.ScoreA, m.ScoreB))
		d.dB = math.Max(d.dB, math.Abs(m.MagnitudeA-m.MagnitudeB))
	}
}

// verdict formats the row and reports whether it stays within bounds.
func (d *detectionDrift) verdict() (string, bool) {
	pass := d.oneSided == 0 && d.moved == 0 && d.score <= maxScoreDrift && d.dB <= maxMagnitudeDrift
	s := fmt.Sprintf("%3d matched, %d one-sided, %d moved; score %8.2g <=%.0e, magnitude %8.2g dB <=%.0e",
		d.matched, d.oneSided, d.moved, d.score, maxScoreDrift, d.dB, maxMagnitudeDrift)
	if !pass {
		s += "  FAIL"
	}
	return s, pass
}

// reportDrift is the field-by-field comparison of two verify reports.
type reportDrift struct {
	fields int // leaf fields compared
	// changed holds the paths of the integer, string and boolean fields
	// that differ, and of lists and sections sized or present differently.
	changed   []string
	worst     float64 // largest relative drift of a float field
	worstPath string
}

// walk compares a and b, two values of one type, by their exported
// fields, named by their JSON keys.
func (d *reportDrift) walk(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.changed = append(d.changed, path)
			}
			return
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			d.walk(path+"."+name, a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			d.changed = append(d.changed, path)
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		d.fields++
		if r := relDrift(a.Float(), b.Float()); r > d.worst {
			d.worst, d.worstPath = r, path
		}
	default:
		d.fields++
		if !a.Equal(b) {
			d.changed = append(d.changed, path)
		}
	}
}

// verdict formats the row and reports whether it stays within bounds.
func (d *reportDrift) verdict() (string, bool) {
	pass := len(d.changed) == 0 && d.worst <= maxReportDrift
	s := fmt.Sprintf("%d fields, %d changed; float %8.2g <=%.0e", d.fields, len(d.changed), d.worst, maxReportDrift)
	if d.worst > 0 {
		s += " at " + d.worstPath
	}
	if len(d.changed) > 0 {
		s += "; first change at " + d.changed[0]
	}
	if !pass {
		s += "  FAIL"
	}
	return s, pass
}

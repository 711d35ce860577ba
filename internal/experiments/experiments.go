// Package experiments regenerates every figure and table of the paper's
// evaluation, plus the validation and ablation studies DESIGN.md calls
// out. Each experiment is a pure function of a seed, returning a
// report.Output with data series (figure reproductions), tables, and
// paper-vs-measured notes. The benchmark harness (bench_test.go) and
// cmd/experiments both drive this registry.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/report"
	"fase/internal/specan"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed int64
}

// Func is one experiment.
type Func func(cfg Config) *report.Output

// entry pairs an experiment with its registry order.
type entry struct {
	id string
	fn Func
}

var registry []entry

func register(id string, fn Func) {
	for _, e := range registry {
		if e.id == id {
			panic("experiments: duplicate id " + id)
		}
	}
	registry = append(registry, entry{id: id, fn: fn})
}

// IDs lists experiment identifiers in registry (paper) order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*report.Output, error) {
	for _, e := range registry {
		if e.id == id {
			return e.fn(cfg), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// ---- shared helpers ----

// dbmSeries converts a spectrum into a plot series in dBm.
func dbmSeries(name string, s *spectral.Spectrum) report.Series {
	out := report.Series{Name: name, X: make([]float64, s.Bins()), Y: make([]float64, s.Bins())}
	for i := range out.X {
		out.X[i] = s.Freq(i)
		out.Y[i] = s.DBm(i)
	}
	return out
}

// sweep is a one-line spectrum measurement.
func sweep(scene *emsim.Scene, f1, f2, fres float64, act *activity.Trace, seed int64) *spectral.Spectrum {
	an := specan.New(specan.Config{Fres: fres})
	return an.Sweep(specan.Request{Scene: scene, F1: f1, F2: f2, Activity: act, Seed: seed})
}

// peakNear returns the max dBm within ±half of f.
func peakNear(s *spectral.Spectrum, f, half float64) (float64, float64) {
	i := s.MaxIn(f-half, f+half)
	if i < 0 {
		return f, -300
	}
	return s.Freq(i), s.DBm(i)
}

// explainableLines returns every line frequency in [f1, f2] belonging to
// emitters that the X/Y pair AM-modulates — the set a correct detection
// must fall into. Refresh emitters contribute their fine per-rank grid
// (multiples of 1/tREFI), since disruption modulation genuinely raises
// side-bands on residual fine-grid lines too.
func explainableLines(scene *emsim.Scene, f1, f2 float64, x, y activity.Kind) []float64 {
	lx, ly := activity.LoadOf(x), activity.LoadOf(y)
	var out []float64
	for _, e := range scene.Emitters() {
		d := e.Domain()
		delta := math.Abs(d.Of(lx) - d.Of(ly))
		if !e.AMModulated() || delta < 0.2 {
			continue
		}
		out = append(out, e.Carriers(f1, f2)...)
		if r, ok := e.(*machine.RefreshEmitter); ok {
			fine := 1 / r.TRefi
			for n := 1; float64(n)*fine <= f2; n++ {
				f := float64(n) * fine
				if f >= f1 {
					out = append(out, f)
				}
			}
		}
	}
	sort.Float64s(out)
	return out
}

// matchesAny reports whether f is within tol of any element.
func matchesAny(f float64, set []float64, tol float64) bool {
	for _, g := range set {
		if math.Abs(f-g) <= tol {
			return true
		}
	}
	return false
}

// headlineCarriers returns, per modulated emitter, its carrier lines in
// range. An emitter counts as recalled when FASE detects *any* of its
// lines — the paper's semantics: carriers are found, then grouped into
// per-source harmonic sets.
func headlineCarriers(scene *emsim.Scene, f1, f2 float64, x, y activity.Kind) map[string][]float64 {
	lx, ly := activity.LoadOf(x), activity.LoadOf(y)
	out := map[string][]float64{}
	for _, e := range scene.Emitters() {
		d := e.Domain()
		delta := math.Abs(d.Of(lx) - d.Of(ly))
		if !e.AMModulated() || delta < 0.2 {
			continue
		}
		if cs := e.Carriers(f1, f2); len(cs) > 0 {
			out[e.Name()] = cs
		}
	}
	return out
}

func khz(f float64) string { return fmt.Sprintf("%.2f", f/1e3) }
func mhz(f float64) string { return fmt.Sprintf("%.4f", f/1e6) }
func db1(v float64) string { return fmt.Sprintf("%.1f", v) }
func sc1(v float64) string { return fmt.Sprintf("%.1f", v) }
func hstr(hs []int) string { return fmt.Sprintf("%v", hs) }

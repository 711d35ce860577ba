package specan

import (
	"math"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/obs"
)

// The process-wide static-cache counters, which every analyzer moves
// whether or not a run is attached.
var (
	staticHitsTotal   = obs.Default.Counter(obs.MetricStaticCacheHits)
	staticMissesTotal = obs.Default.Counter(obs.MetricStaticCacheMisses)
)

// TestSweepEquivalenceCachedStatic extends the equivalence suite to the
// static render cache: a sweep that replays cached activity-independent
// layers must match the uncached, unculled sweep (opaqueScene, no cache)
// bit for bit — with a cold cache (build + replay in one sweep), a warm
// cache (second sweep of the same request on the same analyzer), serial
// and parallel, and with a fault plan mangling the capture chain after the
// render. The counter checks keep the test honest: the cold sweep must
// actually build cache entries and the warm sweep must serve every capture
// from them, so a regression that quietly disables caching fails here
// instead of becoming a silent perf loss. The unculled case sweeps
// opaqueScene with the cache attached: its static layers are built from
// renders of every component, in band or not, and must match as well.
func TestSweepEquivalenceCachedStatic(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	req := func(scene *emsim.Scene) Request {
		return Request{
			Scene: scene, F1: 250e3, F2: 750e3, Seed: 17,
			Activity: microbench.Generate(microbench.Config{
				X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
				Jitter: microbench.DefaultJitter(), Seed: 17,
			}, 1.0),
		}
	}
	faults := &emsim.FaultPlan{
		Seed: 99, DropProb: 0.2, TruncProb: 0.2,
		ExtraNoiseDBmPerHz: -165, BurstProb: 0.3,
	}
	// One reference per fault setting, rendered the dumbest way available:
	// nothing culled, no cache, serial.
	refFor := func(fp *emsim.FaultPlan) *spectral.Spectrum {
		cfg := Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, Faults: fp}
		return New(cfg).Sweep(req(opaqueScene(sys.Scene(17, true))))
	}
	refs := map[bool]*spectral.Spectrum{false: refFor(nil), true: refFor(faults)}

	for _, tc := range []struct {
		name     string
		par      int
		unculled bool
		faulted  bool
	}{
		{"planned serial", 1, false, false},
		{"planned parallel", 4, false, false},
		{"unculled serial", 1, true, false},
		{"faulted serial", 1, false, true},
		{"faulted parallel", 4, false, true},
	} {
		var fp *emsim.FaultPlan
		if tc.faulted {
			fp = faults
		}
		an := New(Config{
			Fres: 100, MaxFFT: 1 << 14, Parallelism: tc.par,
			Statics: NewStaticCache(), Faults: fp,
		})
		scene := sys.Scene(17, true)
		if tc.unculled {
			scene = opaqueScene(scene)
		}
		r := req(scene)
		ref := refs[tc.faulted]

		m0 := staticMissesTotal.Value()
		cold := an.Sweep(r)
		h1, m1 := staticHitsTotal.Value(), staticMissesTotal.Value()
		warm := an.Sweep(r)
		h2, m2 := staticHitsTotal.Value(), staticMissesTotal.Value()

		// Every capture keys its own entry (distinct seed/start), so the
		// cold sweep is all misses and the warm repeat all hits.
		switch {
		case m1 == m0:
			t.Fatalf("%s: cold sweep built no static cache entries — test is vacuous", tc.name)
		case h2 == h1:
			t.Fatalf("%s: warm sweep hit no static cache entries", tc.name)
		case m2 != m1:
			t.Errorf("%s: warm sweep rebuilt %d static entries, want 0", tc.name, m2-m1)
		}

		compareSpectraBits(t, tc.name+" cold", cold, ref)
		compareSpectraBits(t, tc.name+" warm", warm, ref)
	}
}

func compareSpectraBits(t *testing.T, name string, s, ref *spectral.Spectrum) {
	t.Helper()
	if s.F0 != ref.F0 || s.Fres != ref.Fres || s.Bins() != ref.Bins() {
		t.Fatalf("%s: geometry %g/%g/%d, want %g/%g/%d",
			name, s.F0, s.Fres, s.Bins(), ref.F0, ref.Fres, ref.Bins())
	}
	for i := range s.PmW {
		if math.Float64bits(s.PmW[i]) != math.Float64bits(ref.PmW[i]) {
			t.Fatalf("%s: bin %d (%.1f Hz) = %x, reference %x",
				name, i, s.Freq(i), math.Float64bits(s.PmW[i]),
				math.Float64bits(ref.PmW[i]))
		}
	}
}

// opaque hides every capability of a scene component but Name, Render,
// its static-layer classification, and its Prepare, so the planner never
// culls it. Classification stays because it fixes render order (static
// layer first, see emsim.StaticRenderer); Prepare stays because the
// production kernels read their prep.
type opaque struct{ emsim.Component }

func (o opaque) Prepare(band emsim.Band, n int) any {
	if p, ok := o.Component.(emsim.Prepper); ok {
		return p.Prepare(band, n)
	}
	return nil
}

func (o opaque) Static(band emsim.Band, n int) bool {
	s, ok := o.Component.(emsim.StaticRenderer)
	return ok && s.Static(band, n)
}

func (o opaque) CondStatic(band emsim.Band, n int) bool {
	c, ok := o.Component.(emsim.CondStaticRenderer)
	return ok && c.CondStatic(band, n)
}

func (o opaque) Domain() activity.Domain {
	if c, ok := o.Component.(emsim.CondStaticRenderer); ok {
		return c.Domain()
	}
	return activity.DomainNone
}

// opaqueScene wraps every component of s in opaque: swept with no static
// cache, the wrapped scene is the unculled, uncached render path by
// construction — the reference the planner and cache equivalence tests
// compare against.
func opaqueScene(s *emsim.Scene) *emsim.Scene {
	out := &emsim.Scene{}
	for _, c := range s.Components {
		out.Add(opaque{c})
	}
	return out
}

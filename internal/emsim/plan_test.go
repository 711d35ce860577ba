package emsim

import (
	"math"
	"math/rand"
	"testing"
)

func TestExtentOverlaps(t *testing.T) {
	b := Band{Center: 1e6, SampleRate: 1e5} // guarded span (951e3, 1049e3)
	cases := []struct {
		name string
		e    Extent
		want bool
	}{
		{"everywhere", Everywhere(), true},
		{"line at center", Lines(1e6), true},
		{"line near edge inside", Lines(1.048e6), true},
		{"line just outside guard", Lines(1.0495e6), false},
		{"line far away", Lines(5e6), false},
		{"empty extent", Extent{}, false},
		{"span straddling band", Extent{Spans: []Span{{Lo: 0.5e6, Hi: 2e6}}}, true},
		{"span below band", Extent{Spans: []Span{{Lo: 0.1e6, Hi: 0.9e6}}}, false},
		{"span above band", Extent{Spans: []Span{{Lo: 1.1e6, Hi: 2e6}}}, false},
		{"one span of several inside", Extent{Spans: []Span{{Lo: 0.1e6, Hi: 0.2e6}, {Lo: 1e6, Hi: 1e6}}}, true},
	}
	for _, c := range cases {
		if got := c.e.Overlaps(b); got != c.want {
			t.Errorf("%s: Overlaps = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBandOverlapsMatchesContains pins the degenerate-span identity the
// planner's culling correctness rests on: a spectral line is in band
// exactly when Contains says so.
func TestBandOverlapsMatchesContains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		b := Band{Center: r.Float64() * 10e6, SampleRate: 1e3 + r.Float64()*10e6}
		f := r.Float64() * 12e6
		if b.Overlaps(f, f) != b.Contains(f) {
			t.Fatalf("band %+v: Overlaps(%g,%g)=%v but Contains=%v",
				b, f, f, b.Overlaps(f, f), b.Contains(f))
		}
	}
}

// TestEnvironmentBandExtents covers the extent of every environment
// component type.
func TestEnvironmentBandExtents(t *testing.T) {
	am := &AMStation{Call: "TEST", Freq: 750e3, PowerMw: 1e-9}
	if e := am.BandExtent(); len(e.Spans) != 1 || e.Spans[0] != (Span{Lo: 750e3, Hi: 750e3}) || e.All {
		t.Errorf("AMStation extent = %+v, want single line at 750 kHz", e)
	}
	fm := &FMStation{Call: "TEST", Freq: 98.5e6, PowerMw: 1e-9}
	if e := fm.BandExtent(); len(e.Spans) != 1 || e.Spans[0] != (Span{Lo: 98.5e6, Hi: 98.5e6}) || e.All {
		t.Errorf("FMStation extent = %+v, want single line at 98.5 MHz", e)
	}
	bg := &Background{FloorDBmPerHz: -170}
	if e := bg.BandExtent(); !e.All {
		t.Errorf("Background extent = %+v, want everywhere", e)
	}
}

// renderDirect renders c alone into an n-sample capture of band by
// calling its Render directly, with its own prep: no plan culls it.
func renderDirect(c Component, band Band, n int, seed int64) []complex128 {
	ctx := &Context{Band: band, N: n, Rand: rand.New(rand.NewSource(seed))}
	if p, ok := c.(Prepper); ok {
		ctx.Prep = p.Prepare(band, n)
	}
	dst := make([]complex128, n)
	c.Render(dst, ctx)
	return dst
}

// TestEnvironmentExtentExactness checks the Extenter contract for the
// environment sources, on their carriers and far from them: a band the
// extent does not overlap gets no energy from Render. Rendering directly
// keeps the planner's culling out of the check.
func TestEnvironmentExtentExactness(t *testing.T) {
	far := Band{Center: 5e6, SampleRate: 1e5} // overlaps neither carrier
	for _, tc := range []struct {
		c       Component
		carrier float64
	}{
		{&AMStation{Call: "X", Freq: 750e3, PowerMw: 1e-9, AudioSeed: 3}, 750e3},
		{&FMStation{Call: "Y", Freq: 98.5e6, PowerMw: 1e-9, AudioSeed: 4}, 98.5e6},
	} {
		e := tc.c.(Extenter).BandExtent()
		rendered := false
		for _, band := range []Band{{Center: tc.carrier, SampleRate: 1e5}, far} {
			for i, v := range renderDirect(tc.c, band, 512, 11) {
				if v == 0 {
					continue
				}
				if !e.Overlaps(band) {
					t.Fatalf("%s: rendered energy %v at sample %d in %+v, outside its extent", tc.c.Name(), v, i, band)
				}
				rendered = true
			}
		}
		if !rendered {
			t.Fatalf("%s rendered no energy on its own carrier; the check is vacuous", tc.c.Name())
		}
	}
}

// unculled hides a component's extent from the planner while forwarding
// its static classification and its prep, so every plan renders it: the
// reference a plan's culling must reproduce.
type unculled struct{ Component }

func (u unculled) Static(band Band, n int) bool {
	s, ok := u.Component.(StaticRenderer)
	return ok && s.Static(band, n)
}

func (u unculled) Prepare(band Band, n int) any {
	if p, ok := u.Component.(Prepper); ok {
		return p.Prepare(band, n)
	}
	return nil
}

// TestPlanEquivalenceEnvironment renders an environment scene under a
// plan that culls the out-of-band stations and requires output
// bit-identical to the same scene wrapped in unculled, which renders
// every component.
func TestPlanEquivalenceEnvironment(t *testing.T) {
	scene := &Scene{}
	scene.Add(
		&AMStation{Call: "IN", Freq: 1.0e6, PowerMw: 1e-9, AudioSeed: 21},
		&AMStation{Call: "OUT", Freq: 3.0e6, PowerMw: 1e-9, AudioSeed: 22},
		&FMStation{Call: "FAR", Freq: 98.5e6, PowerMw: 1e-9, AudioSeed: 23},
		&Background{FloorDBmPerHz: -170, Hills: []Hill{{Center: 1.1e6, Width: 200e3, GainDB: 6}}},
		&testTone{freq: 1.02e6, amp: 1e-6}, // non-Extenter: always active
	)
	ref := &Scene{}
	for _, c := range scene.Components {
		ref.Add(unculled{c})
	}
	band := Band{Center: 1.05e6, SampleRate: 409600}
	const n = 4096
	plan := scene.Plan(band, n)
	if got, want := plan.ActiveCount(), 3; got != want {
		t.Fatalf("plan keeps %d components, want %d (in-band station, background, test tone)", got, want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		capt := Capture{Band: band, N: n, Seed: seed, Start: float64(seed) * 0.01}
		want := ref.Render(capt)
		capt.Plan = plan
		got := scene.Render(capt)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: planned[%d]=%v != unculled[%d]=%v",
					seed, i, got[i], i, want[i])
			}
		}
	}
}

// TestPlanGeometryCheck ensures a plan cannot silently be used with the
// wrong capture geometry.
func TestPlanGeometryCheck(t *testing.T) {
	scene := &Scene{}
	scene.Add(&Background{FloorDBmPerHz: -170})
	plan := scene.Plan(Band{Center: 1e6, SampleRate: 1e5}, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched plan geometry did not panic")
		}
	}()
	scene.RenderInto(make([]complex128, 512), Capture{
		Band: Band{Center: 1e6, SampleRate: 1e5}, N: 512, Plan: plan,
	})
}

// FuzzExtent fuzzes the Band/extent overlap logic against the identities
// the planner relies on: Overlaps(f, f) == Contains(f), extent overlap
// equals the underlying interval test, containment of an endpoint (or
// straddling the center) implies overlap, and Everywhere overlaps all.
func FuzzExtent(f *testing.F) {
	f.Add(1e6, 1e5, 0.95e6, 1.02e6, 1.0e6)
	f.Add(0.0, 1.0, -0.5, 0.5, 0.0)
	f.Add(2.05e6, 6.5536e6, 32.768e3, 2e6, 98.304e3)
	f.Add(-3e5, 1e4, -3.1e5, -2.9e5, -3e5)
	f.Fuzz(func(t *testing.T, center, fs, lo, hi, x float64) {
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(center) || !finite(fs) || !finite(lo) || !finite(hi) || !finite(x) || fs <= 0 {
			t.Skip()
		}
		b := Band{Center: center, SampleRate: fs}
		if lo > hi {
			lo, hi = hi, lo
		}
		if b.Overlaps(x, x) != b.Contains(x) {
			t.Fatalf("band %+v: Overlaps(%g,%g)=%v, Contains=%v",
				b, x, x, b.Overlaps(x, x), b.Contains(x))
		}
		span := Extent{Spans: []Span{{Lo: lo, Hi: hi}}}
		if span.Overlaps(b) != b.Overlaps(lo, hi) {
			t.Fatalf("band %+v: Extent.Overlaps=%v, Band.Overlaps(%g,%g)=%v",
				b, span.Overlaps(b), lo, hi, b.Overlaps(lo, hi))
		}
		// The spread-spectrum renderers' historical in-band gate must
		// agree with Overlaps (this is what lets SSCClock share one test
		// between Render, Prepare, and BandExtent).
		gate := b.Contains(lo) || b.Contains(hi) || (lo < b.Center && hi > b.Center)
		if gate != b.Overlaps(lo, hi) {
			t.Fatalf("band %+v, span [%g, %g]: ssc gate=%v, Overlaps=%v",
				b, lo, hi, gate, b.Overlaps(lo, hi))
		}
		if b.Contains(x) && lo <= x && x <= hi && !b.Overlaps(lo, hi) {
			t.Fatalf("band %+v contains %g in [%g, %g] but Overlaps is false", b, x, lo, hi)
		}
		if !Everywhere().Overlaps(b) {
			t.Fatalf("Everywhere does not overlap %+v", b)
		}
		if (Extent{}).Overlaps(b) {
			t.Fatalf("empty extent overlaps %+v", b)
		}
	})
}

// Package emsim renders the electromagnetic emanations of a simulated
// computer system plus its RF environment as complex-baseband captures —
// the software stand-in for the paper's antenna.
//
// Rendering uses the superheterodyne model: a capture is taken for a Band
// (center frequency + sample rate); each component adds only the spectral
// content that falls within the band, so carriers at hundreds of MHz never
// require GHz-scale sample rates. Amplitudes are RMS envelopes in √mW, so
// a component emitting a tone with envelope magnitude |A| reads
// 10·log10(|A|²) dBm at the antenna (see package spectral).
package emsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fase/internal/activity"
	"fase/internal/obs"
	"fase/internal/sig"
)

// Band is the frequency window of one capture.
type Band struct {
	Center     float64 // Hz
	SampleRate float64 // complex samples per second; spans Center ± SampleRate/2
}

// Contains reports whether frequency f falls inside the band, with a small
// guard margin so content right at the edge (where the anti-alias response
// would be rolling off) is excluded.
func (b Band) Contains(f float64) bool {
	const guard = 0.98
	half := b.SampleRate / 2 * guard
	return f > b.Center-half && f < b.Center+half
}

// Overlaps reports whether the closed interval [lo, hi] intersects the
// band, with the same guard margin (and the same strict comparisons) as
// Contains: Overlaps(f, f) == Contains(f) for every f, so extent-based
// culling agrees exactly with the per-line tests renderers apply.
func (b Band) Overlaps(lo, hi float64) bool {
	const guard = 0.98
	half := b.SampleRate / 2 * guard
	return lo < b.Center+half && hi > b.Center-half
}

// Context carries everything a component needs to render one capture.
type Context struct {
	Band  Band
	Start float64 // absolute time of sample 0, seconds
	N     int     // number of samples
	// Rand is the capture's noise source. The scene hands each component
	// its own child generator so components draw independent streams.
	Rand *rand.Rand
	// Activity is the program-activity envelope; nil means idle. It is
	// read only before ActivityLookahead past the capture's last sample
	// (see Component).
	Activity *activity.Trace
	// NearField enables the short-range probe model used for source
	// localization (§4): system emitters appear stronger and with
	// per-element coupling (e.g. individual DRAM ranks), while
	// environment signals do not.
	NearField bool
	// Prep is the component's prepared per-segment state: what its Prepare
	// (see Prepper) returned for the capture's render plan. Every capture
	// renders under a plan, so a Prepper's Render may rely on it.
	Prep any
}

// Dt returns the sample period.
func (c *Context) Dt() float64 { return 1 / c.Band.SampleRate }

// idleTrace is the shared constant-idle envelope used when a capture has
// no activity trace (read-only, so safe to share between captures).
var idleTrace = activity.NewConstant(activity.LoadOf(activity.Idle))

// Loads returns an activity cursor for the capture, treating a nil
// activity trace as idle.
func (c *Context) Loads() *activity.Cursor {
	tr := c.Activity
	if tr == nil {
		tr = idleTrace
	}
	return tr.Cursor()
}

// DomainRuns returns the capture's activity envelope projected onto one
// power domain as constant-load sample runs (see activity.DomainRuns),
// with the same nil-trace-means-idle substitution as Loads. Renderers
// iterating these runs see exactly the per-sample loads a Cursor walk
// would produce, so run-length and per-sample rendering agree bit for bit.
func (c *Context) DomainRuns(d activity.Domain) activity.DomainRuns {
	tr := c.Activity
	if tr == nil {
		tr = idleTrace
	}
	return tr.DomainRuns(d, c.Start, c.Dt(), c.N)
}

// ActivityLookahead is how far past a capture's last sample a component
// may read the capture's activity trace, in seconds. Renderers that
// follow the load sample by sample stay inside the capture window; an
// event-driven one reaches past it to draw the events whose taps overlap
// the window's end (the DRAM refresh walk reaches 2·tREFI, 15.6 µs for
// DDR3). A sweep's alternation trace therefore needs to cover its
// captures plus this look-ahead, and no more.
const ActivityLookahead = 1e-3

// Component is anything that adds signal (or noise) to a capture.
//
// Render reads ctx.Activity at no time ActivityLookahead or more past the
// capture's last sample: two traces whose loads agree at every earlier
// time render the same capture bit for bit.
type Component interface {
	// Name identifies the component in reports and ground-truth tables.
	Name() string
	// Render adds the component's complex-baseband contribution to dst,
	// which has ctx.N samples.
	Render(dst []complex128, ctx *Context)
}

// Emitter is a system component with known carriers — the ground truth
// FASE's output is validated against.
type Emitter interface {
	Component
	// Carriers lists the carrier frequencies the component emits within
	// [f1, f2].
	Carriers(f1, f2 float64) []float64
	// Domain is the power domain whose activity modulates the component's
	// amplitude; DomainNone means no program activity modulates it.
	Domain() activity.Domain
	// AMModulated reports whether the component's emissions are
	// amplitude-modulated by activity in its domain. False for emitters
	// that are only frequency-modulated (§4.4's constant-on-time
	// regulator), which FASE must correctly not report.
	AMModulated() bool
}

// Scene is a complete measurement setup: a system's emitters plus the
// surrounding RF environment.
type Scene struct {
	Components []Component
}

// Add appends components to the scene.
func (s *Scene) Add(cs ...Component) { s.Components = append(s.Components, cs...) }

// Emitters returns the scene's components that expose ground truth.
func (s *Scene) Emitters() []Emitter {
	var out []Emitter
	for _, c := range s.Components {
		if e, ok := c.(Emitter); ok {
			out = append(out, e)
		}
	}
	return out
}

// Capture describes one rendering request.
type Capture struct {
	Band      Band
	Start     float64
	N         int
	Activity  *activity.Trace
	Seed      int64
	NearField bool
	// Plan is a render plan computed by Scene.Plan for this capture's Band
	// and N; RenderInto builds one when it is nil. Components the plan marks
	// inactive are skipped (child seeds are positional, so culling never
	// shifts another component's stream) and active
	// components receive their prepared state via Context.Prep.
	Plan *RenderPlan
	// Static, when non-nil, is the cached static layer built by
	// Scene.BuildStaticSet for this exact capture identity (band, n, start,
	// seed, probe): it is copied into dst in place of rendering its members
	// live, which is bit-identical because every render starts with the
	// static layer (see StaticRenderer). A set whose members include
	// conditionally static components (see CondStaticRenderer) is valid
	// only for captures whose activity trace reproduces the window-constant
	// loads it was built under; RenderInto verifies this against the
	// capture's cond-static key.
	Static *StaticSet
	// Obs, when non-nil, attributes this capture's live component renders
	// by wall time and count (the per-component table of the run
	// manifest, plus the fase_render_component_seconds histogram) and
	// counts the components its plan skipped. Instrumentation never
	// changes rendered output.
	Obs *obs.Run
}

// renderScratch holds the per-capture random-stream and context state
// RenderInto reuses between captures. Its child generator runs on a
// sig.Source, which re-seeded produces exactly the stream a fresh
// rand.NewSource would, so pooling does not change rendered output.
type renderScratch struct {
	child *rand.Rand
	ctx   Context
	// seeds[i] is component i's child seed and layered[i] its static-layer
	// membership for the current live-rendered capture.
	seeds   []int64
	layered []bool
	// cond is the capture's conditional-static key scratch (see
	// AppendCondStaticKey), pooled so set verification stays allocation-free.
	cond []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &renderScratch{child: rand.New(new(sig.Source))}
}}

// begin prepares the scratch for one capture of a scene with ncomp
// components: the probe context, and every component's child seed.
// Component i's seed is output i of the capture's root stream, the i-th
// Int63 of a generator seeded with cap.Seed, whatever order the components
// render in and even for components a plan culls or a static set replays,
// so every component's stream — and therefore the rendered output — is
// independent of all three. sig.Int63s computes the seeds without seeding
// the root stream.
func (sc *renderScratch) begin(cap Capture, ncomp int) {
	sc.ctx = Context{
		Band:      cap.Band,
		Start:     cap.Start,
		N:         cap.N,
		NearField: cap.NearField,
	}
	if len(sc.seeds) < ncomp {
		sc.seeds = make([]int64, ncomp)
	}
	sig.Int63s(cap.Seed, sc.seeds[:ncomp])
}

// end drops the capture's references and returns the scratch to the pool.
func (sc *renderScratch) end() {
	sc.ctx = Context{}
	scratchPool.Put(sc)
}

// renderOne adds component i's render to dst on its own child stream, with
// the plan's prepared state, timing it into run when one is attached.
// The child is seeded here, not in begin, so a component that a plan
// culls or a static set replays pays no seeding: even jump-ahead seeding
// fills the whole 607-word state.
func (s *Scene) renderOne(dst []complex128, sc *renderScratch, i int, plan *RenderPlan, run *obs.Run) {
	c := s.Components[i]
	sc.child.Seed(sc.seeds[i])
	sc.ctx.Rand = sc.child
	sc.ctx.Prep = plan.prep[i]
	if run != nil {
		t0 := time.Now()
		c.Render(dst, &sc.ctx)
		run.AddComponentRender(c.Name(), time.Since(t0).Seconds())
	} else {
		c.Render(dst, &sc.ctx)
	}
	sc.ctx.Prep = nil
}

// capturesRendered counts captures rendered. The components a plan lets a
// capture skip are counted through Capture.Obs.
var capturesRendered = obs.Default.Counter(obs.MetricRenderCaptures)

// Render produces the complex-baseband samples for a capture.
func (s *Scene) Render(cap Capture) []complex128 {
	dst := make([]complex128, cap.N)
	s.RenderInto(dst, cap)
	return dst
}

// RenderInto renders a capture into dst, which must have exactly cap.N
// elements; dst is overwritten. It is the allocation-free form of Render
// used by the sweep worker pool: all per-capture bookkeeping comes from a
// pool, so only component-internal state allocates. Concurrent RenderInto
// calls on one Scene are safe as long as every component's Render is
// (all components in this repository are).
//
// Every capture renders under a plan (built here when cap.Plan is nil)
// and in one order: the static layer first (see StaticRenderer), then the
// remaining active components, each pass in component-index order. With
// cap.Static set the first pass is a copy of the cached layer.
func (s *Scene) RenderInto(dst []complex128, cap Capture) {
	if cap.N <= 0 {
		panic(fmt.Sprintf("emsim: capture length %d must be positive", cap.N))
	}
	if cap.Band.SampleRate <= 0 {
		panic(fmt.Sprintf("emsim: sample rate %g must be positive", cap.Band.SampleRate))
	}
	if len(dst) != cap.N {
		panic(fmt.Sprintf("emsim: destination has %d samples for a %d-sample capture", len(dst), cap.N))
	}
	sc := scratchPool.Get().(*renderScratch)
	plan := s.planFor(cap)
	cap.Plan = plan
	cap.Obs.Count(obs.StatRenderSkips, int64(plan.ncomp-plan.nactive))
	static := cap.Static
	if static != nil {
		static.check(cap, len(s.Components))
		// The set's members render first, so the capture's activity trace
		// must reproduce exactly the conditionally static members and
		// window-constant loads the set was built under — none included: a
		// member missing from the set would otherwise render after the
		// layer instead of inside it.
		sc.cond = s.AppendCondStaticKey(sc.cond[:0], cap)
		if string(sc.cond) != static.cond {
			panic(fmt.Sprintf(
				"emsim: static set built for cond-static key %x used with a capture keying %x",
				static.cond, sc.cond))
		}
	}
	capturesRendered.Inc()
	run := cap.Obs
	sc.begin(cap, len(s.Components))
	sc.ctx.Activity = cap.Activity
	var layered []bool
	if static != nil {
		copy(dst, static.layer)
		layered = static.in
		staticReplays.Add(int64(static.cached))
		if run != nil {
			for i, in := range layered {
				if in {
					run.AddComponentReplay(s.Components[i].Name())
				}
			}
		}
	} else {
		clear(dst)
		if len(sc.layered) < len(s.Components) {
			sc.layered = make([]bool, len(s.Components))
		}
		layered = sc.layered[:len(s.Components)]
		clear(layered)
		s.forEachLayered(cap, func(i int, _ bool, _ float64) {
			layered[i] = true
			s.renderOne(dst, sc, i, plan, run)
		})
	}
	for i := range s.Components {
		if layered[i] || !plan.active[i] {
			continue
		}
		s.renderOne(dst, sc, i, plan, run)
	}
	sc.end()
}

// GroundTruthCarrier is one expected detection for validation.
type GroundTruthCarrier struct {
	Source    string
	Freq      float64
	Domain    activity.Domain
	Modulated bool // AM-modulated by the given X/Y activity pair
}

// GroundTruth enumerates every emitter carrier in [f1, f2] and whether the
// X/Y activity pair AM-modulates it: the pair must change the emitter's
// domain load by at least minDelta, and the emitter must be AM-capable.
func (s *Scene) GroundTruth(f1, f2 float64, x, y activity.Kind, minDelta float64) []GroundTruthCarrier {
	lx, ly := activity.LoadOf(x), activity.LoadOf(y)
	var out []GroundTruthCarrier
	for _, e := range s.Emitters() {
		d := e.Domain()
		delta := d.Of(lx) - d.Of(ly)
		if delta < 0 {
			delta = -delta
		}
		mod := e.AMModulated() && d != activity.DomainNone && delta >= minDelta
		for _, f := range e.Carriers(f1, f2) {
			out = append(out, GroundTruthCarrier{Source: e.Name(), Freq: f, Domain: d, Modulated: mod})
		}
	}
	return out
}

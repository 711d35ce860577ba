package emsim

import "fmt"

// Span is a closed frequency interval [Lo, Hi] in Hz. A spectral line is a
// degenerate span with Lo == Hi.
type Span struct {
	Lo, Hi float64
}

// Extent is the frequency support a component can contribute energy to: a
// union of spans, or everywhere for wideband sources (impulse trains,
// broadband noise). The zero Extent is empty — a component that reports it
// is never rendered.
type Extent struct {
	// All marks a wideband component that contributes to every band.
	All bool
	// Spans is the support when All is false. Spans need not be sorted or
	// disjoint.
	Spans []Span
}

// Everywhere returns the extent of a wideband component.
func Everywhere() Extent { return Extent{All: true} }

// Lines returns an extent of degenerate spans at the given frequencies.
func Lines(freqs ...float64) Extent {
	spans := make([]Span, len(freqs))
	for i, f := range freqs {
		spans[i] = Span{Lo: f, Hi: f}
	}
	return Extent{Spans: spans}
}

// Overlaps reports whether any part of the extent falls inside the band,
// using Band.Overlaps (and therefore the same edge guard the renderers'
// own in-band tests apply).
func (e Extent) Overlaps(b Band) bool {
	if e.All {
		return true
	}
	for _, s := range e.Spans {
		if b.Overlaps(s.Lo, s.Hi) {
			return true
		}
	}
	return false
}

// Extenter is the planning capability: a component that can report its
// frequency support ahead of rendering, so sweeps can skip it for bands it
// cannot touch. Components that do not implement Extenter are treated as
// wideband and never skipped.
//
// The contract is exactness on the empty side: if BandExtent().Overlaps(b)
// is false, Render for a capture with band b must leave dst unchanged.
// (Extents may be conservative supersets of the true support; the
// renderers in this repository report the same lines/spans their Render
// gates on, so plan activity matches the per-call tests bit for bit.)
type Extenter interface {
	Component
	// BandExtent returns the component's frequency support.
	BandExtent() Extent
}

// Prepper is the second planning capability: a component that can
// precompute per-segment state — in-band harmonic lists, base rotator
// phasors, per-bin noise densities — that depends only on the capture
// geometry (band and sample count), not on seed, start time, or activity.
// Prepare is the one derivation of that state: the plan hands its value
// back through Context.Prep on every capture, and every capture renders
// under a plan, so Render may rely on it. Prepared values must be
// read-only during Render (one plan serves concurrent captures).
type Prepper interface {
	Component
	// Prepare returns the per-segment state for captures of n samples in
	// the given band.
	Prepare(band Band, n int) any
}

// RenderPlan is the per-segment schedule computed by Scene.Plan: which
// components are active for the segment's band, and each active
// component's prepared state. A plan is immutable after Plan returns and
// is safe to share between concurrent RenderInto calls; sweeps reuse one
// plan across all averages and alternation frequencies of a segment.
type RenderPlan struct {
	band    Band
	n       int
	ncomp   int
	nactive int
	active  []bool
	prep    []any
	// class[i] is component i's static-layer classification (see
	// classify) when it is active, dynamicLayer otherwise: classification
	// runs once per segment, not per capture. nstatic and ncond count the
	// static and conditionally static components.
	class          []layerClass
	nstatic, ncond int
}

// Plan computes the render plan for captures of n samples in the given
// band: every component's extent is tested against the band once, and
// active Preppers precompute their per-segment state. Culling is exact:
// a skipped component would have left the capture unchanged (see
// Extenter), and it keeps its positional child seed (see RenderInto).
func (s *Scene) Plan(band Band, n int) *RenderPlan {
	p := &RenderPlan{
		band:   band,
		n:      n,
		ncomp:  len(s.Components),
		active: make([]bool, len(s.Components)),
		prep:   make([]any, len(s.Components)),
		class:  make([]layerClass, len(s.Components)),
	}
	for i, c := range s.Components {
		act := true
		if e, ok := c.(Extenter); ok {
			act = e.BandExtent().Overlaps(band)
		}
		p.active[i] = act
		if !act {
			continue
		}
		p.nactive++
		if pp, ok := c.(Prepper); ok {
			p.prep[i] = pp.Prepare(band, n)
		}
		switch p.class[i] = classify(c, band, n); p.class[i] {
		case staticLayer:
			p.nstatic++
		case condLayer:
			p.ncond++
		}
	}
	return p
}

// ActiveCount returns how many of the scene's components the plan renders.
func (p *RenderPlan) ActiveCount() int { return p.nactive }

// StaticCount returns how many active components the plan classified as
// activity-independent (cacheable in a StaticSet) for this geometry.
func (p *RenderPlan) StaticCount() int { return p.nstatic }

// CondStaticCount returns how many active components the plan classified
// as conditionally static (cacheable when their window load is constant)
// for this geometry.
func (p *RenderPlan) CondStaticCount() int { return p.ncond }

// planFor returns the capture's render plan, checked against the capture
// and the scene, or plans the capture's geometry when it brings no plan.
func (s *Scene) planFor(cap Capture) *RenderPlan {
	if cap.Plan == nil {
		return s.Plan(cap.Band, cap.N)
	}
	cap.Plan.check(cap, len(s.Components))
	return cap.Plan
}

// check panics if the plan was computed for a different capture geometry
// or component list than the one being rendered.
func (p *RenderPlan) check(cap Capture, ncomp int) {
	if p.band != cap.Band || p.n != cap.N || p.ncomp != ncomp {
		panic(fmt.Sprintf(
			"emsim: plan for band %+v, %d samples, %d components used with band %+v, %d samples, %d components",
			p.band, p.n, p.ncomp, cap.Band, cap.N, ncomp))
	}
}

package emsim

import (
	"fmt"
	"math"

	"fase/internal/activity"
	"fase/internal/obs"
)

// StaticRenderer is the activity-classification capability: a component
// that can report, for a given capture geometry, that its rendered
// contribution does not depend on the program-activity trace. Such a
// component's output is a pure function of (band, n, start, seed, probe),
// so one rendering can be cached and replayed across every alternation
// scan of a campaign — the scans share capture seeds and differ only in
// activity.
//
// Classification also fixes the render order. RenderInto renders the
// capture's static layer first — the static components and the
// conditionally static ones whose domain load is constant over the window
// (see CondStaticRenderer), in component-index order, into the zeroed
// capture — and every other active component after it, again in index
// order. The layer is therefore an exact prefix of every render's
// accumulation, and replaying its cached sum is bit-identical to rendering
// it live.
type StaticRenderer interface {
	Component
	// Static reports whether the component's contribution to captures of n
	// samples in band is independent of the activity trace. Any activity
	// dependence must return false.
	Static(band Band, n int) bool
}

// CondStaticRenderer is the conditional-static capability: a component
// whose render depends on the activity trace only through the trace's
// projection onto its power domain. When that projection is a single
// constant across the capture window, the contribution is a pure function
// of (capture identity, load) — a regulator under an idle or
// domain-constant workload, a partially-idle comb whose envelope freezes —
// and joins the static layer, keyed additionally by the window-constant
// load (see Scene.AppendCondStaticKey).
//
// The contract is exact, like StaticRenderer's: for any two activity
// traces whose Domain() projections equal the same constant at every
// sample of the capture, Render must produce bit-identical output.
// Deliberately a separate interface from StaticRenderer: these components
// are NOT activity-independent, so they must not classify through Static.
type CondStaticRenderer interface {
	Component
	// Domain is the power domain whose load the component reads.
	Domain() activity.Domain
	// CondStatic reports whether the component supports conditional-static
	// rendering for captures of n samples in band.
	CondStatic(band Band, n int) bool
}

// layerClass is a component's static-layer classification for one
// capture geometry.
type layerClass uint8

const (
	dynamicLayer layerClass = iota // rendered live, after the static layer
	staticLayer                    // activity-independent: always in the layer
	condLayer                      // in the layer when its domain load is window-constant
)

// classify resolves a component's classification for one geometry.
// Unconditional classification takes precedence, so a component that is
// static never classifies as conditionally static.
func classify(c Component, band Band, n int) layerClass {
	if sr, ok := c.(StaticRenderer); ok && sr.Static(band, n) {
		return staticLayer
	}
	if cr, ok := c.(CondStaticRenderer); ok && cr.CondStatic(band, n) {
		return condLayer
	}
	return dynamicLayer
}

// StaticSet is the cached static layer of one capture: the summed render
// of every layered component, keyed by the full capture identity
// (geometry, start time, seed, probe placement) and, for conditionally
// static members, by their window-constant loads. It is immutable after
// BuildStaticSet returns and safe to share between concurrent RenderInto
// calls.
type StaticSet struct {
	band            Band
	start           float64
	n               int
	seed            int64
	nearField       bool
	nearFieldGainDB float64
	ncomp           int
	// layer is the members' renders, summed in index order into a zeroed
	// buffer; in[i] marks component i as a member.
	layer  []complex128
	in     []bool
	cached int
	// cond is the conditional-static key the set was built under (empty
	// when no conditionally static component is a member): the (component
	// index, load bits) pairs of every CondStaticRenderer whose domain
	// projection was window-constant. RenderInto verifies a capture's key
	// against it before replaying.
	cond string
}

// staticReplays counts component renders replaced by replays. The
// cache owner (package specan) counts the cache's lookups and the
// components it captures.
var staticReplays = obs.Default.Counter(obs.MetricStaticReplays)

// Components reports how many components the set caches.
func (st *StaticSet) Components() int { return st.cached }

// forEachLayered calls fn, in component-index order, for every member of
// the capture's static layer: the components classified static for its
// geometry, and the conditionally static ones whose domain load is
// constant across the capture window (cond is then true and load is that
// constant). The capture's plan, which callers resolve first, supplies the
// classification precomputed per segment and excludes the components it
// culls. The cache key (AppendCondStaticKey), the set build
// (BuildStaticSet), and the live render order (RenderInto) all walk the
// layer through here, so they agree on its membership by construction.
func (s *Scene) forEachLayered(cap Capture, fn func(i int, cond bool, load float64)) {
	tr := cap.Activity
	if tr == nil {
		tr = idleTrace
	}
	dt := 1 / cap.Band.SampleRate
	t1 := cap.Start + float64(cap.N-1)*dt
	for i, cl := range cap.Plan.class {
		switch cl {
		case staticLayer:
			fn(i, false, 0)
		case condLayer:
			if load, ok := tr.DomainConstant(s.Components[i].(CondStaticRenderer).Domain(), cap.Start, t1); ok {
				fn(i, true, load)
			}
		}
	}
}

// appendCondKey appends one conditional-static key entry: the component
// index (2 bytes big-endian) followed by the load's IEEE-754 bits (8
// bytes).
func appendCondKey(dst []byte, i int, load float64) []byte {
	b := math.Float64bits(load)
	return append(dst,
		byte(i>>8), byte(i),
		byte(b>>56), byte(b>>48), byte(b>>40), byte(b>>32),
		byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
}

// AppendCondStaticKey appends the capture's conditional-static key to dst
// and returns the extended slice: one entry (see appendCondKey) for every
// conditionally static component whose domain load is constant across the
// capture window. Two captures with equal static identity and equal keys
// render the same static layer bit for bit; the empty key means no
// component qualifies under this activity trace. A capture with no plan is
// planned the way RenderInto plans it. Allocation-free when dst has
// capacity and the capture brings its plan.
func (s *Scene) AppendCondStaticKey(dst []byte, cap Capture) []byte {
	cap.Plan = s.planFor(cap)
	s.forEachLayered(cap, func(i int, cond bool, load float64) {
		if cond {
			dst = appendCondKey(dst, i, load)
		}
	})
	return dst
}

// BuildStaticSet renders the capture's static layer: every member (see
// forEachLayered) renders through its own Render, in index order, into
// one zeroed buffer, consuming exactly the child seed RenderInto would
// hand it. Unconditionally static members render against a nil activity
// trace, so a misclassified component diverges from the live render
// immediately rather than matching one scan's activity by accident.
// Conditionally static members get the capture's trace, whose projection
// onto their domain is the window-constant load the set's key records. A
// capture with no plan is planned the way RenderInto plans it. Returns nil
// when no component qualifies.
func (s *Scene) BuildStaticSet(cap Capture) *StaticSet {
	if cap.N <= 0 || cap.Band.SampleRate <= 0 {
		panic(fmt.Sprintf("emsim: invalid static-set capture geometry %+v", cap.Band))
	}
	cap.Plan = s.planFor(cap)
	st := &StaticSet{
		band:            cap.Band,
		start:           cap.Start,
		n:               cap.N,
		seed:            cap.Seed,
		nearField:       cap.NearField,
		nearFieldGainDB: cap.NearFieldGainDB,
		ncomp:           len(s.Components),
		in:              make([]bool, len(s.Components)),
	}
	sc := scratchPool.Get().(*renderScratch)
	sc.begin(cap, len(s.Components))
	var cond []byte
	s.forEachLayered(cap, func(i int, isCond bool, load float64) {
		if st.layer == nil {
			st.layer = make([]complex128, cap.N)
		}
		st.in[i] = true
		st.cached++
		sc.ctx.Activity = nil
		if isCond {
			cond = appendCondKey(cond, i, load)
			sc.ctx.Activity = cap.Activity
		}
		s.renderOne(st.layer, sc, i, cap.Plan, nil)
	})
	sc.end()
	if st.cached == 0 {
		return nil
	}
	st.cond = string(cond)
	return st
}

// check panics if the set was built for a different capture identity than
// the one being rendered — replaying across seeds, start times, or probe
// placements would silently corrupt output, so geometry mismatches are
// programming errors.
func (st *StaticSet) check(cap Capture, ncomp int) {
	if st.band != cap.Band || st.n != cap.N || st.start != cap.Start || st.seed != cap.Seed ||
		st.nearField != cap.NearField || st.nearFieldGainDB != cap.NearFieldGainDB || st.ncomp != ncomp {
		panic(fmt.Sprintf(
			"emsim: static set for band %+v n=%d start=%g seed=%d used with band %+v n=%d start=%g seed=%d",
			st.band, st.n, st.start, st.seed, cap.Band, cap.N, cap.Start, cap.Seed))
	}
}

package core

import (
	"math"
	"slices"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/specan"
)

// TestCampaignEquivalenceStaticCache runs the same campaign through the
// production path (static render cache attached) and through the
// reference path — the scene wrapped in opaqueScene, which the planner
// cannot cull, its shards rendered on an analyzer with no
// static cache and reduced by the same ReduceShards — and requires
// bit-identical measurements and detections. Because every sweep of a
// campaign shares the campaign seed, the cached run builds each capture's
// static layer once and replays it NumAlts times — the counter check
// proves that actually happened, so the equivalence isn't two uncached
// runs agreeing with each other.
func TestCampaignEquivalenceStaticCache(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	c := Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	}
	hits := obs.Default.Counter(obs.MetricStaticCacheHits)
	h0 := hits.Value()
	cached, err := (&Runner{Scene: sys.Scene(21, true)}).RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() == h0 {
		t.Fatal("default campaign replayed no static layers — test is vacuous")
	}
	p, err := PlanShards(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.AnalyzerConfig(nil)
	cfg.Statics = nil
	an := specan.New(cfg)
	ref := &Runner{Scene: opaqueScene(sys.Scene(21, true))}
	ms := make([]Measurement, len(p.FAlts))
	for i := range ms {
		ms[i] = ref.RenderShard(nil, an, p, i, nil, obs.Span{})
	}
	bare, err := ref.ReduceShards(p, ms, nil, obs.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Measurements) != len(bare.Measurements) {
		t.Fatalf("measurement count %d cached vs %d reference", len(cached.Measurements), len(bare.Measurements))
	}
	for i := range bare.Measurements {
		a, b := bare.Measurements[i].Spectrum, cached.Measurements[i].Spectrum
		if a.Bins() != b.Bins() {
			t.Fatalf("measurement %d: %d bins cached vs %d reference", i, b.Bins(), a.Bins())
		}
		for k := range a.PmW {
			if math.Float64bits(a.PmW[k]) != math.Float64bits(b.PmW[k]) {
				t.Fatalf("measurement %d bin %d differs between cached and reference runs", i, k)
			}
		}
	}
	if len(cached.Detections) != len(bare.Detections) {
		t.Fatalf("detections: %d cached vs %d reference", len(cached.Detections), len(bare.Detections))
	}
	for i := range bare.Detections {
		a, b := bare.Detections[i], cached.Detections[i]
		if a.Freq != b.Freq || a.Score != b.Score || a.BestHarmonic != b.BestHarmonic ||
			a.MagnitudeDBm != b.MagnitudeDBm || a.DepthDB != b.DepthDB ||
			!slices.Equal(a.Harmonics, b.Harmonics) {
			t.Fatalf("detection %d differs: %+v vs %+v", i, b, a)
		}
	}
}

// opaque hides every capability of a scene component but Name, Render,
// its static-layer classification, which stays because it fixes render
// order (static layer first, see emsim.StaticRenderer), and its Prepare,
// which stays because the production kernels read their prep.
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

// opaqueScene wraps every component of s in opaque. A campaign over the
// wrapped scene renders with nothing culled, which makes it
// the reference path the campaign-level equivalence tests compare the
// production path against.
func opaqueScene(s *emsim.Scene) *emsim.Scene {
	out := &emsim.Scene{}
	for _, c := range s.Components {
		out.Add(opaque{c})
	}
	return out
}

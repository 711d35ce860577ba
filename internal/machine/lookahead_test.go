package machine

import (
	"fmt"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
)

// withTail returns tr's segments that start before cut, followed by one
// segment that holds load from cut on.
func withTail(tr *activity.Trace, cut float64, load activity.Load) *activity.Trace {
	var starts []float64
	var loads []activity.Load
	for i := 0; i < tr.Len() && tr.Segment(i).Start < cut; i++ {
		starts = append(starts, tr.Segment(i).Start)
		loads = append(loads, tr.Segment(i).Load)
	}
	return activity.New(append(starts, cut), append(loads, load)...)
}

// TestActivityLookaheadEquivalence holds every built-in system (near and
// far field) and a dozen accuracy-corpus systems to the component
// contract a sweep's trace length rests on (emsim.ActivityLookahead): a
// capture renders bit-identically whatever the activity trace holds from
// ActivityLookahead past its last sample on. Each scene renders a capture
// three captures into an LDM/LDL1 alternation, at the campaign geometry
// (16384 points at 100 Hz RBW) and at the adaptive recon geometry (2048
// points at 800 Hz), once with full load and once with idle load from
// the cut onward; the conditional-static keys must agree too. The same
// swap at the capture's end must change some refresh-bearing render, or
// the test would pass with a look-ahead of zero.
func TestActivityLookaheadEquivalence(t *testing.T) {
	full := activity.Load{Core: 1, MemCtl: 1, DRAM: 1}
	idle := activity.LoadOf(activity.Idle)
	type scene struct {
		name  string
		scene *emsim.Scene
		near  bool
	}
	var scenes []scene
	for _, name := range Names() {
		sys, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, near := range []bool{false, true} {
			scenes = append(scenes, scene{fmt.Sprintf("%s near=%v", name, near), sys.Scene(1, true), near})
		}
	}
	// The corpus band (internal/verify); every other system also plants
	// a refresh comb and an FM regulator when their lines fit.
	for i := range 12 {
		spec := RandomSpec{F1: 200e3, F2: 900e3}
		if i%2 == 1 {
			spec.RefreshProb, spec.FMRegProb = 1, 1
		}
		sys := RandomSystem(rand.New(rand.NewSource(int64(1+i))), spec)
		scenes = append(scenes, scene{fmt.Sprintf("corpus system %d", i), sys.Scene(int64(1+i), true), false})
	}
	geoms := []struct {
		name   string
		center float64
		fres   float64
		n      int
	}{
		{"campaign", 550e3, 100, 1 << 14},
		{"adaptive recon", 507.2e3, 800, 1 << 11},
	}

	refreshScenes, endChanged := 0, 0
	for si, sc := range scenes {
		hasRefresh := false
		for _, c := range sc.scene.Components {
			if g, ok := c.(*RefreshEmitter); ok {
				hasRefresh = true
				if 2*g.TRefi >= emsim.ActivityLookahead {
					t.Errorf("%s: refresh %q walks 2·tREFI = %g s past a capture, not under the %g s look-ahead",
						sc.name, g.Label, 2*g.TRefi, emsim.ActivityLookahead)
				}
			}
		}
		if hasRefresh {
			refreshScenes++
		}
		for _, g := range geoms {
			band := emsim.Band{Center: g.center, SampleRate: float64(g.n) * g.fres}
			capDur := float64(g.n) / band.SampleRate
			start := 3 * capDur
			last := start + float64(g.n-1)/band.SampleRate
			alt := microbench.Generate(microbench.Config{
				X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
				Jitter: microbench.DefaultJitter(), Seed: int64(si + 1),
			}, last+emsim.ActivityLookahead+5e-3)
			render := func(tr *activity.Trace) ([]complex128, []byte) {
				capt := emsim.Capture{Band: band, Start: start, N: g.n, Activity: tr,
					Seed: int64(7919 * (si + 1)), NearField: sc.near}
				return sc.scene.Render(capt), sc.scene.AppendCondStaticKey(nil, capt)
			}
			tag := fmt.Sprintf("%s, %s geometry", sc.name, g.name)
			cut := last + emsim.ActivityLookahead
			gotFull, keyFull := render(withTail(alt, cut, full))
			gotIdle, keyIdle := render(withTail(alt, cut, idle))
			bitsEqual(t, tag+": full vs idle load past the look-ahead", 0, gotFull, gotIdle)
			if string(keyFull) != string(keyIdle) {
				t.Fatalf("%s: cond-static key %x under full load past the look-ahead, %x under idle",
					tag, keyFull, keyIdle)
			}
			if !hasRefresh {
				continue
			}
			end := start + capDur
			endFull, _ := render(withTail(alt, end, full))
			endIdle, _ := render(withTail(alt, end, idle))
			for i := range endFull {
				if endFull[i] != endIdle[i] {
					endChanged++
					break
				}
			}
		}
	}
	if refreshScenes == 0 {
		t.Fatal("no scene carries a refresh emitter")
	}
	if endChanged == 0 {
		t.Fatalf("swapping the load at the capture end changed no render of %d refresh-bearing scenes: the test cannot see a read past the capture",
			refreshScenes)
	}
	t.Logf("%d scenes, %d with refresh; a swap at the capture end changed %d of their %d renders",
		len(scenes), refreshScenes, endChanged, refreshScenes*len(geoms))
}

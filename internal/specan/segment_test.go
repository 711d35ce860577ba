package specan

import (
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/machine"
	"fase/internal/microbench"
)

// TestSweepCondStaticKeying pins the two-level static cache's keying: two
// requests that share every outer key (same band plan, seeds, geometry)
// but whose window-constant loads differ must build separate conditional
// entries — and each must replay bit-identically against its own
// unculled, uncached reference (opaqueScene). A constant activity trace makes every
// load-following emitter window-constant, so the conditional layer, not
// the unconditional one, carries the difference.
func TestSweepCondStaticKeying(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	ldm := microbench.Constant(activity.LDM)
	ldl1 := microbench.Constant(activity.LDL1)
	// One scene per trace, shared between the analyzer's sweeps: the outer
	// cache key includes the scene identity, so the cross-sweep behaviour
	// under test only shows on repeated sweeps of the same scene.
	scene := sys.Scene(31, true)
	reqA := Request{Scene: scene, F1: 250e3, F2: 750e3, Seed: 31, Activity: ldm}
	reqB := reqA
	reqB.Activity = ldl1
	refFor := func(req Request) *spectral.Spectrum {
		req.Scene = opaqueScene(sys.Scene(31, true))
		return New(Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1}).Sweep(req)
	}
	refA, refB := refFor(reqA), refFor(reqB)

	an := New(Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, Statics: NewStaticCache()})
	m0 := staticMissesTotal.Value()
	coldA := an.Sweep(reqA)
	m1 := staticMissesTotal.Value()
	warmA := an.Sweep(reqA)
	m2 := staticMissesTotal.Value()
	coldB := an.Sweep(reqB)
	m3 := staticMissesTotal.Value()
	warmB := an.Sweep(reqB)
	m4 := staticMissesTotal.Value()

	if m1 == m0 {
		t.Fatal("first LDM sweep built no static entries — test is vacuous")
	}
	if m2 != m1 {
		t.Errorf("repeat LDM sweep rebuilt %d entries, want 0", m2-m1)
	}
	if m3 == m2 {
		t.Error("first LDL1 sweep reused LDM's entries — conditional loads were not keyed")
	}
	if m4 != m3 {
		t.Errorf("repeat LDL1 sweep rebuilt %d entries, want 0", m4-m3)
	}

	compareSpectraBits(t, "LDM cold", coldA, refA)
	compareSpectraBits(t, "LDM warm", warmA, refA)
	compareSpectraBits(t, "LDL1 cold", coldB, refB)
	compareSpectraBits(t, "LDL1 warm", warmB, refB)
}

package core

import (
	"math"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
)

func TestFMFaseFindsConstantOnTimeRegulator(t *testing.T) {
	// §4.4 future work: the AMD Turion's FM core regulator, which AM-FASE
	// correctly skips, is found by the FM extension under on-chip
	// alternation.
	sys := machine.AMDTurionX2Laptop2007()
	r := &Runner{Scene: sys.Scene(1, false)}
	dets := r.RunFM(FMCampaign{
		F1: 0.3e6, F2: 0.5e6,
		FAlt1: 400, FDelta: 60,
		X: activity.LDL2, Y: activity.LDL1, Seed: 31,
	})
	found := false
	for _, d := range dets {
		// The idle hump sits near F0 (idle load); accept a generous
		// window: it is smeared by the large oscillator wander.
		if math.Abs(d.Freq-sys.FMCoreRegulator.F0) < 60e3 {
			found = true
			if d.DeviationHz < 2e3 {
				t.Errorf("FM deviation estimate %.0f Hz too small", d.DeviationHz)
			}
		}
	}
	if !found {
		t.Errorf("FM-FASE missed the constant-on-time regulator: %+v", dets)
	}
}

func TestFMFaseIgnoresAMRegulator(t *testing.T) {
	// The i7's AM regulators respond to activity in amplitude, not
	// frequency: FM-FASE must not report them.
	sys := machine.IntelCoreI7Desktop()
	r := &Runner{Scene: sys.Scene(1, false)}
	dets := r.RunFM(FMCampaign{
		F1: 0.28e6, F2: 0.36e6,
		FAlt1: 400, FDelta: 60,
		X: activity.LDM, Y: activity.LDL1, Seed: 32,
	})
	for _, d := range dets {
		if math.Abs(d.Freq-sys.MemRegulator.FSw) < 10e3 {
			t.Errorf("AM regulator reported by FM-FASE: %+v", d)
		}
	}
}

func TestFMFaseControlPair(t *testing.T) {
	// X == Y produces no frequency modulation at f_alt: nothing reported.
	sys := machine.AMDTurionX2Laptop2007()
	r := &Runner{Scene: sys.Scene(1, false)}
	dets := r.RunFM(FMCampaign{
		F1: 0.3e6, F2: 0.5e6,
		FAlt1: 400, FDelta: 60,
		X: activity.LDL1, Y: activity.LDL1, Seed: 33,
	})
	if len(dets) != 0 {
		t.Errorf("control pair should detect nothing: %+v", dets)
	}
}

func TestFMCampaignValidation(t *testing.T) {
	fa := FMCampaign{FAlt1: 400, FDelta: 60}.falts()
	if len(fa) != 5 || fa[4] != 640 {
		t.Errorf("ladder wrong: %v", fa)
	}
	mustPanic(t, func() { FMCampaign{FAlt1: 0, FDelta: 1}.validate() })
	mustPanic(t, func() { FMCampaign{FAlt1: 1, FDelta: -1}.validate() })
	mustPanic(t, func() { (&Runner{}).RunFM(FMCampaign{FAlt1: 400, FDelta: 60, F1: 0, F2: 1e5}) })
}

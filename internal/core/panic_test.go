package core

import (
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/par"
)

// bomb panics in every capture it renders.
type bomb struct{}

func (bomb) Name() string                        { return "bomb" }
func (bomb) Render([]complex128, *emsim.Context) { panic("bomb: render failed") }

// TestRunEPanicReachesCaller: campaigns fan their sweeps (and each sweep
// its captures) out to goroutines; a render panic on any of them must
// surface on RunE's caller, exhaustive and adaptive, serial and parallel,
// so the campaign service can fail one job instead of losing the process.
func TestRunEPanicReachesCaller(t *testing.T) {
	base := Campaign{
		F1: 0.3e6, F2: 0.36e6, Fres: 500,
		FAlt1: 43.3e3, FDelta: 500,
		X: activity.LDM, Y: activity.LDL1, Seed: 3,
	}
	adaptive := base
	adaptive.MaxFFT = 256
	adaptive.Budget = 40
	adaptive.Adaptive = &AdaptivePlan{}
	for _, tc := range []struct {
		name string
		c    Campaign
	}{{"exhaustive", base}, {"adaptive", adaptive}} {
		for _, parallelism := range []int{1, 4} {
			scene := machine.IntelCoreI7Desktop().Scene(3, false)
			scene.Add(bomb{})
			c := tc.c
			c.Parallelism = parallelism
			got := func() (v any) {
				defer func() { v = recover() }()
				_, _ = (&Runner{Scene: scene}).RunE(c)
				return nil
			}()
			p, ok := got.(*par.Panic)
			if !ok || p.Value != "bomb: render failed" {
				t.Errorf("%s, parallelism %d: recovered %v, want the render panic as a *par.Panic",
					tc.name, parallelism, got)
			}
		}
	}
}

// activeBomb panics in every capture rendered under program activity:
// RunFM's idle candidate sweep renders it harmlessly, and its per-f_alt
// captures do not.
type activeBomb struct{}

func (activeBomb) Name() string { return "active bomb" }
func (activeBomb) Render(_ []complex128, ctx *emsim.Context) {
	if ctx.Activity != nil {
		panic("bomb: active render failed")
	}
}

// TestRunFMPanicReachesCaller: RunFM fans each candidate's per-f_alt
// captures out to goroutines, and a render panic on one must surface on
// its caller as a *par.Panic instead of taking the process down.
func TestRunFMPanicReachesCaller(t *testing.T) {
	scene := machine.IntelCoreI7Desktop().Scene(3, false)
	scene.Add(activeBomb{})
	got := func() (v any) {
		defer func() { v = recover() }()
		(&Runner{Scene: scene}).RunFM(FMCampaign{
			F1: 0.28e6, F2: 0.36e6, FAlt1: 400, FDelta: 60,
			X: activity.LDM, Y: activity.LDL1, Seed: 3,
		})
		return nil
	}()
	if p, ok := got.(*par.Panic); !ok || p.Value != "bomb: active render failed" {
		t.Errorf("recovered %v, want the capture's panic as a *par.Panic", got)
	}
}

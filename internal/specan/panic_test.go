package specan

import (
	"testing"
	"time"

	"fase/internal/emsim"
	"fase/internal/par"
)

// bomb panics in every capture it renders.
type bomb struct{}

func (bomb) Name() string                        { return "bomb" }
func (bomb) Render([]complex128, *emsim.Context) { panic("bomb: render failed") }

// TestSweepPanicReachesCaller pins the analyzer's panic contract: a
// capture that panics surfaces on Sweep's calling goroutine at any
// Parallelism — where a long-lived caller can recover it, unlike a panic
// on a capture worker goroutine, which kills the process — and leaves the
// analyzer's concurrency budget intact for the next sweep.
func TestSweepPanicReachesCaller(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		an := New(Config{Fres: 200, MaxFFT: 1024, Parallelism: parallelism})
		bad := &emsim.Scene{}
		bad.Add(&tone{freq: 0.5e6, dbm: -80}, bomb{})
		got := func() (v any) {
			defer func() { v = recover() }()
			an.Sweep(Request{Scene: bad, F1: 0.2e6, F2: 0.8e6, Seed: 1})
			return nil
		}()
		if p, ok := got.(*par.Panic); ok {
			got = p.Value
		}
		if got != "bomb: render failed" {
			t.Errorf("parallelism %d: recovered %v, want the capture's panic", parallelism, got)
		}
		good := &emsim.Scene{}
		good.Add(&tone{freq: 0.5e6, dbm: -80})
		done := make(chan struct{})
		go func() {
			an.Sweep(Request{Scene: good, F1: 0.2e6, F2: 0.8e6, Seed: 1})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("parallelism %d: a sweep after the panic never finished — capture slots leaked", parallelism)
		}
	}
}

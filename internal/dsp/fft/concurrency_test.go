package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
)

// TestBluesteinPlanConcurrent is the regression test for the documented
// Bluestein concurrency hazard: a shared non-power-of-two plan used from
// many goroutines must produce correct transforms (run under -race to
// catch scratch-buffer sharing).
func TestBluesteinPlanConcurrent(t *testing.T) {
	const n = 100 // not a power of two: exercises the Bluestein path
	plan := PlanFor(n)

	// Reference input and output computed sequentially.
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = cmplx.Exp(complex(0, 2*math.Pi*3*float64(i)/float64(n))) +
			complex(0.25*float64(i%7), -0.1*float64(i%5))
	}
	want := make([]complex128, n)
	copy(want, ref)
	plan.Forward(want)

	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]complex128, n)
			for it := 0; it < iters; it++ {
				copy(buf, ref)
				plan.Forward(buf)
				for k := range buf {
					if cmplx.Abs(buf[k]-want[k]) > 1e-9 {
						errs <- "forward transform corrupted under concurrency"
						return
					}
				}
				plan.Inverse(buf)
				for k := range buf {
					if cmplx.Abs(buf[k]-ref[k]) > 1e-9 {
						errs <- "inverse round-trip corrupted under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPlanForCachesAndShares checks that goroutines that first ask
// PlanFor for one length together share one build: exactly one miss, the
// other 15 calls hits, and one plan for all.
func TestPlanForCachesAndShares(t *testing.T) {
	n := 30011 // a Bluestein length no other test asks for, fresh on every -count
	for {
		if _, ok := planCache.Load(n); !ok {
			break
		}
		n += 2
	}
	hits0, misses0 := planHits.Value(), planMisses.Value()
	start := make(chan struct{})
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plans[i] = PlanFor(n)
		}()
	}
	close(start)
	wg.Wait()
	if misses := planMisses.Value() - misses0; misses != 1 {
		t.Errorf("%d misses, want 1", misses)
	}
	if hits := planHits.Value() - hits0; hits != 15 {
		t.Errorf("%d hits, want 15", hits)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatalf("PlanFor(%d) returned distinct plans", n)
		}
	}
	if plans[0].Len() != n {
		t.Fatalf("cached plan has length %d, want %d", plans[0].Len(), n)
	}
}

package activity

import (
	"math"
	"math/rand"
	"testing"
)

// randTrace builds an adversarial trace: random segment starts (possibly
// negative, duplicated, or closer together than a sample period), with
// loads drawn from a small palette so adjacent segments often repeat a
// domain value — the case DomainRuns must merge. One trace in three is
// an alternation instead, storing a cycle of two palette loads.
func randTrace(r *rand.Rand) *Trace {
	nseg := r.Intn(40)
	palette := []Load{
		{Core: 0.05, MemCtl: 0.01, DRAM: 0.01},
		{Core: 0.50, MemCtl: 0.90, DRAM: 1.00},
		{Core: 0.50, MemCtl: 0.05, DRAM: 0.02},
		{Core: r.Float64(), MemCtl: r.Float64(), DRAM: r.Float64()},
	}
	starts := make([]float64, nseg)
	loads := make([]Load, nseg)
	t := -r.Float64() * 1e-3
	for i := range starts {
		starts[i], loads[i] = t, palette[r.Intn(len(palette))]
		if r.Intn(4) != 0 { // leave some duplicate starts in place
			t += r.Float64() * 50e-6 // 0..50 µs vs ~2.4 µs sample period
		}
	}
	if r.Intn(3) == 0 {
		return New(starts, palette[r.Intn(len(palette))], palette[r.Intn(len(palette))])
	}
	return New(starts, loads...)
}

// TestSampleRunsMatchCursor is the segmentation property test: the runs
// must partition the sample grid, and every sample inside a run must read
// exactly the load a per-sample Cursor walk returns — bit for bit, since
// the renderers' one-pole and wander state sequences are only reproduced
// when the segmented walk feeds them identical inputs at identical
// sample positions.
func TestSampleRunsMatchCursor(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tr := randTrace(r)
		start := r.Float64() * 1e-3
		dt := 1 / (200e3 + r.Float64()*400e3)
		n := 1 + r.Intn(2048)

		cur := tr.Cursor()
		runs := tr.SampleRuns(start, dt, n)
		next := 0
		for {
			load, i0, i1, ok := runs.Next()
			if !ok {
				break
			}
			if i0 != next || i1 <= i0 || i1 > n {
				t.Fatalf("trial %d: run [%d,%d) does not continue partition at %d", trial, i0, i1, next)
			}
			next = i1
			for i := i0; i < i1; i++ {
				want := cur.At(start + float64(i)*dt)
				if load != want {
					t.Fatalf("trial %d: sample %d in run [%d,%d): run load %+v, cursor %+v",
						trial, i, i0, i1, load, want)
				}
			}
		}
		if next != n {
			t.Fatalf("trial %d: runs covered [0,%d), want [0,%d)", trial, next, n)
		}
	}
}

// TestDomainRunsMatchCursor extends the property to the domain-projected,
// value-merged iterator the renderers consume: full partition, bit-exact
// agreement with the cursor projection at every sample, and maximal
// merging (adjacent runs never carry bit-equal loads — a renderer relies
// on that to re-derive per-run constants only when the value moved).
func TestDomainRunsMatchCursor(t *testing.T) {
	r := rand.New(rand.NewSource(1851))
	for trial := 0; trial < 200; trial++ {
		tr := randTrace(r)
		start := r.Float64() * 1e-3
		dt := 1 / (200e3 + r.Float64()*400e3)
		n := 1 + r.Intn(2048)
		for _, dom := range []Domain{DomainNone, DomainCore, DomainMemCtl, DomainDRAM} {
			cur := tr.Cursor()
			runs := tr.DomainRuns(dom, start, dt, n)
			next, prev := 0, math.NaN()
			for {
				load, i0, i1, ok := runs.Next()
				if !ok {
					break
				}
				if i0 != next || i1 <= i0 || i1 > n {
					t.Fatalf("trial %d %v: run [%d,%d) does not continue partition at %d",
						trial, dom, i0, i1, next)
				}
				if load == prev {
					t.Fatalf("trial %d %v: adjacent runs both carry %v — not merged", trial, dom, load)
				}
				next, prev = i1, load
				for i := i0; i < i1; i++ {
					want := dom.Of(cur.At(start + float64(i)*dt))
					if math.Float64bits(load) != math.Float64bits(want) {
						t.Fatalf("trial %d %v: sample %d in run [%d,%d): run load %v, cursor %v",
							trial, dom, i, i0, i1, load, want)
					}
				}
			}
			if next != n {
				t.Fatalf("trial %d %v: runs covered [0,%d), want [0,%d)", trial, dom, next, n)
			}
			if dom == DomainNone && prev != 0 {
				t.Fatalf("trial %d: DomainNone run load %v, want 0", trial, prev)
			}
		}
	}
}

// TestDomainConstantSoundness checks the conditional-static classifier's
// precondition: whenever DomainConstant reports a window constant, every
// sample a capture grid can place in that window must read exactly that
// value (the converse — detecting every grid-level constancy — is not
// required and not tested).
func TestDomainConstantSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tr := randTrace(r)
		start := r.Float64() * 1e-3
		dt := 1 / (200e3 + r.Float64()*400e3)
		n := 1 + r.Intn(2048)
		t1 := start + float64(n-1)*dt
		for _, dom := range []Domain{DomainNone, DomainCore, DomainMemCtl, DomainDRAM} {
			v, ok := tr.DomainConstant(dom, start, t1)
			if !ok {
				continue
			}
			cur := tr.Cursor()
			for i := 0; i < n; i++ {
				got := dom.Of(cur.At(start + float64(i)*dt))
				if math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("trial %d %v: DomainConstant=%v but sample %d reads %v",
						trial, dom, v, i, got)
				}
			}
		}
	}
}

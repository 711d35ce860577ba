package bufpool

import (
	"runtime"
	"testing"
)

// TestPoolsAlternateSizesWithoutAllocating: once warm, alternating two
// users of very different sizes, as scoring alternates a sub-score table
// and capture-sized spectra, allocates nothing — the larger buffer
// serves both, and returning a buffer boxes nothing. One P, as
// testing.AllocsPerRun has, so every Get meets the Put before it.
func TestPoolsAlternateSizesWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle := func() {
		f := Float(7000)
		PutFloat(f)
		g := Float(18432)
		PutFloat(g)
		c := Complex(256)
		PutComplex(c)
		d := Complex(16384)
		PutComplex(d)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("alternating sizes made %.1f allocations per cycle, want 0", a)
	}
	for _, n := range []int{0, 1, 3, 4096, 20000} {
		if b := Float(n); len(b) != n {
			t.Fatalf("Float(%d) has length %d", n, len(b))
		}
	}
}

// TestArenaTakesSmallestFit: an arena serving mixed sizes hands each
// request the smallest retained buffer that fits and keeps the ones it
// passes over, so once warm, alternating geometries allocate nothing.
func TestArenaTakesSmallestFit(t *testing.T) {
	var a Arena
	a.PutFloat(make([]float64, 16384))
	a.PutFloat(make([]float64, 7000))
	a.PutFloat(make([]float64, 3000))
	if b := a.Float(5000); cap(b) != 7000 {
		t.Errorf("a 5000-element request took a %d-element buffer, want the 7000 one", cap(b))
	}
	if b := a.Float(10000); cap(b) != 16384 {
		t.Errorf("a 10000-element request took a %d-element buffer, want the 16384 one", cap(b))
	}
	if b := a.Float(100); cap(b) != 3000 {
		t.Errorf("a 100-element request took a %d-element buffer, want the 3000 one", cap(b))
	}
	var warm Arena
	cycle := func() {
		c, f := warm.Complex(2048), warm.Float(7000)
		g := warm.Float(1500)
		// Returned largest first: the next cycle's 7000 request passes
		// over the 1500-element buffer on its way.
		warm.PutFloat(f)
		warm.PutFloat(g)
		warm.PutComplex(c)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("alternating geometries on a warm arena made %.1f allocations per cycle, want 0", n)
	}
}

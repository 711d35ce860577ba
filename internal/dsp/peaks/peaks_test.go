package peaks

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFindSimple(t *testing.T) {
	x := []float64{0, 1, 0, 3, 0, 2, 0}
	got := Find(x, Options{})
	if len(got) != 3 {
		t.Fatalf("found %d peaks, want 3: %+v", len(got), got)
	}
	if got[0].Index != 3 || got[0].Value != 3 {
		t.Errorf("tallest peak wrong: %+v", got[0])
	}
	if got[1].Index != 5 || got[2].Index != 1 {
		t.Errorf("peak order wrong: %+v", got)
	}
}

func TestFindPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 2, 0}
	got := Find(x, Options{})
	if len(got) != 1 || got[0].Index != 1 {
		t.Fatalf("plateau should report leftmost sample: %+v", got)
	}
	// A +Inf plateau is a peak whether or not it starts at bin 0.
	for _, x := range [][]float64{{math.Inf(1), math.Inf(1), 1, 0}, {0, math.Inf(1), math.Inf(1), 1, 0}} {
		if got := Find(x, Options{MinValue: 30}); len(got) != 1 || got[0].Index != 1 || !math.IsInf(got[0].Value, 1) {
			t.Errorf("Find(%v) = %+v, want the +Inf plateau at index 1", x, got)
		}
	}
}

func TestFindEdgesIgnored(t *testing.T) {
	// Monotone data has no interior local maximum.
	x := []float64{5, 4, 3, 2, 1}
	if got := Find(x, Options{}); len(got) != 0 {
		t.Errorf("monotone data should have no peaks: %+v", got)
	}
	if got := Find([]float64{1, 2}, Options{}); len(got) != 0 {
		t.Errorf("too-short data should have no peaks: %+v", got)
	}
}

// TestMinValueAndProminenceFilters checks MinValue is the only value
// filter: a peak below it goes, and a low-prominence peak above it stays.
func TestMinValueAndProminenceFilters(t *testing.T) {
	x := []float64{0, 1, 0.9, 1.05, 0, 10, 0}
	got := Find(x, Options{MinValue: 5})
	if len(got) != 1 || got[0].Index != 5 {
		t.Errorf("MinValue filter failed: %+v", got)
	}
	got = Find(x, Options{MinValue: 1.02})
	if len(got) != 2 || got[0].Index != 5 || got[1].Index != 3 {
		t.Errorf("the peak 0.15 above its saddle was filtered: %+v", got)
	}
}

func TestMinDistance(t *testing.T) {
	x := []float64{0, 5, 0, 4, 0, 3, 0}
	got := Find(x, Options{MinDistance: 3})
	// Peaks at 1 (5), 3 (4), 5 (3); with min distance 3, keep 1 then 5.
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 5 {
		t.Errorf("MinDistance filter wrong: %+v", got)
	}
}

// Property: every reported peak is an interior sample no lower than its
// left neighbour.
func TestFindProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(300)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Round(r.Float64()*20) / 2 // coarse values force plateaus
		}
		for _, p := range Find(x, Options{}) {
			if p.Index <= 0 || p.Index >= n-1 {
				return false
			}
			if x[p.Index] < x[p.Index-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFindMinValueFilters pins that MinValue only filters: a peak below
// the threshold sorts after every kept peak, so it never suppresses one
// under MinDistance, and Find with a threshold equals Find without one
// filtered to Value >= MinValue — on traces with plateaus, ties and NaN.
func TestFindMinValueFilters(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 3+r.Intn(300))
		for i := range x {
			x[i] = math.Round(r.Float64()*20) / 2 // coarse values force plateaus and ties
			if r.Intn(25) == 0 {
				x[i] = math.NaN()
			}
		}
		for _, dist := range []int{0, 1, 3, 10} {
			opt := Options{MinValue: math.Round(r.Float64()*20) / 2, MinDistance: dist}
			all := opt
			all.MinValue = math.Inf(-1)
			var want []Peak
			for _, p := range Find(x, all) {
				if p.Value >= opt.MinValue {
					want = append(want, p)
				}
			}
			got := Find(x, opt)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestS1KnownSpike(t *testing.T) {
	x := make([]float64, 21)
	x[10] = 7
	s := S1(x, 3)
	if s[10] != 7 {
		t.Errorf("S1 at spike = %g, want 7", s[10])
	}
	if s[5] != 0 {
		t.Errorf("S1 on flat = %g, want 0", s[5])
	}
	spikes := SpikesS1(x, 3, 1)
	found := false
	for _, i := range spikes {
		if i == 10 {
			found = true
		}
	}
	if !found {
		t.Errorf("SpikesS1 missed the spike: %v", spikes)
	}
}

func TestS1Edges(t *testing.T) {
	x := []float64{3, 1, 2}
	s := S1(x, 2)
	// Index 0 has no left neighbours: score is right-only max rise = 2.
	if s[0] != 2 {
		t.Errorf("edge S1 = %g, want 2", s[0])
	}
	if SpikesS1([]float64{0, 0, 0}, 1, 1) != nil {
		t.Error("flat signal should have no spikes")
	}
	mustPanic(t, func() { S1(x, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

package window

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

var allTypes = []Type{Rectangular, Hann, Hamming, Blackman, BlackmanHarris, FlatTop}

func TestKnownGains(t *testing.T) {
	// Reference coherent gains for large n (periodic form): the mean of the
	// cosine series is its a0 coefficient.
	want := map[Type]float64{
		Rectangular:    1.0,
		Hann:           0.5,
		Hamming:        0.54,
		Blackman:       0.42,
		BlackmanHarris: 0.35875,
		FlatTop:        0.21557895,
	}
	for typ, cg := range want {
		w := New(typ, 4096)
		if got := CoherentGain(w); math.Abs(got-cg) > 1e-9 {
			t.Errorf("%v: coherent gain %g, want %g", typ, got, cg)
		}
	}
}

func TestKnownNENBW(t *testing.T) {
	// Standard NENBW values (bins) from the window literature.
	want := map[Type]float64{
		Rectangular: 1.0,
		Hann:        1.5,
		Hamming:     1.3628,
		Blackman:    1.7268,
	}
	for typ, nb := range want {
		w := New(typ, 8192)
		if got := NENBW(w); math.Abs(got-nb) > 1e-3 {
			t.Errorf("%v: NENBW %g, want %g", typ, got, nb)
		}
	}
}

func TestWindowRange(t *testing.T) {
	for _, typ := range allTypes {
		w := New(typ, 257)
		for i, v := range w {
			if v > 1.0+1e-9 {
				t.Errorf("%v[%d] = %g > 1", typ, i, v)
			}
			// FlatTop legitimately goes slightly negative.
			if typ != FlatTop && v < -1e-9 {
				t.Errorf("%v[%d] = %g < 0", typ, i, v)
			}
		}
	}
}

func TestPeriodicSymmetry(t *testing.T) {
	// The periodic form satisfies w[i] == w[n-i] for i >= 1.
	for _, typ := range allTypes {
		n := 128
		w := New(typ, n)
		for i := 1; i < n; i++ {
			if math.Abs(w[i]-w[n-i]) > 1e-12 {
				t.Errorf("%v: asymmetry at %d: %g vs %g", typ, i, w[i], w[n-i])
				break
			}
		}
	}
}

func TestHannSumsToConstant(t *testing.T) {
	// Periodic Hann windows at 50%% overlap sum to 1 (COLA property).
	n := 64
	w := New(Hann, n)
	for i := 0; i < n/2; i++ {
		if s := w[i] + w[i+n/2]; math.Abs(s-1) > 1e-12 {
			t.Fatalf("Hann COLA violated at %d: %g", i, s)
		}
	}
}

func TestNENBWAtLeastOne(t *testing.T) {
	// Property: NENBW >= 1 for every window (Cauchy-Schwarz).
	f := func(seed int64) bool {
		n := 8 + int(seed%512+512)%512
		for _, typ := range allTypes {
			if NENBW(New(typ, n)) < 1-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { New(Hann, 0) })
	mustPanic(t, func() { New(Type(99), 8) })
}

func TestString(t *testing.T) {
	if Hann.String() != "hann" || FlatTop.String() != "flattop" {
		t.Error("String names wrong")
	}
	if Type(42).String() == "" {
		t.Error("unknown type should still stringify")
	}
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

func TestDefaultSentinel(t *testing.T) {
	// The zero value is "analyzer default", not rectangular — keeping a
	// zero-valued Config field from silently selecting a rectangular
	// window while still allowing Rectangular to be chosen explicitly.
	var zero Type
	if zero != Default {
		t.Fatal("zero value of Type must be Default")
	}
	if Default == Rectangular {
		t.Fatal("Default must be distinct from Rectangular")
	}
	if got := Default.String(); got != "default" {
		t.Errorf("Default.String() = %q", got)
	}
	// Default resolves to the Blackman-Harris taper.
	dw, bh := New(Default, 1024), New(BlackmanHarris, 1024)
	for i := range dw {
		if dw[i] != bh[i] {
			t.Fatal("Default window does not match BlackmanHarris")
		}
	}
	rect := New(Rectangular, 1024)
	for i := range rect {
		if rect[i] != 1 {
			t.Fatal("Rectangular window must be all ones")
		}
	}
}

// TestForBuildsOnce checks that goroutines that first ask For for one key
// together share one build: exactly one miss, the other 15 calls hits,
// and one table for all.
func TestForBuildsOnce(t *testing.T) {
	n := 200003 // a length no other test asks for, fresh on every -count
	for {
		if _, ok := tableCache.Load(tableKey{t: Hann, n: n}); !ok {
			break
		}
		n++
	}
	hits0, misses0 := tableHits.Value(), tableMisses.Value()
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]*Precomputed, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = For(Hann, n)
		}()
	}
	close(start)
	wg.Wait()
	if misses := tableMisses.Value() - misses0; misses != 1 {
		t.Errorf("%d misses, want 1", misses)
	}
	if hits := tableHits.Value() - hits0; hits != 15 {
		t.Errorf("%d hits, want 15", hits)
	}
	for i, pc := range got {
		if pc != got[0] {
			t.Fatalf("call %d returned another table", i)
		}
	}
	if got[0].N != n || len(got[0].W) != n {
		t.Fatalf("cached table has length %d, want %d", len(got[0].W), n)
	}
}
